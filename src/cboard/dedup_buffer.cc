#include "cboard/dedup_buffer.hh"

#include "sim/logging.hh"

namespace clio {

DedupBuffer::DedupBuffer(std::uint32_t capacity)
    : capacity_(capacity), results_(std::size_t{capacity} + 1)
{
    clio_assert(capacity > 0, "dedup buffer capacity must be nonzero");
    ring_.reserve(capacity);
}

void
DedupBuffer::record(ReqId req_id, std::uint64_t atomic_result)
{
    if (!results_.insert(req_id, atomic_result).second)
        return; // already recorded (e.g. duplicate delivery)
    if (ring_.size() < capacity_) {
        ring_.push_back(req_id);
        return;
    }
    // Full: the new id overwrites the oldest one's ring position.
    results_.erase(ring_[next_]);
    ring_[next_] = req_id;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
}

std::optional<std::uint64_t>
DedupBuffer::find(ReqId req_id) const
{
    if (const std::uint64_t *v = results_.find(req_id))
        return *v;
    return std::nullopt;
}

} // namespace clio
