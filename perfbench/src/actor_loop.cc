/**
 * @file
 * Closed-loop submit/pump loop shared by every workload.
 */

#include "bench.hh"

namespace perfbench {

ActorLoop::ActorLoop(clio::EventQueue &eq, Tracer *tracer, Recording *rec)
    : eq_(eq), cq_(eq), tracer_(tracer), rec_(rec)
{
}

void
ActorLoop::submit(std::uint32_t actor, clio::SubmissionBatch &batch)
{
    if (actor >= issued_.size())
        issued_.resize(actor + 1, 0);
    issued_[actor] = eq_.now();
    const std::uint64_t tag = std::uint64_t{actor} << kOpBits;
    if (!tracer_) {
        const std::uint64_t a0 = allocCount();
        batch.submit(cq_, tag, 1);
        submit_allocs_ += allocCount() - a0;
        return;
    }
    ScopedSpan span(tracer_, "clib.submit");
    const std::uint64_t t0 = wallNs();
    const std::uint64_t a0 = allocCount();
    batch.submit(cq_, tag, 1);
    submit_allocs_ += allocCount() - a0;
    submit_ns_ += wallNs() - t0;
}

void
ActorLoop::sleep(std::uint32_t actor, Tick delay)
{
    sleeping_++;
    eq_.scheduleAfter(delay, [this, actor] { waking_.push_back(actor); });
}

bool
ActorLoop::pump(std::vector<clio::Completion> &out)
{
    out.clear();
    woken_.clear();
    if (cq_.outstanding() == 0 && cq_.ready() == 0 && sleeping_ == 0)
        return false;
    if (rec_) {
        rec_->pending_sum += static_cast<double>(eq_.pending());
        rec_->pending_samples++;
    }
    std::uint64_t t0 = 0;
    std::uint32_t span = 0;
    if (tracer_) {
        span = tracer_->begin("sim.pump");
        t0 = wallNs();
    }
    const std::uint64_t a0 = allocCount();
    eq_.runUntil([this] { return cq_.ready() > 0 || !waking_.empty(); });
    out = cq_.poll(cq_.ready());
    pump_allocs_ += allocCount() - a0;
    woken_.swap(waking_);
    sleeping_ -= woken_.size();
    if (tracer_) {
        pump_ns_ += wallNs() - t0;
        tracer_->end(span);
    }
    return !out.empty() || !woken_.empty();
}

void
ActorLoop::report(RoundResult &res) const
{
    res.submit_allocs = submit_allocs_;
    res.pump_allocs = pump_allocs_;
    res.submit_ns = submit_ns_;
    res.pump_ns = pump_ns_;
}

} // namespace perfbench
