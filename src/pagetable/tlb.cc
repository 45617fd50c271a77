#include "pagetable/tlb.hh"

#include "sim/logging.hh"

namespace clio {

Tlb::Tlb(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity), index_(capacity)
{
    clio_assert(capacity > 0, "TLB capacity must be nonzero");
    for (std::uint32_t e = 0; e < capacity; e++)
        entries_[e].next = e + 1 < capacity ? e + 1 : kNil;
    free_ = 0;
}

void
Tlb::unlink(std::uint32_t e)
{
    Entry &entry = entries_[e];
    if (entry.prev != kNil)
        entries_[entry.prev].next = entry.next;
    else
        head_ = entry.next;
    if (entry.next != kNil)
        entries_[entry.next].prev = entry.prev;
    else
        tail_ = entry.prev;
}

void
Tlb::pushFront(std::uint32_t e)
{
    Entry &entry = entries_[e];
    entry.prev = kNil;
    entry.next = head_;
    if (head_ != kNil)
        entries_[head_].prev = e;
    else
        tail_ = e;
    head_ = e;
}

void
Tlb::release(std::uint32_t e)
{
    unlink(e);
    const Pte &pte = entries_[e].pte;
    index_.erase(Key{pte.pid, pte.vpn});
    entries_[e].next = free_;
    free_ = e;
}

const Pte *
Tlb::lookup(ProcId pid, std::uint64_t vpn)
{
    const std::uint32_t *e = index_.find(Key{pid, vpn});
    if (!e) {
        misses_++;
        return nullptr;
    }
    hits_++;
    // Promote to MRU.
    const std::uint32_t idx = *e;
    if (head_ != idx) {
        unlink(idx);
        pushFront(idx);
    }
    return &entries_[idx].pte;
}

void
Tlb::insert(const Pte &pte)
{
    const Key key{pte.pid, pte.vpn};
    if (const std::uint32_t *e = index_.find(key)) {
        const std::uint32_t idx = *e;
        entries_[idx].pte = pte;
        if (head_ != idx) {
            unlink(idx);
            pushFront(idx);
        }
        return;
    }
    if (free_ == kNil)
        release(tail_); // full: evict the LRU entry
    const std::uint32_t idx = free_;
    free_ = entries_[idx].next;
    entries_[idx].pte = pte;
    pushFront(idx);
    index_.insert(key, idx);
}

void
Tlb::update(const Pte &pte)
{
    if (const std::uint32_t *e = index_.find(Key{pte.pid, pte.vpn}))
        entries_[*e].pte = pte;
}

void
Tlb::invalidate(ProcId pid, std::uint64_t vpn)
{
    if (const std::uint32_t *e = index_.find(Key{pid, vpn}))
        release(*e);
}

void
Tlb::invalidateProcess(ProcId pid)
{
    // Walks the LRU list, not the index, so erasing from the index
    // while walking is safe; `next` is read before the entry is freed.
    for (std::uint32_t e = head_; e != kNil;) {
        const std::uint32_t next = entries_[e].next;
        if (entries_[e].pte.pid == pid)
            release(e);
        e = next;
    }
}

} // namespace clio
