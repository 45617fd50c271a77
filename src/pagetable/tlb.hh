/**
 * @file
 * On-chip TLB model (§4.2): a fixed-size content-addressable store of
 * recently used PTEs with LRU replacement. Lookup is a single fast-path
 * cycle; a miss costs exactly one DRAM bucket fetch from the hash page
 * table.
 */

#ifndef CLIO_PAGETABLE_TLB_HH
#define CLIO_PAGETABLE_TLB_HH

#include <cstdint>
#include <vector>

#include "pagetable/pte.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace clio {

/**
 * Fixed-capacity fully-associative LRU TLB. Entries live in a
 * `capacity`-sized array linked into an MRU-to-LRU list by index; a
 * FlatMap keyed by the exact (pid, vpn) pair maps to the entry index.
 * Nothing allocates after construction.
 */
class Tlb
{
  public:
    explicit Tlb(std::uint32_t capacity);

    /**
     * Look up (pid, vpn); promotes the entry to MRU on hit.
     * @return cached copy of the PTE, or nullptr on miss. The pointer
     *         stays valid until the next mutating call.
     */
    const Pte *lookup(ProcId pid, std::uint64_t vpn);

    /** Insert (or overwrite) an entry, evicting LRU when full. */
    void insert(const Pte &pte);

    /**
     * Update a cached entry in place if it exists (used when a PTE
     * changes, keeping TLB and page table consistent, §4.2).
     */
    void update(const Pte &pte);

    /** Drop one entry if cached (rfree / remap). */
    void invalidate(ProcId pid, std::uint64_t vpn);

    /** Drop every entry of one process (address space teardown). */
    void invalidateProcess(ProcId pid);

    /** Whether (pid, vpn) is cached; no LRU promotion, no stats. */
    bool contains(ProcId pid, std::uint64_t vpn) const
    {
        return index_.contains(Key{pid, vpn});
    }

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const {
        return static_cast<std::uint32_t>(index_.size());
    }

    /** @{ Hit/miss counters for stats and benches. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** @} */

    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    struct Key
    {
        ProcId pid = 0;
        std::uint64_t vpn = 0;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::uint64_t
        operator()(const Key &k) const
        {
            // A process's consecutive pages stay consecutive keys.
            return (k.vpn + std::uint64_t{k.pid} * 0xC2B2AE3D27D4EB4Full) *
                   kFibonacciMultiplier;
        }
    };

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One TLB entry, doubly linked into the LRU list by index (or
     * singly into the free list through `next`). */
    struct Entry
    {
        Pte pte;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    void unlink(std::uint32_t e);
    void pushFront(std::uint32_t e);
    /** Unlink entry `e`, drop its key, and return it to the free list. */
    void release(std::uint32_t e);

    std::uint32_t capacity_;
    std::vector<Entry> entries_;
    /** Exact (pid, vpn) -> index into entries_. */
    FlatMap<Key, std::uint32_t, KeyHash> index_;
    /** MRU and LRU ends of the list; kNil when empty. */
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    /** Unused entries, linked through `next`. */
    std::uint32_t free_ = kNil;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace clio

#endif // CLIO_PAGETABLE_TLB_HH
