/**
 * @file
 * Byte-addressable physical memory for one memory node.
 *
 * Storage is sparse (allocated in fixed-size chunks on first touch) so a
 * simulated MN can be configured with, say, 2 GB or 4 TB of physical
 * memory without the host paying for untouched bytes. All reads and
 * writes move real data: end-to-end tests verify that what a client
 * reads through the whole network/translation stack is exactly what was
 * written, even under loss/reordering/retry.
 */

#ifndef CLIO_MEM_PHYSICAL_MEMORY_HH
#define CLIO_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <memory>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace clio {

/** Sparse backing store for one MN's on-board DRAM. */
class PhysicalMemory
{
  public:
    /** @param capacity total physical bytes this MN hosts. */
    explicit PhysicalMemory(std::uint64_t capacity);

    std::uint64_t capacity() const { return capacity_; }

    /**
     * Copy `len` bytes from physical address `addr` into `dst`.
     * Untouched memory reads as zero. Panics on out-of-range access
     * (the translation layer must never produce one).
     */
    void read(PhysAddr addr, void *dst, std::uint64_t len) const;

    /** Copy `len` bytes from `src` into physical address `addr`. */
    void write(PhysAddr addr, const void *src, std::uint64_t len);

    /** Read a little-endian 64-bit word (for atomics). */
    std::uint64_t read64(PhysAddr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(PhysAddr addr, std::uint64_t value);

    /** Zero-fill a range (used when a fresh frame is handed out). */
    void zero(PhysAddr addr, std::uint64_t len);

    /** Number of host-side chunks actually materialized (test hook). */
    std::size_t materializedChunks() const { return chunks_.size(); }

  private:
    static constexpr std::uint64_t kChunkBytes = 64 * KiB;

    std::uint8_t *chunkFor(std::uint64_t chunk_index) const;

    std::uint64_t capacity_;
    /** chunk index -> lazily allocated chunk. A hash map rather than an
     * array indexed by chunk, so host set-up and memory grow with the
     * bytes touched, not with the MN's capacity. Mutable so that read()
     * of untouched memory can stay logically const without
     * materializing (it simply skips absent chunks). */
    mutable FlatMap<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        chunks_;
};

} // namespace clio

#endif // CLIO_MEM_PHYSICAL_MEMORY_HH
