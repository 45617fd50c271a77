/**
 * @file
 * Unit + property tests for the overflow-free hash page table and TLB.
 */

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "pagetable/hash_page_table.hh"
#include "pagetable/tlb.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace clio {
namespace {

HashPageTable
makeTable(std::uint64_t phys = 2 * GiB)
{
    // Defaults from the paper: 4 MB pages, 8-slot buckets, 2x slots.
    return HashPageTable(phys, 4 * MiB, 8, 2.0);
}

Pte
makePte(ProcId pid, std::uint64_t vpn, PhysAddr frame, std::uint8_t perm,
        bool valid, bool present)
{
    Pte pte;
    pte.pid = pid;
    pte.vpn = vpn;
    pte.frame = frame;
    pte.perm = perm;
    pte.valid = valid;
    pte.present = present;
    return pte;
}

TEST(JenkinsHash, DeterministicAndSpread)
{
    EXPECT_EQ(jenkinsHash(1, 2), jenkinsHash(1, 2));
    EXPECT_NE(jenkinsHash(1, 2), jenkinsHash(2, 1));
    // Sequential vpns should spread across values.
    std::set<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 1000; v++)
        values.insert(jenkinsHash(7, v) % 128);
    EXPECT_GT(values.size(), 100u);
}

TEST(HashPageTable, GeometryMatchesPaper)
{
    auto pt = makeTable();
    // 2 GB / 4 MB = 512 frames; 2x overprovision = 1024 slots.
    EXPECT_EQ(pt.totalSlots(), 1024u);
    EXPECT_EQ(pt.bucketSlots(), 8u);
    // §4.2: table consumes ~0.4% of physical memory (here: 16 B PTEs).
    EXPECT_LT(static_cast<double>(pt.tableBytes()),
              0.004 * 2 * GiB);
}

TEST(HashPageTable, InsertLookupRemove)
{
    auto pt = makeTable();
    pt.insert(3, 100, kPermReadWrite);
    const Pte *pte = pt.lookup(3, 100);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->pid, 3u);
    EXPECT_EQ(pte->vpn, 100u);
    EXPECT_FALSE(pte->present);
    EXPECT_EQ(pt.liveEntries(), 1u);

    EXPECT_EQ(pt.lookup(3, 101), nullptr);
    EXPECT_EQ(pt.lookup(4, 100), nullptr);

    Pte removed = pt.remove(3, 100);
    EXPECT_TRUE(removed.valid);
    EXPECT_EQ(pt.lookup(3, 100), nullptr);
    EXPECT_EQ(pt.liveEntries(), 0u);
}

TEST(HashPageTable, BindFrameMakesPresent)
{
    auto pt = makeTable();
    pt.insert(1, 5, kPermRead);
    pt.bindFrame(1, 5, 8 * MiB);
    const Pte *pte = pt.lookup(1, 5);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present);
    EXPECT_EQ(pte->frame, 8 * MiB);
}

TEST(HashPageTable, MultiProcessIsolation)
{
    auto pt = makeTable();
    // Same vpn under different pids are distinct entries.
    for (ProcId p = 1; p <= 5; p++)
        pt.insert(p, 42, kPermRead);
    EXPECT_EQ(pt.liveEntries(), 5u);
    for (ProcId p = 1; p <= 5; p++) {
        const Pte *pte = pt.lookup(p, 42);
        ASSERT_NE(pte, nullptr);
        EXPECT_EQ(pte->pid, p);
    }
}

TEST(HashPageTable, CanInsertCountsBatchDemand)
{
    auto pt = makeTable(64 * MiB); // 16 frames -> 32 slots, 4 buckets
    // Find 9 vpns that all land in the same bucket: demand 9 > K=8.
    std::vector<std::uint64_t> same_bucket;
    const std::uint64_t target = pt.bucketOf(1, 0);
    for (std::uint64_t v = 0; same_bucket.size() < 9; v++) {
        if (pt.bucketOf(1, v) == target)
            same_bucket.push_back(v);
    }
    EXPECT_FALSE(pt.canInsert(1, same_bucket));
    same_bucket.pop_back();
    EXPECT_TRUE(pt.canInsert(1, same_bucket));
}

TEST(HashPageTable, CanInsertReflectsExistingFill)
{
    auto pt = makeTable(64 * MiB);
    const std::uint64_t target = pt.bucketOf(9, 0);
    std::vector<std::uint64_t> bucket_vpns;
    for (std::uint64_t v = 0; bucket_vpns.size() < 9; v++) {
        if (pt.bucketOf(9, v) == target)
            bucket_vpns.push_back(v);
    }
    // Fill 8 slots; the 9th single insert must be rejected by the check.
    for (int i = 0; i < 8; i++)
        pt.insert(9, bucket_vpns[static_cast<std::size_t>(i)],
                  kPermRead);
    std::vector<std::uint64_t> one{bucket_vpns[8]};
    EXPECT_FALSE(pt.canInsert(9, one));
    EXPECT_EQ(pt.freeSlotsInBucket(9, bucket_vpns[8]), 0u);
}

TEST(HashPageTable, PropertyNoOverflowWhenGuardedByCanInsert)
{
    // Property: any insert admitted by canInsert() never overflows,
    // across random pids/vpns until the table is near-full.
    auto pt = makeTable(256 * MiB); // 128 slots
    Rng rng(21);
    std::set<std::pair<ProcId, std::uint64_t>> live;
    std::uint64_t inserted = 0, rejected = 0;
    while (inserted + rejected < 5000 &&
           pt.liveEntries() < pt.totalSlots()) {
        ProcId pid = static_cast<ProcId>(rng.uniformRange(1, 8));
        std::uint64_t vpn = rng.uniformInt(1 << 16);
        if (live.count({pid, vpn}))
            continue;
        std::vector<std::uint64_t> batch{vpn};
        if (pt.canInsert(pid, batch)) {
            pt.insert(pid, vpn, kPermReadWrite); // must not panic
            live.insert({pid, vpn});
            inserted++;
        } else {
            rejected++;
        }
    }
    EXPECT_GT(inserted, 0u);
    EXPECT_LE(pt.maxBucketFill(), pt.bucketSlots());
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    Pte pte = makePte(1, 10, 4 * MiB, kPermRead, true, true);
    tlb.insert(pte);
    const Pte *hit = tlb.lookup(1, 10);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->frame, 4 * MiB);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(Tlb, MissCounted)
{
    Tlb tlb(4);
    EXPECT_EQ(tlb.lookup(1, 10), nullptr);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.insert(makePte(1, 1, 0, kPermRead, true, true));
    tlb.insert(makePte(1, 2, 0, kPermRead, true, true));
    // Touch vpn 1 so vpn 2 becomes LRU.
    EXPECT_NE(tlb.lookup(1, 1), nullptr);
    tlb.insert(makePte(1, 3, 0, kPermRead, true, true));
    EXPECT_NE(tlb.lookup(1, 1), nullptr);
    EXPECT_EQ(tlb.lookup(1, 2), nullptr); // evicted
    EXPECT_NE(tlb.lookup(1, 3), nullptr);
}

TEST(Tlb, UpdateInPlace)
{
    Tlb tlb(4);
    tlb.insert(makePte(1, 1, 0, kPermRead, true, false));
    Pte updated = makePte(1, 1, 12 * MiB, kPermRead, true, true);
    tlb.update(updated);
    const Pte *pte = tlb.lookup(1, 1);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present);
    EXPECT_EQ(pte->frame, 12 * MiB);
    // update() of an uncached entry is a no-op, not an insert.
    tlb.update(makePte(2, 9, 0, kPermRead, true, true));
    std::uint64_t misses_before = tlb.misses();
    EXPECT_EQ(tlb.lookup(2, 9), nullptr);
    EXPECT_EQ(tlb.misses(), misses_before + 1);
}

TEST(Tlb, InvalidateSingleAndProcess)
{
    Tlb tlb(8);
    for (std::uint64_t v = 0; v < 3; v++) {
        tlb.insert(makePte(1, v, 0, kPermRead, true, true));
        tlb.insert(makePte(2, v, 0, kPermRead, true, true));
    }
    tlb.invalidate(1, 0);
    EXPECT_EQ(tlb.lookup(1, 0), nullptr);
    EXPECT_NE(tlb.lookup(2, 0), nullptr);
    tlb.invalidateProcess(2);
    for (std::uint64_t v = 0; v < 3; v++)
        EXPECT_EQ(tlb.lookup(2, v), nullptr);
    EXPECT_NE(tlb.lookup(1, 1), nullptr);
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, ReinsertRefreshesLru)
{
    Tlb tlb(2);
    tlb.insert(makePte(1, 1, 0, kPermRead, true, true));
    tlb.insert(makePte(1, 2, 0, kPermRead, true, true));
    tlb.insert(makePte(1, 1, 4 * MiB, kPermRead, true, true)); // refresh
    tlb.insert(makePte(1, 3, 0, kPermRead, true, true));
    EXPECT_NE(tlb.lookup(1, 1), nullptr); // survived, vpn2 evicted
    EXPECT_EQ(tlb.lookup(1, 2), nullptr);
}

/**
 * Reference model: the straightforward std::unordered_map + std::list
 * LRU, against which the array-based TLB is checked operation by
 * operation.
 */
class RefLruTlb
{
  public:
    struct Key
    {
        ProcId pid;
        std::uint64_t vpn;
        bool operator==(const Key &) const = default;
    };

    explicit RefLruTlb(std::uint32_t capacity) : capacity_(capacity) {}

    const Pte *
    lookup(ProcId pid, std::uint64_t vpn)
    {
        auto it = map_.find(Key{pid, vpn});
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return &it->second.pte;
    }

    /** @return the evicted key, if the insert evicted one. */
    std::optional<Key>
    insert(const Pte &pte)
    {
        const Key key{pte.pid, pte.vpn};
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second.pte = pte;
            lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
            return std::nullopt;
        }
        std::optional<Key> victim;
        if (map_.size() >= capacity_) {
            victim = lru_.back();
            lru_.pop_back();
            map_.erase(*victim);
        }
        lru_.push_front(key);
        map_.emplace(key, Entry{pte, lru_.begin()});
        return victim;
    }

    void
    update(const Pte &pte)
    {
        auto it = map_.find(Key{pte.pid, pte.vpn});
        if (it != map_.end())
            it->second.pte = pte;
    }

    void
    invalidate(ProcId pid, std::uint64_t vpn)
    {
        auto it = map_.find(Key{pid, vpn});
        if (it == map_.end())
            return;
        lru_.erase(it->second.lru_pos);
        map_.erase(it);
    }

    void
    invalidateProcess(ProcId pid)
    {
        for (auto it = map_.begin(); it != map_.end();) {
            if (it->first.pid == pid) {
                lru_.erase(it->second.lru_pos);
                it = map_.erase(it);
            } else {
                ++it;
            }
        }
    }

    std::size_t size() const { return map_.size(); }
    const std::list<Key> &lru() const { return lru_; }

  private:
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<std::uint64_t>{}(k.vpn) ^ k.pid;
        }
    };
    struct Entry
    {
        Pte pte;
        std::list<Key>::iterator lru_pos;
    };

    std::uint32_t capacity_;
    std::unordered_map<Key, Entry, KeyHash> map_;
    std::list<Key> lru_;
};

/** Random (pid, vpn) from a small space that includes vpns above 2^40
 * differing only in their high bits, so a key that packed pid and vpn
 * into one word (or dropped high vpn bits) would alias entries. */
RefLruTlb::Key
randomKey(Rng &rng)
{
    static constexpr std::uint64_t kHigh[] = {
        0, 1ull << 40, 3ull << 40, 1ull << 52, 0x8000000000000000ull};
    const ProcId pid = 1 + static_cast<ProcId>(rng.uniformInt(3));
    const std::uint64_t vpn =
        rng.uniformInt(6) + kHigh[rng.uniformInt(std::size(kHigh))];
    return {pid, vpn};
}

void
tlbDifferential(std::uint32_t capacity, std::uint64_t seed, int ops)
{
    Tlb tlb(capacity);
    RefLruTlb ref(capacity);
    Rng rng(seed);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (int i = 0; i < ops; i++) {
        const RefLruTlb::Key k = randomKey(rng);
        const std::uint64_t roll = rng.uniformInt(100);
        const Pte pte = makePte(k.pid, k.vpn, rng.uniformInt(1024) * MiB,
                                kPermReadWrite, true, rng.chance(0.5));
        if (roll < 45) {
            const Pte *got = tlb.lookup(k.pid, k.vpn);
            const Pte *want = ref.lookup(k.pid, k.vpn);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << i;
            if (want) {
                hits++;
                EXPECT_EQ(got->frame, want->frame);
                EXPECT_EQ(got->present, want->present);
                EXPECT_EQ(got->pid, k.pid);
                EXPECT_EQ(got->vpn, k.vpn);
            } else {
                misses++;
            }
        } else if (roll < 80) {
            const auto victim = ref.insert(pte);
            tlb.insert(pte);
            if (victim) {
                EXPECT_FALSE(tlb.contains(victim->pid, victim->vpn))
                    << "op " << i;
            }
        } else if (roll < 88) {
            ref.update(pte);
            tlb.update(pte);
        } else if (roll < 97) {
            ref.invalidate(k.pid, k.vpn);
            tlb.invalidate(k.pid, k.vpn);
        } else {
            ref.invalidateProcess(k.pid);
            tlb.invalidateProcess(k.pid);
        }
        ASSERT_EQ(tlb.size(), ref.size()) << "op " << i;
        // Same size and every reference key present => same contents,
        // hence the same eviction victims so far.
        for (const RefLruTlb::Key &key : ref.lru())
            ASSERT_TRUE(tlb.contains(key.pid, key.vpn)) << "op " << i;
    }
    EXPECT_EQ(tlb.hits(), hits);
    EXPECT_EQ(tlb.misses(), misses);
}

TEST(Tlb, DifferentialAgainstMapListLru)
{
    for (std::uint32_t capacity : {1u, 2u, 7u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 6; seed++) {
            SCOPED_TRACE(::testing::Message()
                         << "capacity " << capacity << " seed " << seed);
            tlbDifferential(capacity, seed, 4000);
        }
    }
}

TEST(Tlb, KeyIsExactAboveTwoToThe40)
{
    // vpns that differ only above bit 40, and pids that a pid<<40|vpn
    // packing would confuse with vpn bits, are distinct entries.
    Tlb tlb(8);
    tlb.insert(makePte(1, 5, 1 * MiB, kPermRead, true, true));
    tlb.insert(makePte(1, 5 + (1ull << 40), 2 * MiB, kPermRead, true, true));
    tlb.insert(makePte(2, 5, 3 * MiB, kPermRead, true, true));
    tlb.insert(makePte(0, 5 + (2ull << 40), 4 * MiB, kPermRead, true, true));
    EXPECT_EQ(tlb.size(), 4u);
    EXPECT_EQ(tlb.lookup(1, 5)->frame, 1 * MiB);
    EXPECT_EQ(tlb.lookup(1, 5 + (1ull << 40))->frame, 2 * MiB);
    EXPECT_EQ(tlb.lookup(2, 5)->frame, 3 * MiB);
    EXPECT_EQ(tlb.lookup(0, 5 + (2ull << 40))->frame, 4 * MiB);
    EXPECT_EQ(tlb.lookup(2, 5 + (1ull << 40)), nullptr);
    tlb.invalidate(1, 5 + (1ull << 40));
    EXPECT_NE(tlb.lookup(1, 5), nullptr);
    EXPECT_EQ(tlb.size(), 3u);
}

} // namespace
} // namespace clio
