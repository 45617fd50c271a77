/**
 * @file
 * Randomized differential tests of FlatMap against std::unordered_map:
 * insert, find, erase and clear over well-spread keys, keys forced into
 * clustered probe chains that wrap past the end of the table, growth
 * through several rehashes, and the collect-then-erase sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

/** Every key's home is one of the last slots of the table (the last
 * three once the table has 64 slots or more), at any capacity: all
 * entries form long chains that wrap from the last slot back to
 * slot 0. */
struct WrapClusterHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return ~std::uint64_t{0} - ((key % 3) << 58);
    }
};

/** Check that the map holds exactly the reference contents. */
template <typename Map>
void
expectSame(const Map &map,
           const std::unordered_map<std::uint64_t, std::uint64_t> &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint64_t *found = map.find(k);
        ASSERT_NE(found, nullptr) << "key " << k;
        EXPECT_EQ(*found, v) << "key " << k;
    }
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t k, std::uint64_t v) {
        visited++;
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "stray key " << k;
        EXPECT_EQ(it->second, v);
    });
    EXPECT_EQ(visited, ref.size());
}

/** Random insert/find/erase/clear mix over `key_space` keys, checked
 * against std::unordered_map after every operation. */
template <typename Hash>
void
differential(std::uint64_t seed, std::uint64_t key_space, int ops)
{
    FlatMap<std::uint64_t, std::uint64_t, Hash> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(seed);
    for (int i = 0; i < ops; i++) {
        const std::uint64_t key = rng.uniformInt(key_space);
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 45) {
            const std::uint64_t value = rng.next();
            const auto [slot, inserted] = map.insert(key, value);
            const auto [it, ref_inserted] = ref.try_emplace(key, value);
            ASSERT_EQ(inserted, ref_inserted);
            ASSERT_EQ(*slot, it->second); // present keys keep their value
        } else if (roll < 80) {
            ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
        } else if (roll < 99) {
            const std::uint64_t *found = map.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found) {
                ASSERT_EQ(*found, it->second);
            }
        } else {
            map.clear();
            ref.clear();
        }
        ASSERT_EQ(map.size(), ref.size());
        if (i % 97 == 0)
            expectSame(map, ref);
    }
    expectSame(map, ref);
}

TEST(FlatMap, EmptyMapFindsNothing)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_FALSE(map.erase(7));
    map.clear();
    EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, DifferentialSpreadKeys)
{
    for (std::uint64_t seed = 1; seed <= 8; seed++)
        differential<FlatHash<std::uint64_t>>(seed, 512, 20000);
}

TEST(FlatMap, DifferentialWideKeys)
{
    // Keys over the whole 64-bit range (request ids carry the node id
    // in bits 40+).
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(99);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 3000; i++) {
        const std::uint64_t k = rng.next();
        keys.push_back(k);
        ASSERT_EQ(map.insert(k, i).second, ref.try_emplace(k, i).second);
    }
    expectSame(map, ref);
    for (std::size_t i = 0; i < keys.size(); i += 2) {
        ASSERT_EQ(map.erase(keys[i]), ref.erase(keys[i]) == 1);
    }
    expectSame(map, ref);
}

TEST(FlatMap, DifferentialClusteredChainsWrapPastTableEnd)
{
    // Small key spaces keep the table at 16-64 slots, so the home
    // slots at the end overflow into slot 0 and beyond; erases in
    // the middle of a wrapped chain exercise the backward shift across
    // the wrap point.
    for (std::uint64_t seed = 1; seed <= 8; seed++)
        differential<WrapClusterHash>(seed, 40, 5000);
}

TEST(FlatMap, WrappedChainEraseKeepsEveryOtherKeyReachable)
{
    FlatMap<std::uint64_t, std::uint64_t, WrapClusterHash> map;
    // 12 keys in a 16-slot table, all homed at slot 15: the chain
    // covers slot 15 and wraps through slots 0..10.
    for (std::uint64_t k = 0; k < 12; k++)
        ASSERT_TRUE(map.insert(k, k * 10).second);
    ASSERT_EQ(map.capacity(), 16u);
    // Erase each key in turn from a fresh copy; all others must stay.
    for (std::uint64_t victim = 0; victim < 12; victim++) {
        FlatMap<std::uint64_t, std::uint64_t, WrapClusterHash> copy = map;
        ASSERT_TRUE(copy.erase(victim));
        ASSERT_FALSE(copy.erase(victim));
        for (std::uint64_t k = 0; k < 12; k++) {
            const std::uint64_t *v = copy.find(k);
            if (k == victim) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr) << "victim " << victim << " key " << k;
                EXPECT_EQ(*v, k * 10);
            }
        }
    }
}

TEST(FlatMap, GrowsThroughSeveralRehashes)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::vector<std::size_t> capacities;
    for (std::uint64_t k = 0; k < 5000; k++) {
        // Request-id shaped keys: node id in the high bits.
        const std::uint64_t key = (std::uint64_t{k % 7} << 40) | k;
        map.insert(key, k);
        ref.emplace(key, k);
        if (capacities.empty() || capacities.back() != map.capacity())
            capacities.push_back(map.capacity());
        // Load factor stays at or below 3/4.
        ASSERT_LE(map.size() * 4, map.capacity() * 3);
    }
    EXPECT_GE(capacities.size(), 6u); // 16 -> ... -> 8192
    expectSame(map, ref);
    // clear() keeps the grown table: refilling does not rehash.
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.capacity(), cap);
    for (std::uint64_t k = 0; k < 5000; k++)
        map.insert(k, k);
    EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMap, ReservePreventsRehash)
{
    FlatMap<std::uint64_t, std::uint64_t> map(1000);
    const std::size_t cap = map.capacity();
    for (std::uint64_t k = 0; k < 1000; k++)
        map.insert(k * 7919, k);
    EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMap, CollectThenEraseSweep)
{
    // The documented sweep idiom: gather the keys to drop with forEach,
    // then erase them (erasing inside forEach would move entries under
    // the walk).
    for (std::uint64_t seed = 1; seed <= 4; seed++) {
        FlatMap<std::uint64_t, std::uint64_t, WrapClusterHash> map;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        Rng rng(seed);
        for (int i = 0; i < 300; i++) {
            const std::uint64_t k = rng.uniformInt(1000);
            const std::uint64_t v = rng.uniformInt(100);
            map.insert(k, v);
            ref.try_emplace(k, v);
        }
        std::vector<std::uint64_t> stale;
        map.forEach([&](std::uint64_t k, std::uint64_t v) {
            if (v < 50)
                stale.push_back(k);
        });
        for (std::uint64_t k : stale)
            ASSERT_TRUE(map.erase(k));
        std::erase_if(ref, [](const auto &kv) { return kv.second < 50; });
        expectSame(map, ref);
    }
}

TEST(FlatMap, MoveOnlyValuesAreReleasedOnEraseAndClear)
{
    auto tracked = std::make_shared<int>(1);
    FlatMap<std::uint64_t, std::shared_ptr<int>> map;
    for (std::uint64_t k = 0; k < 100; k++)
        map.insert(k, tracked); // grows through rehashes
    EXPECT_EQ(tracked.use_count(), 101);
    for (std::uint64_t k = 0; k < 50; k++)
        map.erase(k);
    EXPECT_EQ(tracked.use_count(), 51);
    map.clear();
    EXPECT_EQ(tracked.use_count(), 1);

    FlatMap<std::uint64_t, std::unique_ptr<int>> owners;
    owners.insert(3, std::make_unique<int>(42));
    ASSERT_NE(owners.find(3), nullptr);
    EXPECT_EQ(**owners.find(3), 42);
}

} // namespace
} // namespace clio
