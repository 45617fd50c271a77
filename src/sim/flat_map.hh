/**
 * @file
 * Open-addressed hash map for the simulator's per-request and per-page
 * lookups (request ids, TLB keys, dedup ids, DRAM chunk indices).
 *
 * The CBoard's tables are fixed-size hardware structures, and a
 * node-based std::unordered_map would cost one malloc per insert and a
 * pointer chase per probe. FlatMap keeps every entry in one contiguous
 * power-of-two array: a probe is a straight-line scan from the key's
 * home slot (linear probing), deletion shifts the following cluster
 * back (no tombstones, so probe chains never degrade under churn), and
 * once the table has grown to its working size neither insert nor
 * erase allocates.
 *
 * Pointer-stability rule: an entry MOVES on insert (the table may
 * rehash), on erase (backward shift relocates its neighbours) and on
 * clear. Never hold a pointer or reference returned by find()/insert()
 * across any mutation of the same map. Callers that need stable bodies
 * keep them in their own slot vector and store a small index as the
 * mapped value; sweeps collect the keys to drop first (forEach does not
 * allow mutation), then erase them.
 *
 * Iteration order (forEach) is slot order: deterministic for a given
 * history of operations, but not insertion order.
 */

#ifndef CLIO_SIM_FLAT_MAP_HH
#define CLIO_SIM_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace clio {

/** Fibonacci hashing: the key times 2^64 / phi. The table indexes by
 * the product's top bits, which depend on every key bit, and
 * consecutive keys land about 0.618 x capacity apart, so runs of
 * sequential keys (request ids, chunk indices) fill the table almost
 * without collisions. */
constexpr std::uint64_t kFibonacciMultiplier = 0x9E3779B97F4A7C15ull;

/** Default hasher for integer keys (see kFibonacciMultiplier). */
template <typename K>
struct FlatHash
{
    static_assert(std::is_integral_v<K>,
                  "FlatHash covers integer keys; pass a hasher otherwise");

    std::uint64_t
    operator()(K key) const
    {
        return static_cast<std::uint64_t>(key) * kFibonacciMultiplier;
    }
};

/**
 * Linear-probing hash map with backward-shift deletion. K and V must
 * be default-constructible and movable; K needs operator==. The hasher
 * returns a 64-bit value whose top log2(capacity) bits select the home
 * slot.
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    FlatMap() = default;

    /** Pre-size for `n` entries so that up to `n` live entries never
     * rehash. */
    explicit FlatMap(std::size_t n) { reserve(n); }

    std::size_t size() const { return size_; }
    /** Slots in the table (a power of two, or 0 before first use). */
    std::size_t capacity() const { return slots_.size(); }

    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (cap * kMaxLoadNum < n * kMaxLoadDen)
            cap *= 2;
        if (cap > slots_.size())
            rehash(cap);
    }

    /** @return the mapped value, or nullptr when absent. */
    V *
    find(const K &key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /**
     * Insert `value` under `key` unless the key is present.
     * @return {the mapped value, whether it was inserted}. An existing
     *         value is left untouched.
     */
    std::pair<V *, bool>
    insert(const K &key, V value)
    {
        if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum)
            rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.key = key;
                s.value = std::move(value);
                s.used = true;
                size_++;
                return {&s.value, true};
            }
            if (s.key == key)
                return {&s.value, false};
        }
    }

    /** Remove `key`. @return whether it was present. */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        std::size_t i = home(key);
        while (true) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
            i = (i + 1) & mask_;
        }
        // Backward shift: pull every later member of the cluster that
        // may legally sit at the hole (its home is not cyclically
        // inside (hole, j]) into it, so lookups never meet a gap.
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole].key = std::move(slots_[j].key);
                slots_[hole].value = std::move(slots_[j].value);
                hole = j;
            }
        }
        release(slots_[hole]);
        size_--;
        return true;
    }

    /** Drop every entry; keeps the table's capacity. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_) {
            if (s.used)
                release(s);
        }
        size_ = 0;
    }

    /** Visit every entry as f(key, value) in slot order. The map must
     * not be mutated from inside f. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.used)
                f(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        K key{};
        V value{};
        bool used = false;
    };

    static constexpr std::size_t kMinCapacity = 16;
    /** Maximum load factor 3/4. */
    static constexpr std::size_t kMaxLoadNum = 3;
    static constexpr std::size_t kMaxLoadDen = 4;

    std::size_t
    home(const K &key) const
    {
        return static_cast<std::size_t>(Hash{}(key) >> shift_);
    }

    /** Empty a slot, destroying what its value owns. */
    static void
    release(Slot &s)
    {
        s.used = false;
        s.key = K{};
        s.value = V{};
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old(cap);
        old.swap(slots_);
        mask_ = cap - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
        for (Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i].key = std::move(s.key);
            slots_[i].value = std::move(s.value);
            slots_[i].used = true;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    /** 64 - log2(capacity): home() keeps the hash's top bits. */
    unsigned shift_ = 0;
    std::size_t size_ = 0;
};

} // namespace clio

#endif // CLIO_SIM_FLAT_MAP_HH
