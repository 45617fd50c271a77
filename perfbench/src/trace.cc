/**
 * @file
 * Host clocks, statistics helpers, the span recorder and its Chrome
 * trace-event writer, and the round digest.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "bench.hh"

namespace perfbench {

namespace {

std::uint64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** FNV-1a over raw bytes. */
void
mix(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; i++) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
}

template <typename T>
void
mixValue(std::uint64_t &h, const T &v)
{
    mix(h, &v, sizeof(v));
}

} // namespace

std::uint64_t cpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t wallNs() { return clockNs(CLOCK_MONOTONIC); }

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentileUs(const std::vector<Tick> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return clio::ticksToUs(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
RoundResult::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    mixValue(h, attempted);
    mixValue(h, failed);
    mixValue(h, sim_ticks);
    mixValue(h, steady_ticks);
    mixValue(h, steady_ops);
    mixValue(h, events);
    mixValue(h, final_tick);
    mix(h, latencies.data(), latencies.size() * sizeof(Tick));
    for (const auto &[name, value] : counters) {
        mix(h, name.data(), name.size());
        mixValue(h, value);
    }
    return h;
}

Tracer::Tracer() : origin_ns_(wallNs())
{
    spans_.reserve(1u << 16);
}

std::uint32_t
Tracer::begin(const char *name)
{
    const std::uint32_t id = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{name, wallNs(), 0, parent});
    open_.push_back(id);
    return id;
}

void
Tracer::end(std::uint32_t id)
{
    spans_[id].end_ns = wallNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::clear()
{
    spans_.clear();
    open_.clear();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        if (s.end_ns == 0)
            continue; // never closed
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%lld}}",
                     first ? "" : ",\n", s.name,
                     static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent));
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
