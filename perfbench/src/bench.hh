/**
 * @file
 * Shared pieces of the Clio benchmark: host clocks, the allocation
 * counter, span tracing, the closed-loop submit/pump loop,
 * and the per-round result every workload returns.
 *
 * Everything here measures the simulator from outside: it times calls
 * into the layers' public functions and reads their public counters.
 * Nothing in it draws from the simulator's RNG, and the only events it
 * schedules are the workloads' think-time wake-ups, which tracing does
 * not touch, so a traced round replays the same simulated history as
 * an untraced one.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clib/queue.hh"
#include "cluster/cluster.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace perfbench {

using clio::Tick;

/** @{ Host clocks in nanoseconds: process CPU time and monotonic wall. */
std::uint64_t cpuNs();
std::uint64_t wallNs();
/** @} */

/** Heap allocations made by this process so far (operator new calls). */
std::uint64_t allocCount();

/**
 * In-memory span recorder. Spans nest through a stack, so a span's
 * parent is whichever span was open when it began. Written out as
 * Chrome trace-event JSON when the run ends.
 */
class Tracer
{
  public:
    Tracer();

    /** Open a span; returns its id. */
    std::uint32_t begin(const char *name);
    /** Close the innermost open span (must be `id`). */
    void end(std::uint32_t id);

    void clear();

    /** Write every closed span as Chrome "X" events. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint32_t parent; ///< kNoParent for roots
    };
    static constexpr std::uint32_t kNoParent = ~0u;

    std::uint64_t origin_ns_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::uint32_t id_;
};

/** One recorded fast-path access (replay input). */
struct AccessRec
{
    std::uint32_t mn = 0; ///< MN index in the cluster
    clio::ProcId pid = 0;
    clio::VirtAddr addr = 0;
    std::uint32_t size = 0;
    bool is_write = false;
};

/** One recorded slow-path call (replay input). */
struct AllocRec
{
    clio::ProcId pid = 0;
    std::uint64_t size = 0; ///< bytes; 0 = free of `free_index`
    std::uint32_t free_index = 0; ///< index of the alloc being freed
};

/** Inputs captured from a traced round for the per-layer replays. */
struct Recording
{
    std::vector<AccessRec> accesses;
    std::vector<AllocRec> allocs;
    std::vector<std::vector<std::uint8_t>> offload_args;
    std::uint32_t offload_mn = 0;
    std::uint32_t offload_id = 0;
    std::vector<clio::ProcId> pids;
    /** Sum and count of EventQueue::pending() sampled at every pump. */
    double pending_sum = 0;
    std::uint64_t pending_samples = 0;

    static constexpr std::size_t kMaxAccesses = 1u << 15;
    static constexpr std::size_t kMaxOffloadArgs = 1u << 12;

    void
    access(const AccessRec &rec)
    {
        if (accesses.size() < kMaxAccesses)
            accesses.push_back(rec);
    }
};

/** What a workload round is asked to do. */
struct RoundContext
{
    std::uint64_t seed = 0;
    /** Span recorder; null in untraced rounds. */
    Tracer *tracer = nullptr;
    /** Replay-input sink; null unless this round feeds the replays. */
    Recording *rec = nullptr;
};

/** Everything one round of a workload produced. */
struct RoundResult
{
    bool correct = true;
    std::string error;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** @{ Host time (CPU) of set-up and of the timed phase; wall time
     * of the timed phase for the report. */
    double setup_cpu_s = 0;
    double timed_cpu_s = 0;
    double timed_wall_s = 0;
    /** @} */

    /** Simulated duration of the timed phase. */
    Tick sim_ticks = 0;
    /** @{ Steady window for throughput: from the start of the timed
     * phase until the first actor retires (later, fewer actors remain
     * and the offered load drains away). */
    Tick steady_ticks = 0;
    std::uint64_t steady_ops = 0;
    /** @} */
    /** Per-op simulated latency, issue to Completion::completed_at. */
    std::vector<Tick> latencies;
    /** Events executed in the timed phase; final simulated tick. */
    std::uint64_t events = 0;
    Tick final_tick = 0;

    /** @{ Allocation counts of the submit and pump calls (deterministic
     * for a seed). */
    std::uint64_t submit_allocs = 0;
    std::uint64_t pump_allocs = 0;
    /** @} */
    /** @{ Host ns spent in submit / pump calls (traced rounds only). */
    std::uint64_t submit_ns = 0;
    std::uint64_t pump_ns = 0;
    /** @} */
    /** Mean host us per createClient call (traced rounds only). */
    double create_client_us = 0;

    /** Counter-based per-layer metrics of the simulated history
     * (deterministic for a seed). */
    std::map<std::string, double> counters;
    /** Host-time replay metrics (rounds with ctx.rec set only). */
    std::map<std::string, double> replays;

    /** Close the steady window at `elapsed` if it is still open. */
    void
    actorRetired(Tick elapsed)
    {
        if (steady_ticks == 0) {
            steady_ticks = elapsed;
            steady_ops = attempted;
        }
    }

    void
    fail(const std::string &why)
    {
        if (correct)
            error = why;
        correct = false;
    }

    /** Hash of the simulated history: events, final tick, latencies
     * and every counter metric. Host-side tallies (allocation counts,
     * host times) are left out, so a host-only change to the
     * simulator keeps the digest of every seed. */
    std::uint64_t digest() const;
};

/**
 * Closed-loop actor loop shared by the workloads: actors submit
 * SubmissionBatches into one CompletionQueue, and the loop pumps the
 * event queue until completions arrive. Each submit and each pump is
 * one span and one allocation-count window.
 */
class ActorLoop
{
  public:
    ActorLoop(clio::EventQueue &eq, Tracer *tracer, Recording *rec);

    /** Submit `batch` for `actor`; completions carry tags
     * (actor << kOpBits) | op index. */
    void submit(std::uint32_t actor, clio::SubmissionBatch &batch);

    /** Resume `actor` after `delay` ticks of simulated client compute
     * (think time); it shows up in woken() after the pump that passes
     * that tick. */
    void sleep(std::uint32_t actor, Tick delay);

    /** Pump until at least one completion is ready or a sleeping actor
     * wakes, then move every ready completion into `out` and every
     * woken actor into woken() (both cleared first). False when nothing
     * is outstanding or asleep. */
    bool pump(std::vector<clio::Completion> &out);

    const std::vector<std::uint32_t> &woken() const { return woken_; }

    /** Simulated tick at which `actor` last submitted. */
    Tick issuedAt(std::uint32_t actor) const { return issued_.at(actor); }

    Tick now() const { return eq_.now(); }

    /** Copy the allocation/host-time tallies into `res`. */
    void report(RoundResult &res) const;

    static constexpr unsigned kOpBits = 16;
    static std::uint32_t actorOf(std::uint64_t tag)
    {
        return static_cast<std::uint32_t>(tag >> kOpBits);
    }
    static std::uint32_t opOf(std::uint64_t tag)
    {
        return static_cast<std::uint32_t>(tag & ((1u << kOpBits) - 1));
    }

  private:
    clio::EventQueue &eq_;
    clio::CompletionQueue cq_;
    Tracer *tracer_;
    Recording *rec_;
    std::vector<Tick> issued_;
    std::size_t sleeping_ = 0;
    std::vector<std::uint32_t> waking_;
    std::vector<std::uint32_t> woken_;
    std::uint64_t submit_allocs_ = 0;
    std::uint64_t pump_allocs_ = 0;
    std::uint64_t submit_ns_ = 0;
    std::uint64_t pump_ns_ = 0;
};

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile (q in (0, 1]) of sorted samples, in us. */
double percentileUs(const std::vector<Tick> &sorted, double q);

/** Seed-derived stream id, so each actor draws its own sequence. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/** @{ Workload rounds. Each builds a fresh cluster, times a fixed
 * amount of work for the seed, checks every output, and (when
 * ctx.rec is set) runs the per-layer replays on the final state. */
RoundResult runRwFabric(const RoundContext &ctx);
RoundResult runKvYcsbA(const RoundContext &ctx);
RoundResult runAllocChurn(const RoundContext &ctx);
/** @} */

/** Unloaded 16 B read/write probe (traced mode only). */
void runProbe(std::uint64_t seed, std::map<std::string, double> &out);

/**
 * Per-layer host-time replays: call each layer's public function on
 * inputs recorded from the round (or, for a layer the workload never
 * calls, on seed-derived synthetic inputs) and store ns per call in
 * `out`. Runs after the round's checks, so it cannot disturb them.
 */
void runReplays(clio::Cluster &cluster, const Recording &rec,
                std::uint64_t seed, Tracer *tracer,
                std::map<std::string, double> &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
