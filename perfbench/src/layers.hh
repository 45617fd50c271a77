/**
 * @file
 * Snapshots of the layers' public counters around a timed phase.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>

#include "bench.hh"
#include "cluster/cluster.hh"

namespace perfbench {

/** Cumulative counters of every layer at one instant. */
struct LayerSnapshot
{
    std::uint64_t events = 0;
    Tick now = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t cwnd_decreases = 0;
    std::uint64_t ordering_stalls = 0;
    std::uint64_t page_faults = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_retries = 0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t dispatches = 0;
    Tick engine_wait = 0;
    Tick engine_busy = 0;
    std::uint64_t offload_calls = 0;
    Tick offload_translate = 0;
    Tick offload_dram = 0;

    static LayerSnapshot take(clio::Cluster &cluster);
};

/** Fill res.counters with every counter-based per-layer metric. */
void fillLayerCounters(clio::Cluster &cluster, const LayerSnapshot &before,
                       const LayerSnapshot &after, RoundResult &res);

/** Close a timed phase that started at (cpu0, wall0) from `before`:
 * host times, simulated span, events, loop tallies and counters. */
void finishTimedPhase(clio::Cluster &cluster, const LayerSnapshot &before,
                      const ActorLoop &loop, std::uint64_t cpu0,
                      std::uint64_t wall0, RoundResult &res);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
