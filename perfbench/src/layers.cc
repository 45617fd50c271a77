/**
 * @file
 * Counter-based per-layer metrics: snapshots of every layer's public
 * counters before and after a timed phase, turned into per-op ratios.
 */

#include <algorithm>

#include "layers.hh"

namespace perfbench {

LayerSnapshot
LayerSnapshot::take(clio::Cluster &cluster)
{
    LayerSnapshot s;
    s.events = cluster.eventQueue().executed();
    s.now = cluster.eventQueue().now();
    for (std::uint32_t i = 0; i < cluster.cnCount(); i++) {
        const clio::CNodeStats &cn = cluster.cn(i).stats();
        s.timeouts += cn.timeouts;
        s.cwnd_decreases += cn.cwnd_decreases;
    }
    for (std::uint32_t i = 0; i < cluster.clientCount(); i++)
        s.ordering_stalls += cluster.client(i).stats().ordering_stalls;
    for (std::uint32_t i = 0; i < cluster.mnCount(); i++) {
        clio::CBoard &mn = cluster.mn(i);
        s.page_faults += mn.stats().page_faults;
        s.allocs += mn.stats().allocs;
        s.alloc_retries += mn.stats().alloc_retries;
        s.tlb_hits += mn.tlb().hits();
        s.tlb_misses += mn.tlb().misses();
        const clio::OffloadRuntime &rt = mn.offloadRuntime();
        s.dispatches += rt.scheduler().stats().dispatches;
        s.engine_wait += rt.scheduler().stats().wait_ticks;
        s.engine_busy += rt.scheduler().stats().busy_ticks;
        for (const auto &[id, entry] : rt.registry().entries()) {
            s.offload_calls += entry.stats.calls + entry.stats.chain_stages;
            s.offload_translate += entry.stats.cost.translate;
            s.offload_dram += entry.stats.cost.dram;
        }
    }
    return s;
}

void
fillLayerCounters(clio::Cluster &cluster, const LayerSnapshot &before,
                  const LayerSnapshot &after, RoundResult &res)
{
    const double ops = static_cast<double>(std::max<std::uint64_t>(
        1, res.attempted));
    const auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto &c = res.counters;
    const double events = static_cast<double>(after.events - before.events);
    c["sim.events_per_op"] = events / ops;
    c["clib.timeouts_per_kop"] =
        1000.0 * static_cast<double>(after.timeouts - before.timeouts) / ops;
    c["clib.cwnd_decreases_per_kop"] =
        1000.0 *
        static_cast<double>(after.cwnd_decreases - before.cwnd_decreases) /
        ops;
    c["clib.ordering_stalls_per_kop"] =
        1000.0 *
        static_cast<double>(after.ordering_stalls - before.ordering_stalls) /
        ops;

    // NetStats is reset at the start of the timed phase.
    const clio::NetStats &net = cluster.network().stats();
    c["net.packets_per_op"] = static_cast<double>(net.sent) / ops;
    c["net.cross_rack_share"] = per(static_cast<double>(net.cross_rack),
                                    static_cast<double>(net.sent));
    c["net.peak_queue_depth"] = static_cast<double>(net.peak_queue_depth);
    c["net.pfc_stall_us_per_op"] =
        clio::ticksToUs(net.pfc_stall_ticks) / ops;

    c["cboard.page_faults_per_kop"] =
        1000.0 * static_cast<double>(after.page_faults - before.page_faults) /
        ops;
    const double hits = static_cast<double>(after.tlb_hits - before.tlb_hits);
    const double misses =
        static_cast<double>(after.tlb_misses - before.tlb_misses);
    c["pagetable.tlb_miss_ratio"] = per(misses, hits + misses);
    std::uint32_t max_fill = 0;
    std::uint64_t chunks = 0;
    for (std::uint32_t i = 0; i < cluster.mnCount(); i++) {
        max_fill = std::max(max_fill,
                            cluster.mn(i).pageTable().maxBucketFill());
        chunks += cluster.mn(i).memory().materializedChunks();
    }
    c["pagetable.max_bucket_fill"] = max_fill;
    c["valloc.retries_per_alloc"] =
        per(static_cast<double>(after.alloc_retries - before.alloc_retries),
            static_cast<double>(after.allocs - before.allocs));
    // PhysicalMemory materializes 64 KiB host chunks on first write.
    c["mem.materialized_mib"] = static_cast<double>(chunks) / 16.0;

    const double calls =
        static_cast<double>(after.dispatches - before.dispatches);
    c["offload.engine_wait_us_per_call"] =
        per(clio::ticksToUs(after.engine_wait - before.engine_wait), calls);
    c["offload.engine_busy_us_per_call"] =
        per(clio::ticksToUs(after.engine_busy - before.engine_busy), calls);
    const double invocations =
        static_cast<double>(after.offload_calls - before.offload_calls);
    c["offload.translate_ns_per_call"] = per(
        clio::ticksToNs(after.offload_translate - before.offload_translate),
        invocations);
    c["offload.dram_ns_per_call"] =
        per(clio::ticksToNs(after.offload_dram - before.offload_dram),
            invocations);
    c["kv.slab_bytes_per_put"] = 0; // kv-ycsb-a fills it in itself
}

void
finishTimedPhase(clio::Cluster &cluster, const LayerSnapshot &before,
                 const ActorLoop &loop, std::uint64_t cpu0,
                 std::uint64_t wall0, RoundResult &res)
{
    res.timed_cpu_s = static_cast<double>(cpuNs() - cpu0) / 1e9;
    res.timed_wall_s = static_cast<double>(wallNs() - wall0) / 1e9;
    loop.report(res);
    const LayerSnapshot after = LayerSnapshot::take(cluster);
    res.sim_ticks = after.now - before.now;
    res.events = after.events - before.events;
    res.final_tick = after.now;
    fillLayerCounters(cluster, before, after, res);
}

} // namespace perfbench
