/**
 * @file
 * Clio benchmark loop.
 *
 *   perfbench_clio --workload rw-fabric|kv-ycsb-a|alloc-churn --seed N
 *                  --seconds T --trace 0|1 [--trace-out FILE]
 *
 * A run repeats whole rounds of one workload for T seconds of wall
 * time. Every round builds a fresh cluster from the seed and does the
 * same simulated work, so all rounds of a run must produce the same
 * digest of the simulated history (events, final tick, latencies,
 * counters) and the same allocation counts; any difference fails the
 * run. Host metrics are medians over rounds,
 * simulated metrics come from the (identical) rounds themselves.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced rounds (their digests must match: tracing from
 * outside must not change the simulated history), runs the per-layer
 * replays and the unloaded 16 B probe, writes the spans of the first
 * traced round as Chrome trace-event JSON, and prints the per-layer
 * metrics. The last line of stdout is one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench.hh"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"host_ops_per_s", "ops/s"}, {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},     {"sim_p50_us", "us"},
    {"sim_p99_us", "us"},        {"sim_p999_us", "us"},
    {"sim_mops", "Mops/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.pump_allocs_per_op", "count"},
    {"sim.queue_op_host_ns", "ns"},
    {"clib.submit_host_ns_per_op", "ns"},
    {"clib.submit_allocs_per_op", "count"},
    {"clib.timeouts_per_kop", "count"},
    {"clib.cwnd_decreases_per_kop", "count"},
    {"clib.ordering_stalls_per_kop", "count"},
    {"net.packets_per_op", "count"},
    {"net.cross_rack_share", "ratio"},
    {"net.peak_queue_depth", "packets"},
    {"net.pfc_stall_us_per_op", "sim_us"},
    {"net.send_host_ns", "ns"},
    {"cboard.fastpath_host_ns", "ns"},
    {"cboard.page_faults_per_kop", "count"},
    {"pagetable.tlb_miss_ratio", "ratio"},
    {"pagetable.tlb_lookup_host_ns", "ns"},
    {"pagetable.pt_lookup_host_ns", "ns"},
    {"pagetable.max_bucket_fill", "slots"},
    {"valloc.retries_per_alloc", "count"},
    {"valloc.allocate_host_ns", "ns"},
    {"mem.materialized_mib", "MiB"},
    {"mem.copy_host_ns_per_kib", "ns/KiB"},
    {"offload.engine_wait_us_per_call", "sim_us"},
    {"offload.engine_busy_us_per_call", "sim_us"},
    {"offload.translate_ns_per_call", "sim_ns"},
    {"offload.dram_ns_per_call", "sim_ns"},
    {"offload.invoke_host_ns", "ns"},
    {"kv.slab_bytes_per_put", "bytes"},
    {"cluster.create_client_host_us", "us"},
    {"cluster.shard_owner_host_ns", "ns"},
    {"trace.host_ops_per_s", "ops/s"},
    {"trace.overhead_ratio", "ratio"},
    {"probe.read16_p50_us", "sim_us"},
    {"probe.read16_p99_us", "sim_us"},
    {"probe.write16_p50_us", "sim_us"},
    {"probe.write16_p99_us", "sim_us"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_clio: %s\nusage: perfbench_clio --workload "
                 "rw-fabric|kv-ycsb-a|alloc-churn --seed N --seconds T "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            if (!*val || *end)
                usage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (!*val || *end || a.seconds <= 0 || a.seconds > 3600)
                usage("--seconds wants a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                usage("--trace wants 0 or 1");
            a.trace = val[0] == '1';
        } else if (flag == "--trace-out") {
            a.trace_out = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::map<std::string, double> &values,
          const MetricDef *defs, std::size_t ndefs)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < ndefs; i++) {
        auto it = values.find(defs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, v, defs[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::function<RoundResult(const RoundContext &)> run;
    if (args.workload == "rw-fabric")
        run = runRwFabric;
    else if (args.workload == "kv-ycsb-a")
        run = runKvYcsbA;
    else if (args.workload == "alloc-churn")
        run = runAllocChurn;
    else
        usage(("unknown workload " + args.workload).c_str());

    const std::uint64_t wall0 = wallNs();
    const std::uint64_t deadline =
        wall0 + static_cast<std::uint64_t>(args.seconds * 1e9);
    constexpr int kMinRounds = 4;

    bool correct = true;
    std::string error;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> rates, traced_rates, setups, wall_rates;
    std::vector<double> ns_per_event, submit_ns_per_op, create_us;
    RoundResult first;
    std::uint64_t digest = 0;
    // The first traced round's spans stay in memory until the run ends;
    // later traced rounds record into a scratch tracer (same overhead).
    Tracer tracer;
    Tracer scratch_tracer;
    Recording rec;

    int rounds = 0;
    for (int round = 0;; round++) {
        rounds = round + 1;
        const bool traced = args.trace && round % 2 == 1;
        RoundContext ctx;
        ctx.seed = args.seed;
        if (traced) {
            scratch_tracer.clear();
            ctx.tracer = round == 1 ? &tracer : &scratch_tracer;
            ctx.rec = round == 1 ? &rec : nullptr;
        }
        RoundResult r = run(ctx);
        if (!r.correct && correct) {
            correct = false;
            error = r.error;
        }
        if (round == 0) {
            digest = r.digest();
        } else if (correct && (r.digest() != digest ||
                               r.submit_allocs != first.submit_allocs ||
                               r.pump_allocs != first.pump_allocs)) {
            correct = false;
            error = std::string(traced ? "a traced round differs from the "
                                         "untraced round in its "
                                       : "two rounds of one seed differ in "
                                         "their ") +
                    (r.digest() != digest ? "simulated digest"
                                          : "allocation counts");
        }
        attempted += r.attempted;
        failed += r.failed;
        const double rate = r.attempted / std::max(r.timed_cpu_s, 1e-9);
        if (traced) {
            traced_rates.push_back(rate);
            ns_per_event.push_back(static_cast<double>(r.pump_ns) /
                                   std::max<std::uint64_t>(1, r.events));
            submit_ns_per_op.push_back(
                static_cast<double>(r.submit_ns) /
                std::max<std::uint64_t>(1, r.attempted));
            create_us.push_back(r.create_client_us);
        } else if (round > 0) {
            // Round 0 warms the allocator and caches; host figures
            // come from the rounds after it.
            rates.push_back(rate);
            wall_rates.push_back(r.attempted /
                                 std::max(r.timed_wall_s, 1e-9));
            setups.push_back(r.setup_cpu_s);
        }
        // Round 0 supplies the simulated metrics; the first traced round
        // supplies the replays (its counters equal round 0's, or the
        // digest check above fails the run).
        if (round == 0)
            first = std::move(r);
        else if (traced && round == 1)
            first.replays = std::move(r.replays);
        const int min_rounds = args.trace ? 3 : kMinRounds;
        if (round + 1 >= min_rounds && wallNs() >= deadline)
            break;
    }

    std::vector<Tick> lat = first.latencies;
    std::sort(lat.begin(), lat.end());
    std::map<std::string, double> e2e;
    e2e["host_ops_per_s"] = median(rates);
    e2e["setup_s"] = median(setups);
    e2e["peak_rss_mib"] = peakRssMib();
    e2e["sim_p50_us"] = percentileUs(lat, 0.50);
    e2e["sim_p99_us"] = percentileUs(lat, 0.99);
    e2e["sim_p999_us"] = percentileUs(lat, 0.999);
    e2e["sim_mops"] = static_cast<double>(first.steady_ops) /
                      std::max(clio::ticksToSeconds(first.steady_ticks),
                               1e-12) /
                      1e6;

    std::fprintf(stderr,
                 "workload %s seed %" PRIu64 ": %d rounds (1 warm-up), %" PRIu64
                 " ops/round, sim digest %016" PRIx64 "\n",
                 args.workload.c_str(), args.seed, rounds, first.attempted,
                 digest);
    std::fprintf(stderr,
                 "  host %.0f ops/s (cpu, median) %.0f ops/s (wall, "
                 "median), setup %.4f s\n",
                 e2e["host_ops_per_s"], median(wall_rates), e2e["setup_s"]);
    std::fprintf(stderr,
                 "  sim p50 %.3f us p99 %.3f us p99.9 %.3f us over %zu ops, "
                 "%.4f Mops/s; peak rss %.1f MiB\n",
                 e2e["sim_p50_us"], e2e["sim_p99_us"], e2e["sim_p999_us"],
                 lat.size(), e2e["sim_mops"], e2e["peak_rss_mib"]);
    std::fprintf(stderr, "  per-round host ops/s:");
    for (const double r : rates)
        std::fprintf(stderr, " %.0f", r);
    std::fprintf(stderr, "\n");
    if (!correct)
        std::fprintf(stderr, "  INCORRECT: %s\n", error.c_str());

    if (!args.trace) {
        printJson(correct, attempted, failed, e2e, kEndToEnd,
                  std::size(kEndToEnd));
        return correct ? 0 : 1;
    }

    std::map<std::string, double> layer = first.counters;
    for (const auto &[k, v] : first.replays)
        layer[k] = v;
    const double ops = static_cast<double>(
        std::max<std::uint64_t>(1, first.attempted));
    layer["sim.pump_allocs_per_op"] = first.pump_allocs / ops;
    layer["clib.submit_allocs_per_op"] = first.submit_allocs / ops;
    layer["sim.host_ns_per_event"] = median(ns_per_event);
    layer["clib.submit_host_ns_per_op"] = median(submit_ns_per_op);
    layer["cluster.create_client_host_us"] = median(create_us);
    layer["trace.host_ops_per_s"] = median(traced_rates);
    layer["trace.overhead_ratio"] =
        median(rates) / std::max(median(traced_rates), 1e-9);
    runProbe(args.seed, layer);
    if (!args.trace_out.empty() && !tracer.writeChromeJson(args.trace_out))
        std::fprintf(stderr, "warn: cannot write %s\n", args.trace_out.c_str());
    for (const MetricDef &d : kPerLayer) {
        if (!layer.count(d.name)) {
            correct = false;
            std::fprintf(stderr, "  missing per-layer metric %s\n", d.name);
        }
        std::fprintf(stderr, "  %-34s %14.4f %s\n", d.name, layer[d.name],
                     d.unit);
    }
    printJson(correct, attempted, failed, layer, kPerLayer,
              std::size(kPerLayer));
    return correct ? 0 : 1;
}
