/**
 * @file
 * Per-layer host-time replays. Each replay calls one layer's public
 * function directly on inputs recorded from the traced round and
 * reports host ns per call (median of several passes). A layer the
 * workload never calls is replayed on seed-derived synthetic inputs
 * against a small scratch cluster, so every workload reports every
 * layer.
 */

#include <algorithm>
#include <memory>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "bench.hh"
#include "mem/physical_memory.hh"
#include "net/network.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using namespace clio;

constexpr int kPasses = 5;
/** Fewer recorded inputs than this and the replay goes synthetic. */
constexpr std::size_t kMinInputs = 256;
constexpr std::uint32_t kScratchOffloadId = 7;

/** Keeps replay results observable so loops are not optimized away. */
volatile std::uint64_t g_sink = 0;

/** Time `passes` runs of `body` (each doing `calls` calls) under one
 * span each; returns the median host ns per call. */
template <typename Body>
double
timePerCall(Tracer *tracer, const char *span, std::size_t calls, int passes,
            Body &&body)
{
    std::vector<double> per_call;
    for (int p = 0; p < passes; p++) {
        ScopedSpan s(tracer, span);
        const std::uint64_t t0 = wallNs();
        body();
        per_call.push_back(static_cast<double>(wallNs() - t0) /
                           static_cast<double>(std::max<std::size_t>(1, calls)));
    }
    return median(per_call);
}

/** Scratch cluster for layers the workload never calls: one populated
 * region for fast-path accesses and one Clio-KV offload. */
struct Scratch
{
    std::unique_ptr<Cluster> cluster;
    std::vector<AccessRec> accesses;
    std::vector<std::vector<std::uint8_t>> offload_args;

    explicit Scratch(std::uint64_t seed)
    {
        ModelConfig cfg = ModelConfig::prototype();
        cfg.seed = seed;
        cluster = std::make_unique<Cluster>(cfg, 1, 1);
        cluster->mn(0).registerOffload(
            ClioKvOffload::descriptor(kScratchOffloadId),
            std::make_shared<ClioKvOffload>());
        ClioClient &client = cluster->createClient(0);
        const std::uint64_t page = cfg.page_table.page_size;
        const VirtAddr base =
            client.ralloc(16 * page, kPermReadWrite, true).value_or(0);
        Rng rng(streamSeed(seed, 0x5c7a7c));
        const std::uint32_t sizes[] = {16, 64, 256, 1024, 4096};
        for (std::size_t i = 0; i < Recording::kMaxAccesses / 4; i++) {
            const std::uint32_t size = sizes[rng.uniformInt(5)];
            const VirtAddr addr = base + rng.uniformInt(16) * page +
                                  rng.uniformInt(16 * KiB / size) * size;
            accesses.push_back(
                AccessRec{0, client.pid(), addr, size, rng.chance(0.5)});
        }
        YcsbGenerator gen(2000, YcsbWorkload::kA, true, 0.99,
                          streamSeed(seed, 0x0ff1));
        const std::string value(1024, 'v');
        for (std::uint64_t k = 0; k < 2000; k++)
            offload_args.push_back(kvEncode(
                KvOp::kPut, YcsbGenerator::keyString(k), value));
        for (int i = 0; i < 2000; i++) {
            const YcsbOp op = gen.next();
            const std::string key = YcsbGenerator::keyString(op.key_index);
            offload_args.push_back(op.is_set
                                       ? kvEncode(KvOp::kPut, key, value)
                                       : kvEncode(KvOp::kGet, key));
        }
    }
};

void
replayEventQueue(const Recording &rec, std::uint64_t seed, Tracer *tracer,
                 std::map<std::string, double> &out)
{
    const std::size_t population = std::max<std::size_t>(
        1, rec.pending_samples
               ? static_cast<std::size_t>(rec.pending_sum /
                                          rec.pending_samples + 0.5)
               : 1);
    constexpr std::size_t kHolds = 200000;
    Rng rng(streamSeed(seed, 0xe0e0));
    std::vector<Tick> delays(4096);
    for (Tick &d : delays)
        d = 1 + rng.uniformInt(20 * kMicrosecond);
    EventQueue eq;
    for (std::size_t i = 0; i < population; i++)
        eq.scheduleAfter(delays[i % delays.size()], [] {});
    std::size_t next = 0;
    out["sim.queue_op_host_ns"] = timePerCall(
        tracer, "replay.sim.queue_op", kHolds, kPasses, [&] {
            for (std::size_t i = 0; i < kHolds; i++) {
                eq.runOne();
                eq.scheduleAfter(delays[next++ & 4095], [] {});
            }
        });
}

void
replayNetwork(const std::vector<AccessRec> &acc, std::uint64_t seed,
              Tracer *tracer, std::map<std::string, double> &out)
{
    ModelConfig cfg = ModelConfig::prototype();
    EventQueue eq;
    Network net(eq, cfg.net, seed);
    std::uint64_t delivered = 0;
    NodeId nodes[4];
    for (std::uint32_t i = 0; i < 4; i++)
        nodes[i] = net.addNode([&delivered](Packet) { delivered++; }, 0,
                               i / 2);
    const std::uint32_t mtu_payload = cfg.net.mtu - kPacketHeaderBytes;
    std::vector<Packet> pkts;
    for (std::size_t i = 0; i < acc.size(); i++) {
        Packet p;
        p.src = nodes[i % 4];
        p.dst = nodes[(i + 1 + i / 4 % 3) % 4];
        p.req_id = i + 1;
        p.type = acc[i].is_write ? MsgType::kWrite : MsgType::kRead;
        p.payload_len = std::min(acc[i].size, mtu_payload);
        p.wire_bytes = p.payload_len + kPacketHeaderBytes;
        pkts.push_back(p);
    }
    out["net.send_host_ns"] = timePerCall(
        tracer, "replay.net.send", pkts.size(), kPasses, [&] {
            for (std::size_t i = 0; i < pkts.size(); i++) {
                net.send(pkts[i]);
                if ((i & 63) == 63)
                    eq.runAll();
            }
            eq.runAll();
        });
    g_sink = g_sink + delivered;
}

void
replayAccesses(Cluster &cluster, const std::vector<AccessRec> &acc,
               Tracer *tracer, std::map<std::string, double> &out)
{
    const std::uint64_t page = cluster.config().page_table.page_size;
    std::vector<RequestMsg> reqs(acc.size());
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < acc.size(); i++) {
        RequestMsg &r = reqs[i];
        r.type = acc[i].is_write ? MsgType::kWrite : MsgType::kRead;
        r.pid = acc[i].pid;
        r.addr = acc[i].addr;
        r.size = acc[i].size;
        r.req_id = i + 1;
        if (acc[i].is_write)
            r.data.assign(acc[i].size, 0x5a);
        bytes += acc[i].size;
    }

    out["pagetable.tlb_lookup_host_ns"] = timePerCall(
        tracer, "replay.pagetable.tlb_lookup", acc.size(), kPasses, [&] {
            std::uint64_t hits = 0;
            for (const AccessRec &a : acc)
                hits += cluster.mn(a.mn).tlb().lookup(a.pid, a.addr / page) !=
                        nullptr;
            g_sink = g_sink + hits;
        });
    out["pagetable.pt_lookup_host_ns"] = timePerCall(
        tracer, "replay.pagetable.pt_lookup", acc.size(), kPasses, [&] {
            std::uint64_t found = 0;
            for (const AccessRec &a : acc)
                found += cluster.mn(a.mn).pageTable().lookup(
                             a.pid, a.addr / page) != nullptr;
            g_sink = g_sink + found;
        });
    out["cboard.fastpath_host_ns"] = timePerCall(
        tracer, "replay.cboard.fastpath", acc.size(), kPasses, [&] {
            ResponseMsg resp;
            for (std::size_t i = 0; i < reqs.size(); i++) {
                CBoard &mn = cluster.mn(acc[i].mn);
                g_sink = g_sink + mn.serviceFastPath(
                                      reqs[i], cluster.eventQueue().now(),
                                      resp);
            }
        });

    // PhysicalMemory copies at the recorded sizes, page offsets kept.
    PhysicalMemory mem(cluster.mn(0).memory().capacity());
    const std::uint64_t frames = mem.capacity() / page;
    std::vector<std::uint8_t> buf(4096, 0x3c);
    std::vector<PhysAddr> pas(acc.size());
    for (std::size_t i = 0; i < acc.size(); i++) {
        const std::uint64_t vpn = acc[i].addr / page;
        pas[i] = (vpn % frames) * page +
                 std::min(acc[i].addr % page, page - acc[i].size);
    }
    const double ns_per_op = timePerCall(
        tracer, "replay.mem.copy", acc.size(), kPasses, [&] {
            for (std::size_t i = 0; i < acc.size(); i++) {
                if (acc[i].is_write)
                    mem.write(pas[i], buf.data(), acc[i].size);
                else
                    mem.read(pas[i], buf.data(), acc[i].size);
            }
        });
    out["mem.copy_host_ns_per_kib"] =
        ns_per_op * static_cast<double>(acc.size()) /
        (static_cast<double>(bytes) / 1024.0);
}

/** Synthetic alloc/free churn for workloads with few slow-path calls:
 * 4 processes, 1-8 page regions, frees once 256 pages are live. */
std::vector<AllocRec>
syntheticAllocs(std::uint64_t seed, std::uint64_t page)
{
    std::vector<AllocRec> out;
    Rng rng(streamSeed(seed, 0xa110c));
    std::vector<std::uint32_t> live(4, 0);
    std::uint64_t live_pages = 0;
    for (int i = 0; i < 2000; i++) {
        const ProcId pid = 1 + static_cast<ProcId>(rng.uniformInt(4));
        const std::uint64_t pages = 1 + rng.uniformInt(8);
        if (live_pages + pages > 256 && live[pid - 1] > 0) {
            out.push_back(AllocRec{pid, 0,
                                   static_cast<std::uint32_t>(
                                       rng.uniformInt(live[pid - 1]))});
            live[pid - 1]--;
            live_pages -= 4; // approximate: band control only
        } else {
            out.push_back(AllocRec{pid, pages * page, 0});
            live[pid - 1]++;
            live_pages += pages;
        }
    }
    return out;
}

void
replayValloc(Cluster &cluster, const std::vector<AllocRec> &allocs,
             Tracer *tracer, std::map<std::string, double> &out)
{
    const ModelConfig &cfg = cluster.config();
    const std::uint64_t page = cfg.page_table.page_size;
    const std::uint64_t capacity = cluster.mn(0).memory().capacity();
    std::vector<double> per_call;
    for (int pass = 0; pass < 3; pass++) {
        ScopedSpan s(tracer, "replay.valloc.allocate");
        VaAllocator va(page, 1ull << 46);
        HashPageTable pt(capacity, page, cfg.page_table.bucket_slots,
                         cfg.page_table.overprovision);
        std::map<ProcId, std::vector<VirtAddr>> live;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
        for (const AllocRec &r : allocs) {
            std::vector<VirtAddr> &mine = live[r.pid];
            if (r.size > 0) {
                const std::uint64_t t0 = wallNs();
                auto res = va.allocate(r.pid, r.size, kPermReadWrite, pt);
                ns += wallNs() - t0;
                calls++;
                if (!res)
                    continue;
                for (std::uint64_t vpn : res->vpns)
                    pt.insert(r.pid, vpn, kPermReadWrite);
                mine.push_back(res->addr);
            } else if (!mine.empty()) {
                const std::size_t k = r.free_index % mine.size();
                const VirtAddr addr = mine[k];
                mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(k));
                const std::uint64_t t0 = wallNs();
                auto res = va.free(r.pid, addr);
                ns += wallNs() - t0;
                calls++;
                if (res) {
                    for (std::uint64_t vpn : res->vpns)
                        pt.remove(r.pid, vpn);
                }
            }
        }
        per_call.push_back(calls ? static_cast<double>(ns) / calls : 0);
    }
    out["valloc.allocate_host_ns"] = median(per_call);
}

void
replayOffload(CBoard &mn, std::uint32_t offload_id,
              const std::vector<std::vector<std::uint8_t>> &args,
              Tracer *tracer, std::map<std::string, double> &out)
{
    out["offload.invoke_host_ns"] = timePerCall(
        tracer, "replay.offload.invoke", args.size(), 3, [&] {
            for (const auto &arg : args) {
                OffloadResult result;
                g_sink = g_sink + mn.invokeOffloadLocal(offload_id, arg,
                                                        result);
            }
        });
}

void
replayShardMap(const ShardMap &map, const std::vector<ProcId> &pids,
               Tracer *tracer, std::map<std::string, double> &out)
{
    constexpr std::size_t kCalls = 200000;
    out["cluster.shard_owner_host_ns"] = timePerCall(
        tracer, "replay.cluster.shard_owner", kCalls, kPasses, [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < kCalls; i++)
                acc += map.ownerOf(pids[i % pids.size()], i / pids.size());
            g_sink = g_sink + acc;
        });
}

} // namespace

void
runReplays(Cluster &cluster, const Recording &rec, std::uint64_t seed,
           Tracer *tracer, std::map<std::string, double> &out)
{
    ScopedSpan root(tracer, "replay");
    std::unique_ptr<Scratch> scratch;
    const auto need = [&]() -> Scratch & {
        if (!scratch)
            scratch = std::make_unique<Scratch>(seed);
        return *scratch;
    };

    replayEventQueue(rec, seed, tracer, out);

    const bool own_acc = rec.accesses.size() >= kMinInputs;
    const std::vector<AccessRec> &acc =
        own_acc ? rec.accesses : need().accesses;
    replayNetwork(acc, seed, tracer, out);
    replayAccesses(own_acc ? cluster : *need().cluster, acc, tracer, out);

    if (rec.allocs.size() >= 64) {
        replayValloc(cluster, rec.allocs, tracer, out);
    } else {
        replayValloc(cluster,
                     syntheticAllocs(seed,
                                     cluster.config().page_table.page_size),
                     tracer, out);
    }

    if (rec.offload_args.size() >= kMinInputs) {
        replayOffload(cluster.mn(rec.offload_mn), rec.offload_id,
                      rec.offload_args, tracer, out);
    } else {
        Scratch &s = need();
        replayOffload(s.cluster->mn(0), kScratchOffloadId, s.offload_args,
                      tracer, out);
    }

    std::vector<ProcId> pids = rec.pids;
    if (pids.empty())
        pids.push_back(1);
    replayShardMap(cluster.shardMap(), pids, tracer, out);
}

} // namespace perfbench
