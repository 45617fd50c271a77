/**
 * @file
 * kv-ycsb-a: Clio-KV offloaded on 2 MNs under YCSB-A (50% put, 50% get,
 * zipf 0.99 over a preloaded key set, 1 KiB values), driven by 16
 * closed-loop clients that each keep one async offload request in
 * flight.
 *
 * Every value encodes its key, a version and a checksum. A get must
 * return a value that some put wrote for that key, and that value must
 * not be provably overwritten: if put w completed before the get was
 * issued, the returned version's put must not have completed before w
 * was issued (the linearizable-register rule, stated in simulated
 * time). Concurrent puts to one hot key may legitimately land in either
 * order, so "the latest completed put" alone would be too strict.
 */

#include <cstring>
#include <memory>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "layers.hh"

namespace perfbench {

namespace {

using namespace clio;

constexpr std::uint32_t kOffloadId = 1;
constexpr std::uint32_t kMns = 2;
constexpr std::uint32_t kCns = 2;
constexpr std::uint32_t kClients = 16;
constexpr std::uint64_t kKeys = 20000;
constexpr std::uint32_t kValueBytes = 1024;
constexpr std::uint32_t kOpsPerClient = 10000;
/** Preload puts each client keeps in flight. */
constexpr std::uint32_t kPreloadWindow = 8;
constexpr std::uint32_t kBuckets = 8192;
constexpr std::uint64_t kReplyBytes = 1200;

std::uint64_t
fnv(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Value layout: key index, version, checksum of the rest, filler. */
std::string
encodeValue(std::uint64_t key, std::uint64_t version)
{
    std::string v(kValueBytes, '\0');
    auto *p = reinterpret_cast<std::uint8_t *>(v.data());
    std::uint64_t x = streamSeed(key, version);
    for (std::uint32_t i = 24; i < kValueBytes; i++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        p[i] = static_cast<std::uint8_t>(x >> 56);
    }
    std::memcpy(p, &key, 8);
    std::memcpy(p + 8, &version, 8);
    const std::uint64_t sum = fnv(p + 24, kValueBytes - 24);
    std::memcpy(p + 16, &sum, 8);
    return v;
}

/** Decode a value; false when its checksum does not hold. */
bool
decodeValue(const std::vector<std::uint8_t> &v, std::uint64_t &key,
            std::uint64_t &version)
{
    if (v.size() != kValueBytes)
        return false;
    std::uint64_t sum = 0;
    std::memcpy(&key, v.data(), 8);
    std::memcpy(&version, v.data() + 8, 8);
    std::memcpy(&sum, v.data() + 16, 8);
    return sum == fnv(v.data() + 24, kValueBytes - 24);
}

/** What the checker knows about one key's puts. */
struct KeyState
{
    /** Completion tick of each version's put; kTickMax while in flight. */
    std::vector<Tick> done_at;
    /** Max issue tick over this key's completed puts. */
    Tick last_completed_issue = 0;
};

struct PendingOp
{
    bool is_put = false;
    std::uint64_t key = 0;
    std::uint64_t version = 0;
    /** For gets: last_completed_issue of the key when issued. */
    Tick floor = 0;
};

struct Client
{
    ClioClient *client = nullptr;
    std::unique_ptr<YcsbGenerator> gen;
    std::uint32_t ops_left = kOpsPerClient;
    PendingOp op;
};

} // namespace

RoundResult
runKvYcsbA(const RoundContext &ctx)
{
    RoundResult res;
    const std::uint64_t setup0 = cpuNs();
    ModelConfig cfg = ModelConfig::prototype();
    cfg.seed = ctx.seed;

    std::unique_ptr<Cluster> owner;
    std::vector<std::shared_ptr<ClioKvOffload>> kv;
    std::vector<NodeId> mn_nodes;
    std::vector<Client> clients;
    std::vector<KeyState> keys(kKeys);
    std::uint64_t create_ns = 0;
    {
        ScopedSpan span(ctx.tracer, "setup");
        owner = std::make_unique<Cluster>(
            cfg, ClusterSpec{1, kCns, kMns, 0, 64});
        Cluster &cluster = *owner;
        for (std::uint32_t m = 0; m < kMns; m++) {
            kv.push_back(std::make_shared<ClioKvOffload>(kBuckets));
            cluster.mn(m).registerOffload(
                ClioKvOffload::descriptor(kOffloadId), kv.back());
            mn_nodes.push_back(cluster.mn(m).nodeId());
        }
        for (std::uint32_t c = 0; c < kClients; c++) {
            const std::uint64_t t0 = wallNs();
            ClioClient &client = cluster.createClient(c % kCns);
            create_ns += wallNs() - t0;
            Client cl;
            cl.client = &client;
            cl.gen = std::make_unique<YcsbGenerator>(
                kKeys, YcsbWorkload::kA, true, 0.99,
                streamSeed(ctx.seed, c));
            clients.push_back(std::move(cl));
            if (ctx.rec)
                ctx.rec->pids.push_back(client.pid());
        }

        // Preload every key at version 0: client c puts keys c, c+16,
        // ... with a window of kPreloadWindow.
        ActorLoop loader(cluster.eventQueue(), nullptr, nullptr);
        std::vector<std::uint64_t> next(kClients);
        const auto stagePreload = [&](std::uint32_t c) {
            SubmissionBatch batch(*clients[c].client);
            for (std::uint32_t i = 0;
                 i < kPreloadWindow && next[c] < kKeys; i++) {
                const std::uint64_t k = next[c];
                next[c] += kClients;
                const std::string key = YcsbGenerator::keyString(k);
                batch.offload(mn_nodes[ClioKvOffload::hashKey(key) % kMns],
                              kOffloadId,
                              kvEncode(KvOp::kPut, key, encodeValue(k, 0)));
            }
            if (!batch.empty())
                loader.submit(c, batch);
        };
        for (std::uint32_t c = 0; c < kClients; c++) {
            next[c] = c;
            stagePreload(c);
        }
        std::vector<Completion> done;
        while (loader.pump(done)) {
            for (const Completion &c : done) {
                if (!c.ok())
                    res.fail("kv-ycsb-a: preload put failed");
            }
            // A client's batch is done when it has nothing outstanding;
            // the loader tracks that per actor through its tags.
            for (const Completion &c : done) {
                const std::uint32_t a = ActorLoop::actorOf(c.tag);
                if (clients[a].client->outstanding() == 0)
                    stagePreload(a);
            }
        }
        for (KeyState &k : keys)
            k.done_at.assign(1, cluster.eventQueue().now());
    }
    Cluster &cluster = *owner;
    EventQueue &eq = cluster.eventQueue();
    res.setup_cpu_s = static_cast<double>(cpuNs() - setup0) / 1e9;
    if (ctx.tracer)
        res.create_client_us = static_cast<double>(create_ns) / 1e3 / kClients;
    if (ctx.rec) {
        ctx.rec->offload_id = kOffloadId;
        ctx.rec->offload_mn = 0;
    }

    std::uint64_t puts = 0;
    std::uint64_t slabs0 = 0;
    for (const auto &o : kv)
        slabs0 += o->slabsAllocated();

    const LayerSnapshot before = LayerSnapshot::take(cluster);
    cluster.network().resetStats();
    const std::uint64_t cpu0 = cpuNs();
    const std::uint64_t wall0 = wallNs();
    res.latencies.reserve(kClients * kOpsPerClient);
    {
        ScopedSpan span(ctx.tracer, "timed");
        ActorLoop loop(eq, ctx.tracer, ctx.rec);
        const Tick t0 = eq.now();
        SubmissionBatch batch;
        const auto issue = [&](std::uint32_t c) {
            Client &cl = clients[c];
            const YcsbOp y = cl.gen->next();
            PendingOp &op = cl.op;
            op.is_put = y.is_set;
            op.key = y.key_index;
            KeyState &ks = keys[op.key];
            const std::string key = YcsbGenerator::keyString(op.key);
            std::vector<std::uint8_t> arg;
            if (op.is_put) {
                op.version = ks.done_at.size();
                ks.done_at.push_back(kTickMax);
                arg = kvEncode(KvOp::kPut, key,
                               encodeValue(op.key, op.version));
            } else {
                op.floor = ks.last_completed_issue;
                arg = kvEncode(KvOp::kGet, key);
            }
            const std::uint32_t mn = ClioKvOffload::hashKey(key) % kMns;
            if (ctx.rec && mn == ctx.rec->offload_mn &&
                ctx.rec->offload_args.size() < Recording::kMaxOffloadArgs)
                ctx.rec->offload_args.push_back(arg);
            batch = SubmissionBatch(*cl.client);
            batch.offload(mn_nodes[mn], kOffloadId, std::move(arg),
                          op.is_put ? 64 : kReplyBytes);
            loop.submit(c, batch);
        };
        for (std::uint32_t c = 0; c < kClients; c++)
            issue(c);
        std::vector<Completion> done;
        while (loop.pump(done)) {
            for (const Completion &c : done) {
                const std::uint32_t ci = ActorLoop::actorOf(c.tag);
                Client &cl = clients[ci];
                const PendingOp &op = cl.op;
                const Tick issued = loop.issuedAt(ci);
                res.attempted++;
                res.latencies.push_back(c.completed_at - issued);
                KeyState &ks = keys[op.key];
                if (!c.ok()) {
                    res.failed++;
                } else if (op.is_put) {
                    puts++;
                    ks.done_at[op.version] = c.completed_at;
                    ks.last_completed_issue =
                        std::max(ks.last_completed_issue, issued);
                } else {
                    std::uint64_t key = 0;
                    std::uint64_t version = 0;
                    if (c.value != 1 || !decodeValue(c.data, key, version)) {
                        res.fail("kv-ycsb-a: get returned no value or a "
                                 "value whose checksum fails");
                    } else if (key != op.key ||
                               version >= ks.done_at.size()) {
                        res.fail("kv-ycsb-a: get returned a value no put "
                                 "wrote for that key");
                    } else if (ks.done_at[version] < op.floor) {
                        res.fail("kv-ycsb-a: get returned a value older "
                                 "than a put that completed before it");
                    }
                }
                if (--cl.ops_left > 0)
                    issue(ci);
                else
                    res.actorRetired(eq.now() - t0);
            }
        }
        finishTimedPhase(cluster, before, loop, cpu0, wall0, res);
    }
    std::uint64_t slabs1 = 0;
    for (const auto &o : kv)
        slabs1 += o->slabsAllocated();
    // Slabs are 4 MiB; every put writes out of place into them.
    res.counters["kv.slab_bytes_per_put"] =
        puts ? static_cast<double>((slabs1 - slabs0) * 4 * MiB) / puts : 0;

    if (ctx.rec)
        runReplays(cluster, *ctx.rec, ctx.seed, ctx.tracer, res.replays);
    return res;
}

} // namespace perfbench
