/**
 * @file
 * rw-fabric: a 2-rack leaf/spine cluster with hundreds of processes,
 * each running a small closed-loop SubmissionBatch window of reads and
 * writes (16 B to 4 KiB) on its own region. A quarter of the actors
 * attach with createSharedClient to a process homed in the other rack,
 * so the aggregation and spine stages carry traffic. Each MN holds
 * more live pages than its 1024-entry TLB, but every page is touched
 * only inside its first 16 KiB, so the host keeps one 64 KiB chunk per
 * page. Every read is checked against a shadow copy of the region, and
 * every touched window is read back after the run.
 */

#include <cstring>
#include <memory>

#include "layers.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using namespace clio;

constexpr std::uint32_t kRacks = 2;
constexpr std::uint32_t kCnsPerRack = 4;
/** Processes per CN that own their region, and actors per CN attached
 * to a process of the other rack. */
constexpr std::uint32_t kOwnPerCn = 24;
constexpr std::uint32_t kSharedPerCn = 8;
constexpr std::uint32_t kPagesPerActor = 10;
/** Bytes touched at the start of every page. */
constexpr std::uint64_t kWindowBytes = 16 * KiB;
constexpr std::uint32_t kBatchOps = 2;
constexpr std::uint32_t kBatchesPerActor = 400;
/** Mean simulated think time before each batch: about 70% of the
 * MN links' capacity is offered, so queues form without collapsing. */
constexpr std::uint64_t kThinkUs = 200;
/** Per-MN DRAM: room for every actor's pages (above TLB reach). */
constexpr std::uint64_t kMnBytes = 8 * GiB;
constexpr std::uint32_t kSizes[] = {16, 64, 256, 1024, 4096};

struct PendingOp
{
    bool is_write = false;
    VirtAddr addr = 0;
    std::uint32_t size = 0;
    std::vector<std::uint8_t> buf;
    std::vector<std::uint8_t> expect;
};

struct Actor
{
    ClioClient *client = nullptr;
    VirtAddr base = 0;
    std::uint32_t mn = 0;
    Rng rng;
    /** kPagesPerActor windows of kWindowBytes, as last written. */
    std::vector<std::uint8_t> shadow;
    std::uint32_t batches_left = kBatchesPerActor;
    std::uint32_t pending = 0;
    PendingOp ops[kBatchOps];
};

void
fillRandom(Rng &rng, std::uint8_t *dst, std::uint32_t len)
{
    for (std::uint32_t i = 0; i < len; i += 8) {
        const std::uint64_t v = rng.next();
        std::memcpy(dst + i, &v, std::min<std::uint32_t>(8, len - i));
    }
}

/** Think time before an actor's next batch: uniform in
 * [0, 2 * kThinkUs], so the mean offered load is fixed. */
Tick
think(Actor &a)
{
    return a.rng.uniformInt(2 * kThinkUs * kMicrosecond);
}

void
stage(Actor &a, std::uint64_t page_size, SubmissionBatch &batch,
      Recording *rec)
{
    batch = SubmissionBatch(*a.client);
    for (std::uint32_t i = 0; i < kBatchOps; i++) {
        PendingOp &op = a.ops[i];
        op.is_write = a.rng.chance(0.5);
        op.size = kSizes[a.rng.uniformInt(std::size(kSizes))];
        const std::uint64_t page = a.rng.uniformInt(kPagesPerActor);
        const std::uint64_t slot = a.rng.uniformInt(kWindowBytes / op.size);
        const std::uint64_t off = page * kWindowBytes + slot * op.size;
        op.addr = a.base + page * page_size + slot * op.size;
        op.buf.resize(op.size);
        if (op.is_write) {
            fillRandom(a.rng, op.buf.data(), op.size);
            std::memcpy(a.shadow.data() + off, op.buf.data(), op.size);
            batch.write(op.addr, op.buf.data(), op.size);
        } else {
            // CLib orders this read after any earlier conflicting write
            // of the batch, so the shadow as of now is the exact answer.
            op.expect.assign(a.shadow.begin() + off,
                             a.shadow.begin() + off + op.size);
            batch.read(op.addr, op.buf.data(), op.size);
        }
        if (rec) {
            rec->access(AccessRec{a.mn, a.client->pid(), op.addr, op.size,
                                  op.is_write});
        }
    }
}

} // namespace

RoundResult
runRwFabric(const RoundContext &ctx)
{
    RoundResult res;
    const std::uint64_t setup0 = cpuNs();
    ModelConfig cfg = ModelConfig::prototype();
    cfg.seed = ctx.seed;
    const std::uint64_t page_size = cfg.page_table.page_size;
    const std::uint64_t region_bytes = kPagesPerActor * page_size;

    std::vector<Actor> actors;
    std::uint64_t create_ns = 0;
    std::uint32_t creates = 0;
    std::unique_ptr<Cluster> owner;
    {
        ScopedSpan span(ctx.tracer, "setup");
        owner = std::make_unique<Cluster>(
            cfg, ClusterSpec{kRacks, kCnsPerRack, 1, kMnBytes, 64});
        Cluster &cluster = *owner;
        const std::uint32_t cns = kRacks * kCnsPerRack;
        // partner[cn][k]: the k-th process of CN `cn`, whose second
        // region a shared actor in the other rack works on.
        std::vector<std::vector<std::pair<ClioClient *, VirtAddr>>> partner(
            cns);
        for (std::uint32_t cn = 0; cn < cns; cn++) {
            for (std::uint32_t k = 0; k < kOwnPerCn; k++) {
                const std::uint64_t t0 = wallNs();
                ClioClient &client = cluster.createClient(cn);
                create_ns += wallNs() - t0;
                creates++;
                const auto own = client.ralloc(region_bytes, kPermReadWrite,
                                               /*populate=*/true);
                if (!own) {
                    res.fail("rw-fabric: set-up ralloc failed");
                    return res;
                }
                Actor a;
                a.client = &client;
                a.base = *own;
                actors.push_back(std::move(a));
                if (k < kSharedPerCn) {
                    const auto extra = client.ralloc(
                        region_bytes, kPermReadWrite, /*populate=*/true);
                    if (!extra) {
                        res.fail("rw-fabric: set-up ralloc failed");
                        return res;
                    }
                    partner[cn].push_back({&client, *extra});
                }
            }
        }
        for (std::uint32_t cn = 0; cn < cns; cn++) {
            // The same CN slot in the other rack.
            const std::uint32_t peer = (cn + kCnsPerRack) % cns;
            for (const auto &[base, region] : partner[peer]) {
                const std::uint64_t t0 = wallNs();
                ClioClient &client = cluster.createSharedClient(cn, *base);
                create_ns += wallNs() - t0;
                creates++;
                Actor a;
                a.client = &client;
                a.base = region;
                actors.push_back(std::move(a));
            }
        }
        for (std::uint32_t i = 0; i < actors.size(); i++) {
            Actor &a = actors[i];
            a.mn = cluster.mnIndexOf(a.client->mnFor(a.base));
            a.rng = Rng(streamSeed(ctx.seed, i));
            a.shadow.assign(kPagesPerActor * kWindowBytes, 0);
            if (ctx.rec)
                ctx.rec->pids.push_back(a.client->pid());
        }
    }
    Cluster &cluster = *owner;
    res.setup_cpu_s = static_cast<double>(cpuNs() - setup0) / 1e9;
    if (ctx.tracer)
        res.create_client_us = static_cast<double>(create_ns) / 1e3 / creates;

    EventQueue &eq = cluster.eventQueue();
    const LayerSnapshot before = LayerSnapshot::take(cluster);
    cluster.network().resetStats();
    const std::uint64_t cpu0 = cpuNs();
    const std::uint64_t wall0 = wallNs();
    res.latencies.reserve(actors.size() * kBatchesPerActor * kBatchOps);
    {
        ScopedSpan span(ctx.tracer, "timed");
        ActorLoop loop(eq, ctx.tracer, ctx.rec);
        const Tick t0 = eq.now();
        SubmissionBatch batch;
        // Staggered start: each actor first thinks, so the round does
        // not open with every actor's batch in one burst.
        for (std::uint32_t i = 0; i < actors.size(); i++)
            loop.sleep(i, think(actors[i]));
        std::vector<Completion> done;
        while (loop.pump(done)) {
            for (const Completion &c : done) {
                const std::uint32_t ai = ActorLoop::actorOf(c.tag);
                Actor &a = actors[ai];
                PendingOp &op = a.ops[ActorLoop::opOf(c.tag)];
                res.attempted++;
                res.latencies.push_back(c.completed_at -
                                        loop.issuedAt(ai));
                if (!c.ok()) {
                    res.failed++;
                } else if (!op.is_write &&
                           op.buf != op.expect) {
                    res.fail("rw-fabric: read returned bytes that differ "
                             "from the shadow copy");
                }
                if (--a.pending > 0)
                    continue;
                if (--a.batches_left > 0)
                    loop.sleep(ai, think(a));
                else
                    res.actorRetired(eq.now() - t0);
            }
            for (const std::uint32_t ai : loop.woken()) {
                stage(actors[ai], page_size, batch, ctx.rec);
                actors[ai].pending = kBatchOps;
                loop.submit(ai, batch);
            }
        }
        finishTimedPhase(cluster, before, loop, cpu0, wall0, res);
    }

    {
        // Read back every touched window and compare with the shadow.
        ScopedSpan span(ctx.tracer, "check");
        std::vector<std::uint8_t> buf(kWindowBytes);
        for (const Actor &a : actors) {
            for (std::uint32_t p = 0; p < kPagesPerActor; p++) {
                const Status st = a.client->rread(a.base + p * page_size,
                                                  buf.data(), kWindowBytes);
                if (st != Status::kOk ||
                    std::memcmp(buf.data(),
                                a.shadow.data() + p * kWindowBytes,
                                kWindowBytes) != 0) {
                    res.fail("rw-fabric: read-back after the run differs "
                             "from the shadow copy");
                }
            }
        }
    }
    if (ctx.rec)
        runReplays(cluster, *ctx.rec, ctx.seed, ctx.tracer, res.replays);
    return res;
}

} // namespace perfbench
