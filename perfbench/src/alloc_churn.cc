/**
 * @file
 * alloc-churn: several processes ralloc and rfree regions of 1-8 pages
 * on one MN, holding its frame utilization (async-buffer reserve
 * included) between 70% and 95%. Every new region is touched once per
 * page, which faults pages in through the async buffer, and then read
 * back. After every rfree the process reads the freed range, which must
 * fail. At the end, each process's VaAllocator::allocatedBytes must
 * equal the benchmark's own sum of its live regions.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "layers.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using namespace clio;

constexpr std::uint32_t kCns = 2;
constexpr std::uint32_t kProcs = 8;
constexpr std::uint32_t kMaxPages = 8;
constexpr std::uint32_t kStepsPerProc = 5000;
constexpr std::uint32_t kTouchBytes = 64;
/** Utilization band, as a share of the MN's frames. */
constexpr double kLow = 0.70;
constexpr double kHigh = 0.95;

enum class Phase : std::uint8_t { kAlloc, kTouch, kVerify, kFree, kProbe };

struct Proc
{
    ClioClient *client = nullptr;
    Rng rng;
    std::uint32_t steps_left = kStepsPerProc;
    Phase phase = Phase::kAlloc;
    std::uint32_t pending = 0;
    /** Live regions: start -> pages. */
    std::map<VirtAddr, std::uint32_t> live;
    /** Region of the step in progress. */
    VirtAddr region = 0;
    std::uint32_t pages = 0;
    /** Touch offsets and payloads of the region being checked. */
    std::vector<std::uint64_t> touch_off;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> readback;
    std::uint8_t probe[16] = {};
};

class Churn
{
  public:
    Churn(Cluster &cluster, ActorLoop &loop, RoundResult &res,
          Recording *rec)
        : loop_(loop), res_(res), rec_(rec),
          page_(cluster.config().page_table.page_size),
          t0_(cluster.eventQueue().now()),
          frames_(cluster.mn(0).frames().totalFrames()),
          reserve_(std::min<std::uint64_t>(
              cluster.config().slow_path.async_buffer_pages, frames_ / 4))
    {
    }

    std::vector<Proc> procs;
    /** Pages committed: live plus allocations in flight. */
    std::uint64_t committed = 0;

    /** When set, a process starts its next step as soon as one ends,
     * until it has done kStepsPerProc; otherwise it idles after each. */
    bool chain = true;

    /** Start the next step of process `i`. */
    void
    next(std::uint32_t i)
    {
        Proc &p = procs[i];
        if (chain) {
            if (p.steps_left == 0) {
                res_.actorRetired(loop_.now() - t0_);
                return;
            }
            p.steps_left--;
        }
        const double util = utilization();
        // Allocate with a probability that falls from 1 at the low edge
        // of the band to 0 at the high edge.
        const double p_alloc =
            std::clamp((kHigh - util) / (kHigh - kLow), 0.0, 1.0);
        std::uint32_t pages =
            1 + static_cast<std::uint32_t>(p.rng.uniformInt(kMaxPages));
        const bool fits = committed + reserve_ + pages <= kHigh * frames_;
        const bool alloc =
            p.live.empty() || (fits && p.rng.uniformDouble() < p_alloc);
        SubmissionBatch batch(*p.client);
        if (alloc) {
            if (!fits)
                pages = 1; // the process holds nothing: take one page
            p.phase = Phase::kAlloc;
            p.pages = pages;
            committed += pages;
            batch.alloc(pages * page_);
            if (rec_)
                rec_->allocs.push_back(AllocRec{p.client->pid(),
                                                pages * page_, 0});
        } else {
            const auto pick =
                static_cast<std::uint32_t>(p.rng.uniformInt(p.live.size()));
            auto it = p.live.begin();
            std::advance(it, pick);
            p.phase = Phase::kFree;
            p.region = it->first;
            p.pages = it->second;
            batch.free(p.region);
            if (rec_)
                rec_->allocs.push_back(AllocRec{p.client->pid(), 0, pick});
        }
        submit(i, batch);
    }

    /** Committed pages plus the async-buffer reserve, over all frames. */
    double
    utilization() const
    {
        return static_cast<double>(committed + reserve_) / frames_;
    }

    void
    onCompletion(const Completion &c)
    {
        const std::uint32_t i = ActorLoop::actorOf(c.tag);
        const std::uint32_t op = ActorLoop::opOf(c.tag);
        Proc &p = procs[i];
        res_.attempted++;
        res_.latencies.push_back(c.completed_at - loop_.issuedAt(i));
        // The read of a freed range must fail; every other op must not.
        if (p.phase == Phase::kProbe) {
            if (c.ok())
                res_.fail("alloc-churn: read of a freed range succeeded");
        } else if (!c.ok()) {
            res_.failed++;
        } else if (p.phase == Phase::kAlloc) {
            checkAlloc(p, c.value);
        } else if (p.phase == Phase::kVerify &&
                   std::memcmp(p.readback.data() + op * kTouchBytes,
                               p.payload.data() + op * kTouchBytes,
                               kTouchBytes) != 0) {
            res_.fail("alloc-churn: touched page read back other bytes");
        }
        if (--p.pending > 0)
            return;
        advance(i, c.ok());
    }

  private:
    void
    submit(std::uint32_t i, SubmissionBatch &batch)
    {
        procs[i].pending = static_cast<std::uint32_t>(batch.size());
        loop_.submit(i, batch);
    }

    void
    checkAlloc(Proc &p, VirtAddr addr)
    {
        const VirtAddr end = addr + p.pages * page_;
        if (addr % page_ != 0)
            res_.fail("alloc-churn: ralloc returned an unaligned range");
        auto it = p.live.lower_bound(addr);
        const bool overlaps_next = it != p.live.end() && it->first < end;
        const bool overlaps_prev =
            it != p.live.begin() &&
            std::prev(it)->first + std::prev(it)->second * page_ > addr;
        if (overlaps_next || overlaps_prev)
            res_.fail("alloc-churn: ralloc overlapped a live range");
        p.region = addr;
    }

    /** Move process `i` to the phase after the one that completed. */
    void
    advance(std::uint32_t i, bool ok)
    {
        Proc &p = procs[i];
        SubmissionBatch batch(*p.client);
        switch (p.phase) {
          case Phase::kAlloc:
            if (!ok) {
                committed -= p.pages;
                break;
            }
            p.live[p.region] = p.pages;
            p.phase = Phase::kTouch;
            p.touch_off.resize(p.pages);
            p.payload.resize(p.pages * kTouchBytes);
            p.readback.assign(p.pages * kTouchBytes, 0);
            for (std::uint32_t k = 0; k < p.pages; k++) {
                p.touch_off[k] =
                    k * page_ + p.rng.uniformInt(1024) * kTouchBytes;
                for (std::uint32_t b = 0; b < kTouchBytes; b += 8) {
                    const std::uint64_t v = p.rng.next();
                    std::memcpy(&p.payload[k * kTouchBytes + b], &v, 8);
                }
                batch.write(p.region + p.touch_off[k],
                            &p.payload[k * kTouchBytes], kTouchBytes);
                record(p, p.touch_off[k], true);
            }
            submit(i, batch);
            return;
          case Phase::kTouch:
            p.phase = Phase::kVerify;
            for (std::uint32_t k = 0; k < p.pages; k++) {
                batch.read(p.region + p.touch_off[k],
                           &p.readback[k * kTouchBytes], kTouchBytes);
                record(p, p.touch_off[k], false);
            }
            submit(i, batch);
            return;
          case Phase::kFree:
            if (ok) {
                p.live.erase(p.region);
                committed -= p.pages;
            }
            p.phase = Phase::kProbe;
            batch.read(p.region, p.probe, sizeof(p.probe));
            submit(i, batch);
            return;
          case Phase::kVerify:
          case Phase::kProbe:
            break;
        }
        if (chain)
            next(i);
    }

    void
    record(const Proc &p, std::uint64_t off, bool is_write)
    {
        if (rec_)
            rec_->access(AccessRec{0, p.client->pid(), p.region + off,
                                   kTouchBytes, is_write});
    }

    ActorLoop &loop_;
    RoundResult &res_;
    Recording *rec_;
    std::uint64_t page_;
    Tick t0_;
    std::uint64_t frames_;
    std::uint64_t reserve_;
};

/** Drive every process until it has nothing outstanding. */
void
drain(ActorLoop &loop, Churn &churn)
{
    std::vector<Completion> done;
    while (loop.pump(done)) {
        for (const Completion &c : done)
            churn.onCompletion(c);
    }
}

} // namespace

RoundResult
runAllocChurn(const RoundContext &ctx)
{
    RoundResult res;
    const std::uint64_t setup0 = cpuNs();
    ModelConfig cfg = ModelConfig::prototype();
    cfg.seed = ctx.seed;

    std::unique_ptr<Cluster> owner;
    std::vector<Proc> procs;
    std::uint64_t create_ns = 0;
    {
        ScopedSpan span(ctx.tracer, "setup");
        owner = std::make_unique<Cluster>(cfg, ClusterSpec{1, kCns, 1, 0, 64});
        for (std::uint32_t i = 0; i < kProcs; i++) {
            const std::uint64_t t0 = wallNs();
            ClioClient &client = owner->createClient(i % kCns);
            create_ns += wallNs() - t0;
            Proc p;
            p.client = &client;
            p.rng = Rng(streamSeed(ctx.seed, i));
            procs.push_back(std::move(p));
            if (ctx.rec)
                ctx.rec->pids.push_back(client.pid());
        }
    }
    Cluster &cluster = *owner;
    EventQueue &eq = cluster.eventQueue();

    // Set-up fills the MN to the low edge of the band with the same
    // alloc/touch/verify steps, untimed and untraced.
    std::uint64_t committed = 0;
    {
        ScopedSpan span(ctx.tracer, "setup.fill");
        RoundResult scratch;
        ActorLoop filler(eq, nullptr, nullptr);
        Churn fill(cluster, filler, scratch, nullptr);
        fill.procs = std::move(procs);
        fill.chain = false;
        while (fill.utilization() < kLow) {
            for (std::uint32_t i = 0; i < kProcs; i++)
                fill.next(i);
            drain(filler, fill);
        }
        if (!scratch.correct || scratch.failed)
            res.fail("alloc-churn: set-up fill failed: " + scratch.error);
        procs = std::move(fill.procs);
        committed = fill.committed;
    }
    res.setup_cpu_s = static_cast<double>(cpuNs() - setup0) / 1e9;
    if (ctx.tracer)
        res.create_client_us = static_cast<double>(create_ns) / 1e3 / kProcs;

    const LayerSnapshot before = LayerSnapshot::take(cluster);
    cluster.network().resetStats();
    const std::uint64_t cpu0 = cpuNs();
    const std::uint64_t wall0 = wallNs();
    {
        ScopedSpan span(ctx.tracer, "timed");
        ActorLoop loop(eq, ctx.tracer, ctx.rec);
        Churn churn(cluster, loop, res, ctx.rec);
        churn.committed = committed;
        churn.procs = std::move(procs);
        for (std::uint32_t i = 0; i < kProcs; i++)
            churn.next(i);
        drain(loop, churn);
        finishTimedPhase(cluster, before, loop, cpu0, wall0, res);
        procs = std::move(churn.procs);
    }

    {
        ScopedSpan span(ctx.tracer, "check");
        const std::uint64_t page = cfg.page_table.page_size;
        for (const Proc &p : procs) {
            std::uint64_t bytes = 0;
            for (const auto &[start, pages] : p.live)
                bytes += pages * page;
            if (cluster.mn(0).vaAllocator().allocatedBytes(
                    p.client->pid()) != bytes)
                res.fail("alloc-churn: VaAllocator::allocatedBytes differs "
                         "from the sum of live allocations");
        }
    }
    if (ctx.rec)
        runReplays(cluster, *ctx.rec, ctx.seed, ctx.tracer, res.replays);
    return res;
}

} // namespace perfbench
