/**
 * @file
 * Batched submission + completion queues for the CLib surface — the
 * idiom RDMA verbs and io_uring converged on, applied to Clio.
 *
 * A SubmissionBatch stages N requests and admits them to the client's
 * ordering layer (§4.5 T2) in one doorbell; WAR/RAW/WAW conflicts
 * *between batch members* are enforced exactly like between loose
 * async requests, so a batch may legally contain dependent ops.
 *
 * A CompletionQueue collects completions of submitted (or individually
 * watched) handles and delivers them in completion order — which the
 * deterministic event core makes reproducible — via poll() (already
 * delivered) or rpoll_cq() (pump the simulation until one arrives).
 * Delivery is single-shot by construction: a handle carries a latch
 * that deliver() consumes, so double completion cannot re-fire a
 * continuation and user code never mutates callbacks on handles.
 */

#ifndef CLIO_CLIB_QUEUE_HH
#define CLIO_CLIB_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "clib/client.hh"
#include "sim/event_queue.hh"

namespace clio {

/** One delivered completion. */
struct Completion
{
    /** Caller tag from watch()/submit() (e.g. a batch op index). */
    std::uint64_t tag = 0;
    Status status = Status::kOk;
    /** Scalar result (allocated VA, atomic old value, offload value). */
    std::uint64_t value = 0;
    /** Offload result payload (moved off the handle at delivery). */
    std::vector<std::uint8_t> data;
    /** Simulated time the request completed (not when it was polled). */
    Tick completed_at = 0;

    bool ok() const { return status == Status::kOk; }

    /** Scalar result as a typed Result. */
    Result<std::uint64_t> result() const
    {
        if (status != Status::kOk)
            return status;
        return value;
    }
};

/**
 * Collects completions of asynchronous requests. Must outlive every
 * handle registered on it. Not tied to one client: requests from
 * several clients sharing one EventQueue may deliver into one CQ
 * (how the closed-loop runner multiplexes actors).
 */
class CompletionQueue
{
  public:
    explicit CompletionQueue(EventQueue &eq) : eq_(eq) {}
    CompletionQueue(const CompletionQueue &) = delete;
    CompletionQueue &operator=(const CompletionQueue &) = delete;
    /** Watched handles keep a raw pointer to their queue, so tearing
     * one down with watches outstanding would leave them dangling:
     * panic loudly instead of use-after-free later. */
    ~CompletionQueue()
    {
        clio_assert(outstanding_ == 0,
                    "completion queue destroyed with %zu watched "
                    "requests outstanding",
                    outstanding_);
    }

    /**
     * Register a handle: its completion is delivered here exactly
     * once, tagged `tag`. A handle can be bound to at most one queue;
     * an already-completed handle is delivered immediately.
     */
    void watch(const HandlePtr &handle, std::uint64_t tag);

    /** Completions delivered and not yet popped. */
    std::size_t ready() const { return ready_.size(); }

    /** Watched handles whose completion has not arrived yet. */
    std::size_t outstanding() const { return outstanding_; }

    /** Pop up to `max_n` already-delivered completions (no pumping),
     * in completion order. */
    std::vector<Completion> poll(std::size_t max_n);

    /**
     * Pump the simulation until at least one completion is available,
     * then pop up to `max_n` in completion order. Returns empty only
     * when nothing is outstanding (so a drained workload terminates
     * instead of deadlocking).
     */
    std::vector<Completion> rpoll_cq(std::size_t max_n);

    /**
     * Deliver a handle's completion into its bound queue (or this one
     * when unbound). Internal — the client calls this when a request
     * finishes — but callable from tests: it is idempotent, so double
     * completion cannot re-fire a continuation or duplicate an entry.
     */
    void deliver(const HandlePtr &handle);

    /**
     * Install a hook scheduled (as a zero-delay event, so it never
     * re-enters client internals mid-completion) after completions are
     * delivered; at most one pending invocation at a time. This is
     * what lets a poll-driven state machine (e.g. the auto-resync
     * engine) advance event-driven instead of busy-polling.
     */
    void setDrainHook(std::function<void()> hook)
    {
        drain_hook_ = std::move(hook);
    }

  private:
    EventQueue &eq_;
    std::deque<Completion> ready_;
    std::size_t outstanding_ = 0;
    std::function<void()> drain_hook_;
    bool drain_scheduled_ = false;
    /** Expiry token for the scheduled drain event (it captures
     * `this`; destruction must make a pending event inert). */
    std::shared_ptr<const bool> alive_token_ =
        std::make_shared<const bool>(true);
};

/**
 * Stages N requests and submits them in one doorbell. Staging does no
 * I/O: write payloads are copied at staging time, but read buffers
 * must outlive completion. A batch is single-use — stage, submit,
 * discard.
 */
class SubmissionBatch
{
  public:
    /** Empty shell (e.g. inside ActorStep); unusable until assigned
     * from a real batch. */
    SubmissionBatch() = default;
    explicit SubmissionBatch(ClioClient &client) : client_(&client) {}
    SubmissionBatch(SubmissionBatch &&) = default;
    SubmissionBatch &operator=(SubmissionBatch &&) = default;
    SubmissionBatch(const SubmissionBatch &) = delete;
    SubmissionBatch &operator=(const SubmissionBatch &) = delete;

    /** @{ Staging. Each returns the op's index within the batch (its
     * completion tag offset). Arguments mirror the async API. */
    std::size_t read(VirtAddr addr, void *buf, std::uint64_t len);
    std::size_t write(VirtAddr addr, const void *src, std::uint64_t len);
    std::size_t alloc(std::uint64_t size,
                      std::uint8_t perm = kPermReadWrite,
                      bool populate = false, NodeId mn_override = 0);
    std::size_t free(VirtAddr addr);
    std::size_t atomic(VirtAddr addr, AtomicOp op,
                       std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);
    std::size_t fence();
    std::size_t offload(NodeId mn, std::uint32_t offload_id,
                        std::vector<std::uint8_t> arg,
                        std::uint64_t expected_resp_bytes = 256);
    /** @} */

    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    /**
     * One doorbell: admit every staged op to the ordering layer in
     * staging order. Completions are delivered to `cq` tagged
     * base_tag + tag_stride * index (stride 0 = one tag for the whole
     * batch, e.g. an actor id).
     */
    void submit(CompletionQueue &cq, std::uint64_t base_tag = 0,
                std::uint64_t tag_stride = 1);

    /** Submit, then pump the simulation until every op completes.
     * @return completions indexed by staged-op order. */
    struct Outcome
    {
        /** completions[i] belongs to staged op i. */
        std::vector<Completion> completions;
        /** First non-Ok status in staging order (kOk if none). */
        Status status = Status::kOk;
        bool ok() const { return status == Status::kOk; }
    };
    Outcome submitAndWait();

  private:
    /** One staged request: the async call's kind and arguments, issued
     * in staging order at submit(). */
    struct StagedOp
    {
        enum class Kind : std::uint8_t
        {
            kRead,
            kWrite,
            kAlloc,
            kFree,
            kAtomic,
            kFence,
            kOffload,
        };
        Kind kind = Kind::kFence;
        /** Alloc permission bits. */
        std::uint8_t perm = 0;
        /** Alloc: bind frames eagerly. */
        bool populate = false;
        AtomicOp aop = AtomicOp::kTestAndSet;
        /** Alloc MN override / offload target MN. */
        NodeId mn = 0;
        std::uint32_t offload_id = 0;
        VirtAddr addr = 0;
        /** Read/write length, alloc size, or offload response hint. */
        std::uint64_t len = 0;
        std::uint64_t arg0 = 0;
        std::uint64_t arg1 = 0;
        /** Read destination (must outlive completion). */
        void *buf = nullptr;
        /** Write payload (copied at staging) or offload argument. */
        std::vector<std::uint8_t> bytes;
    };

    /** Append a staged op of `kind`; @return it (valid until the next
     * staging call). */
    StagedOp &stage(StagedOp::Kind kind);
    HandlePtr issue(StagedOp &op);

    ClioClient *client_ = nullptr;
    std::vector<StagedOp> ops_;
    bool submitted_ = false;
};

using BatchOutcome = SubmissionBatch::Outcome;

} // namespace clio

#endif // CLIO_CLIB_QUEUE_HH
