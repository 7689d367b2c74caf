/**
 * @file
 * Cooperative cancellation and deadline propagation.
 *
 * Every long-running path in the repository — grid sweeps, the
 * branch-and-bound optimizer, term-cache priming, the Monte-Carlo
 * replicator, the simulator schedules — runs to completion once
 * started unless it observes a CancelToken.  This header provides
 * that substrate:
 *
 *  - Clock / ManualClock: a monotonic time source with a test seam.
 *    Deadlines read a Clock so tests inject time deterministically
 *    instead of sleeping.
 *  - Deadline: an absolute monotonic expiry ("no later than now +
 *    750 ms"), or never().
 *  - CancelToken: a shared stop request combining three triggers —
 *    explicit cancel(), deadline expiry, and a cancelled parent
 *    token (child() composes; a request trips the whole subtree).
 *  - RunStatus: the structured outcome threaded through every
 *    cancellable API.  Completed means the work ran to the end;
 *    Cancelled / DeadlineExceeded mean it stopped at a checkpoint
 *    with a *deterministic* partial result.
 *
 * Checkpoint discipline (the determinism contract, DESIGN.md
 * "Cancellation and overload control"): work only observes the token
 * at coarse, thread-count-independent boundaries — between sweep
 * blocks, between optimizer waves, between Monte-Carlo replication
 * blocks — via checkpoint().  Cancellation therefore never tears a
 * result: a cancelled sweep's populated prefix is bit-identical to
 * the same prefix of a full run at every thread count.  status() is
 * the passive query for finer-grained abort (e.g. between
 * parallelFor chunks) where no partial result is produced.
 *
 * Zero-cost when unused: a default-constructed token is inert —
 * checkpoint() is a null check returning Completed, no metrics are
 * touched, no clock is read.  Code paths thread `const CancelToken &`
 * with a `{}` default and pay nothing until a caller installs one.
 *
 * Signal safety: cancel() performs only lock-free atomic stores and
 * a CLOCK_MONOTONIC read, so a SIGINT handler may call it directly
 * (the CLI's Ctrl-C path).  The metric handles it updates are
 * resolved at make() time, outside signal context.
 *
 * Observability (`common.cancel.*` in the metrics registry):
 *   tokens          tokens created (make + child)
 *   requests        explicit cancel() calls that tripped a token
 *   checkpoints     checkpoint() polls on live tokens
 *   observed        first observations of a stop at a checkpoint
 *   latency_seconds histogram of request-to-first-observation time
 */

#ifndef AMPED_COMMON_CANCEL_HPP
#define AMPED_COMMON_CANCEL_HPP

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

namespace amped {

namespace obs {
class MetricsRegistry;
class Counter;
class Histogram;
} // namespace obs

/** Outcome of a cancellable run. */
enum class RunStatus : unsigned char
{
    Completed,        ///< Ran to the end; the result is complete.
    Cancelled,        ///< Stopped by an explicit cancel() request.
    DeadlineExceeded, ///< Stopped because a deadline expired.
};

/** Stable lowercase name ("completed", "cancelled", ...). */
const char *toString(RunStatus status);

/**
 * Monotonic time source in seconds.  The default implementation
 * reads std::chrono::steady_clock; tests substitute ManualClock to
 * make deadline expiry and latency measurements deterministic.
 */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Monotonic seconds since an arbitrary epoch. */
    virtual double nowSeconds() const = 0;

    /** The process-wide steady_clock-backed instance. */
    static const Clock &steady();
};

/**
 * Test clock: time advances only when told to.  All operations are
 * relaxed atomics, so a ManualClock may be shared between the thread
 * advancing time and workers polling deadlines.
 */
class ManualClock : public Clock
{
  public:
    explicit ManualClock(double start_seconds = 0.0)
        : now_(start_seconds)
    {}

    double nowSeconds() const override
    {
        return now_.load(std::memory_order_relaxed);
    }

    void set(double seconds)
    {
        now_.store(seconds, std::memory_order_relaxed);
    }

    void advance(double seconds)
    {
        // fetch_add on atomic<double> needs C++20; CAS loop instead.
        double current = now_.load(std::memory_order_relaxed);
        while (!now_.compare_exchange_weak(current, current + seconds,
                                           std::memory_order_relaxed))
        {}
    }

  private:
    std::atomic<double> now_;
};

/**
 * Absolute monotonic expiry.  Default-constructed = never expires.
 * Value type; copies share nothing but the clock pointer, which must
 * outlive every copy (the steady clock always does; a test's
 * ManualClock must outlive its tokens).
 */
class Deadline
{
  public:
    /** Never expires. */
    Deadline() = default;

    /** Never expires (spelled out). */
    static Deadline never() { return Deadline(); }

    /**
     * Expires @p seconds from @p clock's current time.  Negative or
     * zero budgets produce an already-expired deadline.
     */
    static Deadline after(double seconds,
                          const Clock &clock = Clock::steady());

    /** True when an expiry is installed (even if far in the future). */
    bool isSet() const { return clock_ != nullptr; }

    /** True when the installed expiry has passed.  Never-set: false. */
    bool expired() const;

    /**
     * Seconds until expiry (clamped at 0 once expired); +infinity
     * when never set.
     */
    double remainingSeconds() const;

    /** The absolute expiry in clock seconds; +infinity if never. */
    double expirySeconds() const { return expiry_; }

    /** The clock this deadline reads, or nullptr when never set. */
    const Clock *clock() const { return clock_; }

  private:
    const Clock *clock_ = nullptr;
    double expiry_ = std::numeric_limits<double>::infinity();
};

/**
 * Shared cooperative stop request.  Value type over a shared state;
 * copies observe (and trip) the same request.  Default-constructed
 * tokens are inert: every query answers Completed at the cost of one
 * null check, and cancel() is a no-op.
 *
 * Thread-safety annotations (common/thread_annotations.hpp):
 * deliberately none.  The shared state is atomics-only — no mutex,
 * no compound invariant spanning two fields — because cancel() must
 * stay async-signal-safe (a mutex in a SIGTERM handler can
 * deadlock).  This is the repo's documented convention: single-word
 * flags crossed by signal handlers or hot paths stay atomic; state
 * with multi-field invariants takes a Mutex and AMPED_GUARDED_BY.
 */
class CancelToken
{
  public:
    /** Inert token (nothing installed; never stops anything). */
    CancelToken() = default;

    /**
     * A live root token, optionally deadline-bounded.
     *
     * @param deadline Expiry for this token (never() = none).
     * @param registry Metrics destination (nullptr = the global
     *        registry).  Resolved here, outside signal context, so
     *        cancel() stays async-signal-safe.
     */
    static CancelToken make(Deadline deadline = Deadline(),
                            obs::MetricsRegistry *registry = nullptr);

    /**
     * A child observing this token plus its own deadline: the child
     * stops when the parent stops OR its deadline expires, whichever
     * comes first.  A child of an inert token is a fresh root.
     */
    CancelToken child(Deadline deadline = Deadline()) const;

    /** True when a live state is installed (non-default token). */
    bool installed() const { return state_ != nullptr; }

    /**
     * Requests cancellation.  Async-signal-safe: atomic stores and a
     * monotonic clock read only.  Idempotent; no-op on inert tokens.
     */
    void cancel() const;

    /** True when cancel() was called on this token (not parents). */
    bool cancelRequested() const;

    /**
     * Passive stop query: Cancelled if this token or any ancestor
     * was cancelled, else DeadlineExceeded if this token's or an
     * ancestor's deadline expired, else Completed.  Explicit
     * cancellation wins over deadline expiry.  Cheap enough for
     * per-chunk polling; records no metrics.
     */
    RunStatus status() const;

    /**
     * THE cancellation point.  Work calls this at deterministic
     * boundaries (block / wave / replication-block); a non-Completed
     * answer means "stop now, publish the partial result".
     *
     * On live tokens each call bumps `common.cancel.checkpoints`,
     * applies the tripAfterCheckpoints test seam, and — on the first
     * checkpoint that observes a stop — records the request-to-
     * observation latency into `common.cancel.latency_seconds` and
     * bumps `common.cancel.observed`.  Inert tokens return Completed
     * immediately.
     */
    RunStatus checkpoint() const;

    /**
     * Test seam: trips this token (as an explicit cancel) when its
     * Nth checkpoint() is reached.  Combined with the block/wave
     * checkpoint discipline this makes "cancel after N blocks"
     * exactly reproducible at every thread count.  0 disables.
     */
    void tripAfterCheckpoints(std::uint64_t n) const;

  private:
    struct State;

    std::shared_ptr<State> state_;
};

/**
 * Pre-registers every `common.cancel.*` metric in @p registry so
 * reports render them (as zeros) even before any token exists —
 * run-report schema v2 relies on this for a deterministic metrics
 * section.
 */
void registerCancellationMetrics(obs::MetricsRegistry &registry);

} // namespace amped

#endif // AMPED_COMMON_CANCEL_HPP
