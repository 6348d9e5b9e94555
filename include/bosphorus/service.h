/// \file
/// The multi-tenant solve service: a long-lived `SolveService` that
/// multiplexes BatchEngine-style workers and warm `Session` pools across
/// many concurrent clients -- the engine room of the `bosphorusd` daemon.
///
/// `Engine::run` and even `BatchEngine::solve_all` are one-shot: a caller
/// brings a batch, waits, and the process is done. A production deployment
/// serving many tenants needs the inverse shape -- a process that outlives
/// any one request and keeps its expensive state (thread pool, simplified
/// base systems, warm solvers, the interned monomial vocabulary) hot
/// between requests. `SolveService` is that process core, deliberately
/// protocol-independent (the newline protocol, socket server and CLI live
/// in `src/service/`):
///
///  - **Job queue with admission control.** `submit()` either accepts a
///    job into a bounded queue or rejects it *immediately* with a
///    structured `StatusCode::kUnavailable` error -- a loaded service
///    sheds work at the door instead of growing an unbounded backlog.
///  - **Fair round-robin scheduling.** Each client gets its own FIFO lane;
///    worker slots are handed to lanes in round-robin order, so one tenant
///    submitting 10'000 jobs cannot starve another submitting one.
///  - **Per-client Session pools.** `open_session()` registers a named
///    base problem for a client; `submit_assumptions()` jobs against that
///    name reuse one warm `Session` (materialised once, in the first
///    job's worker), so a client's key sweep pays the simplification cost
///    once. Jobs against the same session run in submit order, exactly
///    like a local push/assume/solve/pop loop -- verdicts are
///    bit-identical to driving a Session directly.
///  - **Deadline enforcement via cancellation, not thread death.** Every
///    job carries a deadline; it reaches the running engine through a
///    linked `CancellationToken` (polled at technique iteration
///    boundaries *and* inside SAT solves through the backend terminate
///    hook), so an expired job stops cooperatively and its worker thread
///    lives on.
///  - **A metrics surface.** `stats()` returns a consistent
///    `ServiceStats` snapshot of what the service itself counts: job
///    counters, queue depth, PAR-2 and per-backend verdict tallies. The
///    process-global counters (`MonomialStore` occupancy, fault injector,
///    resilience, circuit breakers, in-processing) stay where they live;
///    the METRICS verb reads them there (src/service/protocol.cpp).
///
/// Thread safety: every member of `SolveService` may be called from any
/// thread concurrently (the service is the synchronisation point); the
/// handles it returns (`JobId`) are plain values. `shutdown()` (also run
/// by the destructor) cancels queued and running jobs and then drains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "bosphorus/batch.h"
#include "bosphorus/engine.h"
#include "bosphorus/problem.h"
#include "bosphorus/status.h"

namespace bosphorus {

/// Capacity bounds and defaults of a `SolveService`.
struct ServiceConfig {
    /// Loop parameters every job runs with. Per-job knobs are the deadline
    /// (`JobRequest::timeout_s`, which also caps this config's
    /// `time_budget_s` for that job) and the in-loop SAT backend
    /// (`JobRequest::solver`); everything else -- budgets, seed,
    /// techniques -- is fixed service-wide so results stay reproducible
    /// across tenants. Warm sessions are constructed with exactly this
    /// config (see `open_session`). Jobs are verdict-only: the service
    /// drops each job's processed ANF before it keeps the outcome.
    ///
    /// With `engine.cooperative` set (bosphorusd --cooperative), each
    /// one-shot job runs as a *cooperative* portfolio race instead of a
    /// single engine: the default_portfolio entries over `engine` race on
    /// the job's instance and share learnt facts through a lock-free pool
    /// (see src/runtime/fact_exchange.h). Verdicts are identical to the
    /// isolated run. Each such job may occupy up to one OS thread per
    /// portfolio entry *in addition to* its worker slot, so budget
    /// `n_workers` accordingly. Warm-session sweep jobs see no pool and
    /// stay isolated (a Session is single-threaded by contract).
    EngineConfig engine;

    /// Worker threads executing jobs (0 = hardware concurrency). Unlike
    /// BatchEngine::threads_for, an explicit count is honoured even beyond
    /// the core count: service jobs frequently wait on deadlines or
    /// external-process backends rather than compute, so slots are a
    /// concurrency bound, not a parallelism claim.
    unsigned n_workers = 0;

    /// Admission bound: jobs *waiting* for a worker (running jobs do not
    /// count). A submit arriving with this many jobs queued is rejected
    /// with kUnavailable.
    size_t max_queued_jobs = 256;

    /// Bound on distinct client lanes; a submit from a never-seen client
    /// beyond it is rejected with kUnavailable.
    size_t max_clients = 1024;

    /// Bound on open named sessions per client; `open_session` beyond it
    /// fails with kUnavailable.
    size_t max_sessions_per_client = 8;

    /// Terminal jobs retained for `status()`/`wait()` pickup. The oldest
    /// finished results are evicted past this bound, so a fire-and-forget
    /// tenant cannot grow the job table without limit.
    size_t max_retained_jobs = 1024;

    /// Deadline applied when a request passes `timeout_s == 0`.
    double default_timeout_s = 30.0;

    /// Hard cap on any requested deadline (0 = uncapped).
    double max_timeout_s = 0.0;

    /// Per-client in-flight (queued + running) job quota; a submit beyond
    /// it is rejected with kUnavailable. 0 = unlimited.
    size_t max_inflight_per_client = 0;

    /// Deadline-aware admission: once enough runtimes are observed, a
    /// submit whose estimated completion (queue wait at the current depth
    /// plus one EWMA runtime) exceeds its own deadline is rejected up
    /// front with kUnavailable carrying a `retry_after_ms=<n>` hint --
    /// shedding doomed work at the door instead of burning a worker slot
    /// on a job that will expire anyway.
    bool deadline_admission = true;

    /// shutdown() drain grace: seconds running jobs get to finish before
    /// they are cancelled cooperatively. Queued jobs are always cancelled
    /// immediately. 0 = cancel running jobs immediately (the pre-drain
    /// behaviour).
    double drain_grace_s = 0.0;

    /// Fault-injection plan armed at service construction (see
    /// util/fault.h for the `site=prob[,...][,seed=N]` syntax). Empty =
    /// leave the process-global injector alone. A malformed plan fails
    /// construction loudly via stderr and stays disarmed.
    std::string fault_plan;
};

/// Handle of a submitted job; unique for the service's lifetime.
using JobId = uint64_t;

/// Lifecycle of a job. Queued and running are transient; the other four
/// are terminal.
enum class JobState {
    kQueued,     ///< accepted, waiting for a worker slot
    kRunning,    ///< executing on a worker
    kDone,       ///< ran to completion (verdict may still be kUnknown)
    kCancelled,  ///< cancel() or shutdown() stopped it (possibly mid-run)
    kExpired,    ///< its deadline cut the run short
    kFailed,     ///< the run errored or threw (see JobOutcome::error)
};

/// Lower-case stable name of a state ("queued", "running", ...).
const char* job_state_name(JobState state);

/// One one-shot solve request (the SUBMIT verb of the wire protocol).
struct JobRequest {
    /// Fairness lane and session-pool key. Clients are created on first
    /// use; the empty string is a valid shared anonymous lane.
    std::string client;

    /// The instance to solve (ANF or CNF, as for Engine::run).
    Problem problem;

    /// Per-job deadline in seconds from dispatch (0 = the service's
    /// default_timeout_s). Enforced cooperatively: the deadline reaches a
    /// running engine through the cancellation token and the SAT
    /// backend's terminate hook.
    double timeout_s = 0.0;

    /// In-loop SAT backend spec for this job ("" = the service config's
    /// EngineConfig::sat_backend). Validated against the BackendRegistry
    /// at submit time, so a typo fails the submit, not the job.
    std::string solver;
};

/// Terminal snapshot of a job, as returned by `wait()`.
struct JobOutcome {
    JobId id = 0;                      ///< the job this snapshot describes
    JobState state = JobState::kDone;  ///< terminal state (never queued/running)
    /// Why the run failed; OK unless state == kFailed.
    Status error;
    /// The engine Report (partial for kExpired/kCancelled mid-run; empty
    /// for jobs cancelled while still queued or failed before running).
    /// `report.processed_anf` is always empty: service jobs are
    /// verdict-only.
    Report report;
    double queued_s = 0.0;   ///< time spent waiting for a worker
    double run_s = 0.0;      ///< time spent executing (0 if never ran)
    double timeout_s = 0.0;  ///< the deadline the job ran under
};

/// Per-backend verdict tally (keyed by backend name in ServiceStats).
struct BackendVerdicts {
    uint64_t sat = 0;      ///< jobs that ended kSat under this backend
    uint64_t unsat = 0;    ///< jobs that ended kUnsat under this backend
    uint64_t unknown = 0;  ///< jobs that ended undecided under this backend
};

/// One consistent snapshot of what a running service counts itself (the
/// service's part of the METRICS verb of the wire protocol). Counters are
/// cumulative since construction; gauges (queued/running/...) are
/// instantaneous. Process-global state shared with every other engine in
/// the process is not copied here: read it where it lives
/// (`anf::MonomialStore::global().stats()`, `fault::FaultInjector::global()`,
/// `sat::resilience_counters()`, `sat::BackendRegistry::global().health()`,
/// `sat::inprocess::counters()`).
struct ServiceStats {
    uint64_t accepted = 0;   ///< submits admitted into the queue
    uint64_t rejected = 0;   ///< submits refused by admission control
    uint64_t completed = 0;  ///< jobs that reached kDone
    uint64_t cancelled = 0;  ///< jobs that reached kCancelled
    uint64_t expired = 0;    ///< jobs that reached kExpired
    uint64_t failed = 0;     ///< jobs that reached kFailed

    /// ... of `rejected`, refusals by deadline-aware admission (the rest
    /// hit the queue / client-table / quota capacity bounds).
    uint64_t deadline_rejected = 0;
    /// Writes that found the client gone (EPIPE/ECONNRESET), as reported
    /// by the connection front end via note_client_disconnect().
    uint64_t client_disconnects = 0;
    /// EWMA of terminal run times feeding deadline admission (0 until
    /// the first run finishes).
    double ewma_run_s = 0.0;

    size_t queued = 0;         ///< jobs currently waiting
    size_t running = 0;        ///< jobs currently executing
    size_t clients = 0;        ///< client lanes seen so far
    size_t open_sessions = 0;  ///< named sessions currently open
    size_t warm_sessions = 0;  ///< ... of which have materialised a Session

    /// PAR-2 accumulator over terminal runs: a decided job contributes its
    /// runtime, an undecided/expired one twice its deadline.
    double par2_sum = 0.0;
    uint64_t par2_jobs = 0;  ///< runs the accumulator covers
    /// Mean PAR-2 score (0 when no run finished yet); lower is better.
    double par2() const { return par2_jobs ? par2_sum / double(par2_jobs) : 0.0; }

    /// Verdict tallies keyed by in-loop backend name ("native" for the
    /// built-in solver).
    std::map<std::string, BackendVerdicts> backend_verdicts;

    double uptime_s = 0.0;  ///< seconds since the service was constructed
};

/// The multi-tenant solve service (see the file comment). Construct one
/// per process; share it freely across threads and protocol front ends.
class SolveService {
public:
    /// Start the service: spawns the worker pool, ready for submits.
    explicit SolveService(ServiceConfig cfg = {});
    /// Equivalent to shutdown() followed by joining the workers.
    ~SolveService();

    SolveService(const SolveService&) = delete;             ///< not copyable
    SolveService& operator=(const SolveService&) = delete;  ///< not copyable

    // ---- one-shot jobs ---------------------------------------------------
    /// Admit a one-shot job, or reject it: kUnavailable when the queue,
    /// client table, or service is at capacity (or shutting down),
    /// kInvalidArgument for an unknown solver spec or out-of-range
    /// timeout. On success the job is queued (and possibly already
    /// running) when this returns.
    Result<JobId> submit(JobRequest request);

    // ---- warm sessions ---------------------------------------------------
    /// Register `base` under `client`/`name` as a warm-session base. The
    /// expensive Session materialisation is deferred to the first
    /// submitted job against it (charged to that job's runtime and
    /// deadline). Fails with kUnavailable past max_sessions_per_client /
    /// max_clients and kInvalidArgument when `name` is already open for
    /// this client.
    Status open_session(const std::string& client, const std::string& name,
                        Problem base);

    /// Submit a sweep query against an open session: the worker runs
    /// push / assume each (var, value) / solve / pop on the client's warm
    /// Session. Jobs against one session execute in submit order,
    /// serialised; jobs against different sessions of the same client may
    /// run in parallel. kInvalidArgument for an unknown session or an
    /// assumption variable outside the base's variable space; admission
    /// control as for submit().
    Result<JobId> submit_assumptions(const std::string& client,
                                     const std::string& name,
                                     AssumptionSet assumptions,
                                     double timeout_s = 0.0);

    /// Close a named session: the name is freed immediately; jobs already
    /// admitted against it still run to completion on the detached
    /// Session, which is destroyed when the last of them finishes.
    /// kInvalidArgument when the session is not open.
    Status close_session(const std::string& client, const std::string& name);

    // ---- job lifecycle ---------------------------------------------------
    /// Current state of a job; kInvalidArgument when the id is unknown
    /// (never issued, or evicted past max_retained_jobs).
    Result<JobState> job_state(JobId id) const;

    /// Block until the job reaches a terminal state and return its
    /// outcome. `wait_s < 0` waits indefinitely; on a timeout the job
    /// keeps running and kTimeout is returned. kInvalidArgument for an
    /// unknown/evicted id.
    Result<JobOutcome> wait(JobId id, double wait_s = -1.0);

    /// Ask a job to stop: a queued job is cancelled in place; a running
    /// one is cancelled cooperatively through its token (its partial
    /// Report is preserved). Idempotent -- cancelling a terminal job is a
    /// no-op. kInvalidArgument for an unknown/evicted id.
    Status cancel(JobId id);

    // ---- introspection ---------------------------------------------------
    /// One consistent snapshot of the service's own counters and gauges
    /// (see ServiceStats); reads no process-global counter.
    ServiceStats stats() const;

    /// Record that a connection front end lost its client mid-write
    /// (EPIPE/ECONNRESET). Purely a counter: the job itself is unaffected
    /// and its result stays retained for a reconnecting client.
    void note_client_disconnect();

    /// Stop the service: rejects further submits, cancels every queued
    /// job immediately, gives running jobs `config().drain_grace_s`
    /// seconds to finish before cancelling them cooperatively, wakes all
    /// waiters, and blocks until the workers drained. Idempotent; also
    /// run by the destructor.
    void shutdown();

    /// The configuration this service was constructed with (with
    /// n_workers resolved to the actual worker count).
    const ServiceConfig& config() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace bosphorus
