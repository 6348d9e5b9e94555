// The multi-tenant solve service behind include/bosphorus/service.h.
//
// One mutex (`mu_`) guards the whole control plane: lanes, queues,
// session slots, counters and job states. Workers run the data plane
// (Engine/Session solves) outside the lock; every handoff of a Session
// slot between workers goes through the lock, which is what makes the
// single-threaded Session safe to pool -- the scheduler never dispatches
// two jobs against one slot at a time, and the lock edge orders the
// memory of consecutive owners.
//
// Scheduling: dispatch_locked() runs on every submit and every job
// completion. It hands free worker slots to client lanes in round-robin
// order; within a lane the scan is FIFO, skipping (in order) jobs whose
// session slot is busy -- and, to preserve per-session submit order,
// every *later* job on a session that was skipped in this scan.
//
// Deadlines: each job's cancellation token is linked with a steady-clock
// deadline predicate. The engine polls it at technique iteration
// boundaries and threads it into SAT backends as the terminate hook, so
// expiry stops even a mid-solve external process cooperatively -- worker
// threads are never killed.
#include "bosphorus/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bosphorus/sat_backend.h"
#include "bosphorus/session.h"
#include "runtime/cancellation.h"
#include "runtime/thread_pool.h"
#include "sat/inprocess/inprocess.h"
#include "util/fault.h"
#include "util/timer.h"

namespace bosphorus {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_from_now(double timeout_s) {
    return Clock::now() +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(timeout_s));
}

/// Metrics key of the in-loop backend a config routes the SAT step to.
std::string backend_key(const EngineConfig& cfg) {
    if (cfg.sat_backend.empty()) return "native";
    return sat::SolverSpec(cfg.sat_backend).backend_name();
}

}  // namespace

const char* job_state_name(JobState state) {
    switch (state) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kCancelled: return "cancelled";
        case JobState::kExpired: return "expired";
        case JobState::kFailed: return "failed";
    }
    return "?";
}

struct SolveService::Impl {
    /// One pooled warm session. `busy` hands exclusive slot access to a
    /// single worker at a time (set/cleared under mu_); `session` itself
    /// is only touched by the owning worker.
    struct SessionSlot {
        Problem base;
        std::unique_ptr<Session> session;  // materialised by the first job
        bool busy = false;
    };

    struct Job {
        JobId id = 0;
        std::string client;
        // One-shot payload (slot == nullptr) or sweep payload.
        Problem problem;
        std::shared_ptr<SessionSlot> slot;
        AssumptionSet assumptions;

        EngineConfig cfg;  // resolved at submit (solver spec folded in)
        double timeout_s = 0.0;

        JobState state = JobState::kQueued;
        runtime::CancellationSource cancel;
        Status error;
        Report report;
        Timer since_submit;
        double queued_s = 0.0;
        double run_s = 0.0;
    };

    struct Lane {
        std::deque<std::shared_ptr<Job>> queue;
        std::map<std::string, std::shared_ptr<SessionSlot>> sessions;
        size_t inflight = 0;  ///< queued + running jobs of this client
    };

    explicit Impl(ServiceConfig cfg)
        : cfg_(std::move(cfg)),
          workers_(cfg_.n_workers == 0
                       ? runtime::ThreadPool::default_thread_count()
                       : cfg_.n_workers),
          pool_(workers_) {
        cfg_.n_workers = workers_;
        // Jobs answer with verdicts only: the wire RESULT never carries
        // the processed ANF/CNF, and building them per job grew the
        // daemon's memory with every job it completed.
        cfg_.engine.emit_processed = false;
        if (!cfg_.fault_plan.empty()) {
            const Status s =
                fault::FaultInjector::global().arm(cfg_.fault_plan);
            if (!s.ok())
                std::fprintf(stderr, "bosphorus: ignoring fault plan: %s\n",
                             s.to_string().c_str());
        }
    }

    // ---- control plane (all under mu_) -----------------------------------

    /// Milliseconds until the backlog ahead of a new submit has likely
    /// drained: one EWMA runtime per full worker-rotation of the queue.
    /// Requires mu_.
    uint64_t retry_after_ms_locked() const {
        const double ewma = ewma_run_s_ > 0 ? ewma_run_s_ : 0.05;
        const double rotations =
            std::ceil(double(queued_ + 1) / double(workers_));
        const double wait_s = ewma * rotations;
        return static_cast<uint64_t>(std::max(1.0, wait_s * 1000.0));
    }

    Result<JobId> admit(std::shared_ptr<Job> job) {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_)
            return Status::unavailable("service is shutting down");
        if (queued_ >= cfg_.max_queued_jobs) {
            ++stats_rejected_;
            return Status::unavailable(
                "job queue full (" + std::to_string(queued_) + " queued, cap " +
                std::to_string(cfg_.max_queued_jobs) + ") retry_after_ms=" +
                std::to_string(retry_after_ms_locked()));
        }
        Lane* lane = lane_for_locked(job->client);
        if (lane == nullptr) {
            ++stats_rejected_;
            return Status::unavailable(
                "client table full (cap " + std::to_string(cfg_.max_clients) +
                " clients)");
        }
        if (cfg_.max_inflight_per_client > 0 &&
            lane->inflight >= cfg_.max_inflight_per_client) {
            ++stats_rejected_;
            return Status::unavailable(
                "client '" + job->client + "' at its in-flight quota (" +
                std::to_string(cfg_.max_inflight_per_client) +
                " jobs) retry_after_ms=" +
                std::to_string(retry_after_ms_locked()));
        }
        // Deadline-aware admission: with all workers busy, a new job waits
        // ~one EWMA runtime per worker-rotation of the queue and then runs
        // for ~one more. If that already overshoots its own deadline,
        // admitting it only burns a slot on work that will expire -- shed
        // it now, with a hint for when to retry. The estimate needs a few
        // observed runtimes before it is trusted.
        if (cfg_.deadline_admission && ewma_samples_ >= 4 &&
            running_ >= workers_) {
            const double est_wait_s =
                ewma_run_s_ *
                std::ceil(double(queued_ + 1) / double(workers_));
            if (est_wait_s + ewma_run_s_ > job->timeout_s) {
                ++stats_rejected_;
                ++stats_deadline_rejected_;
                return Status::unavailable(
                    "deadline " + std::to_string(job->timeout_s) +
                    "s unmeetable at current depth (est wait " +
                    std::to_string(est_wait_s) + "s) retry_after_ms=" +
                    std::to_string(retry_after_ms_locked()));
            }
        }
        job->id = next_id_++;
        jobs_.emplace(job->id, job);
        lane->queue.push_back(job);
        ++lane->inflight;
        ++queued_;
        ++stats_accepted_;
        dispatch_locked();
        return job->id;
    }

    /// A job of `client` left the in-flight set (terminal). Requires mu_.
    void release_inflight_locked(const std::string& client) {
        auto it = lanes_.find(client);
        if (it != lanes_.end() && it->second.inflight > 0)
            --it->second.inflight;
    }

    /// The lane for `client`, created on first use; nullptr when the
    /// client table is at capacity.
    Lane* lane_for_locked(const std::string& client) {
        auto it = lanes_.find(client);
        if (it != lanes_.end()) return &it->second;
        if (lanes_.size() >= cfg_.max_clients) return nullptr;
        rr_order_.push_back(client);
        return &lanes_[client];
    }

    /// Hand free worker slots to lanes, round-robin. Requires mu_.
    void dispatch_locked() {
        if (stopping_) return;
        while (running_ < workers_ && queued_ > 0) {
            std::shared_ptr<Job> job = pick_next_locked();
            if (!job) break;  // all queued work blocked on busy sessions
            job->state = JobState::kRunning;
            job->queued_s = job->since_submit.seconds();
            if (job->slot) job->slot->busy = true;
            --queued_;
            ++running_;
            pool_.submit([this, job] { run_job(std::move(job)); });
        }
    }

    /// Next dispatchable job in round-robin lane order; also reaps
    /// queue entries cancelled while waiting. Requires mu_.
    std::shared_ptr<Job> pick_next_locked() {
        const size_t n_lanes = rr_order_.size();
        for (size_t k = 0; k < n_lanes; ++k) {
            const size_t lane_idx = (rr_pos_ + k) % n_lanes;
            Lane& lane = lanes_[rr_order_[lane_idx]];
            // FIFO scan; sessions skipped once stay skipped so jobs on one
            // session never overtake each other.
            std::unordered_set<SessionSlot*> blocked;
            for (size_t i = 0; i < lane.queue.size();) {
                std::shared_ptr<Job>& j = lane.queue[i];
                if (j->state != JobState::kQueued) {  // cancelled in place
                    lane.queue.erase(lane.queue.begin() + i);
                    continue;
                }
                SessionSlot* slot = j->slot.get();
                if (slot && (slot->busy || blocked.count(slot))) {
                    blocked.insert(slot);
                    ++i;
                    continue;
                }
                std::shared_ptr<Job> job = std::move(j);
                lane.queue.erase(lane.queue.begin() + i);
                rr_pos_ = (lane_idx + 1) % n_lanes;
                return job;
            }
        }
        return nullptr;
    }

    // ---- data plane (outside mu_) ----------------------------------------

    void run_job(std::shared_ptr<Job> job) {
        // Injected dispatch stall: the job sits on its worker slot doing
        // nothing for a bounded moment, as a heavily-loaded scheduler
        // would make it. Charged to queue wait, not to the job's deadline
        // (which starts below, like for any other dispatch latency).
        if (fault::FaultInjector::global().should_fire(
                fault::Site::kQueueDelay)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
            std::lock_guard<std::mutex> lk(mu_);
            job->queued_s = job->since_submit.seconds();
        }
        const Timer run_timer;
        const Clock::time_point deadline = deadline_from_now(job->timeout_s);
        const runtime::CancellationToken token =
            runtime::CancellationToken::linked(
                job->cancel.token(),
                [deadline] { return Clock::now() >= deadline; });

        Status error;
        Report report;
        bool failed = false;
        if (!job->slot) {
            EngineConfig cfg = job->cfg;
            cfg.time_budget_s = std::min(cfg.time_budget_s, job->timeout_s);
            if (cfg_.cooperative) {
                // Cooperative mode: race the default portfolio on this
                // instance with fact sharing. solve_portfolio creates and
                // wires the shared pool; the entries all inherit this
                // job's resolved config (backend spec included).
                cfg.cooperative = true;
                Result<PortfolioReport> res = solve_portfolio(
                    job->problem, default_portfolio(cfg), 0, token);
                if (res.ok()) {
                    report = std::move(res).value().report;
                } else {
                    failed = true;
                    error = res.status();
                }
            } else {
                Engine engine(cfg);
                engine.set_cancellation_token(token);
                Result<Report> res = engine.run(job->problem);
                if (res.ok()) {
                    report = std::move(res).value();
                } else {
                    failed = true;
                    error = res.status();
                }
            }
        } else {
            run_sweep_job(*job, token, report, error, failed);
        }

        std::unique_lock<std::mutex> lk(mu_);
        job->run_s = run_timer.seconds();
        job->report = std::move(report);
        job->error = std::move(error);
        job->state = classify_locked(*job, failed, deadline);
        if (job->slot) job->slot->busy = false;
        --running_;
        account_locked(*job);
        release_inflight_locked(job->client);
        retain_locked(job->id);
        dispatch_locked();
        lk.unlock();
        cv_.notify_all();
    }

    /// One push / assume* / solve / pop round trip on the job's warm
    /// session, materialising it first if this is the slot's first job.
    /// The scheduler guarantees exclusive slot access.
    void run_sweep_job(Job& job, const runtime::CancellationToken& token,
                       Report& report, Status& error, bool& failed) {
        SessionSlot& slot = *job.slot;
        if (!slot.session)
            slot.session = std::make_unique<Session>(slot.base, job.cfg);
        Session& session = *slot.session;
        session.set_cancellation_token(token);

        Status st = session.push();
        for (const auto& [var, value] : job.assumptions) {
            if (!st.ok()) break;
            st = session.assume(var, value);
        }
        if (st.ok()) {
            Result<Report> res = session.solve();
            if (res.ok()) {
                report = std::move(res).value();
            } else {
                failed = true;
                error = res.status();
            }
        } else {
            failed = true;
            error = st;
        }
        session.pop();
        session.set_cancellation_token({});
    }

    /// Terminal state of a finished run. Requires mu_ (serialises the
    /// cancel-vs-expiry attribution against cancel()).
    JobState classify_locked(const Job& job, bool failed,
                             Clock::time_point deadline) const {
        if (failed) return JobState::kFailed;
        if (job.report.verdict != sat::Result::kUnknown) return JobState::kDone;
        if (job.cancel.cancel_requested()) return JobState::kCancelled;
        if (job.report.timed_out || Clock::now() >= deadline)
            return JobState::kExpired;
        return JobState::kDone;  // undecided fixed point within budget
    }

    /// Fold a terminal job into the counters. Requires mu_.
    void account_locked(const Job& job) {
        switch (job.state) {
            case JobState::kDone: ++stats_completed_; break;
            case JobState::kCancelled: ++stats_cancelled_; break;
            case JobState::kExpired: ++stats_expired_; break;
            case JobState::kFailed: ++stats_failed_; break;
            default: break;
        }
        if (job.state == JobState::kDone || job.state == JobState::kExpired) {
            const bool decided = job.report.verdict != sat::Result::kUnknown;
            par2_sum_ += decided ? job.run_s : 2.0 * job.timeout_s;
            ++par2_jobs_;
        }
        if (job.run_s > 0.0) {
            // EWMA of observed runtimes, feeding deadline admission.
            ewma_run_s_ = ewma_samples_ == 0
                              ? job.run_s
                              : 0.9 * ewma_run_s_ + 0.1 * job.run_s;
            ++ewma_samples_;
        }
        if (job.state != JobState::kFailed) {
            BackendVerdicts& tally = backend_verdicts_[backend_key(job.cfg)];
            if (job.report.verdict == sat::Result::kSat) ++tally.sat;
            else if (job.report.verdict == sat::Result::kUnsat) ++tally.unsat;
            else ++tally.unknown;
        }
    }

    /// Keep the terminal-job table bounded. Requires mu_.
    void retain_locked(JobId finished) {
        finished_fifo_.push_back(finished);
        while (finished_fifo_.size() > cfg_.max_retained_jobs) {
            jobs_.erase(finished_fifo_.front());
            finished_fifo_.pop_front();
        }
    }

    void shutdown() {
        std::unique_lock<std::mutex> lk(mu_);
        if (!stopping_) {
            stopping_ = true;
            // Queued jobs never started: cancel them in place, always.
            for (auto& [key, lane] : lanes_) {
                for (auto& job : lane.queue) {
                    if (job->state != JobState::kQueued) continue;
                    job->state = JobState::kCancelled;
                    ++stats_cancelled_;
                    release_inflight_locked(job->client);
                    retain_locked(job->id);
                }
                lane.queue.clear();
            }
            queued_ = 0;
            // Graceful drain: running jobs get the grace window (their
            // own deadlines still apply) before the cooperative cancel.
            if (cfg_.drain_grace_s > 0.0 && running_ > 0) {
                cv_.wait_for(lk,
                             std::chrono::duration<double>(cfg_.drain_grace_s),
                             [this] { return running_ == 0; });
            }
            for (auto& [id, job] : jobs_) {
                if (job->state == JobState::kRunning)
                    job->cancel.request_cancel();
            }
        }
        cv_.notify_all();
        cv_.wait(lk, [this] { return running_ == 0; });
    }

    // ---- members ---------------------------------------------------------

    ServiceConfig cfg_;
    const unsigned workers_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    runtime::ThreadPool pool_;  // after mu_/cv_: joined before they die

    std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
    std::map<std::string, Lane> lanes_;
    std::vector<std::string> rr_order_;
    size_t rr_pos_ = 0;
    std::deque<JobId> finished_fifo_;

    JobId next_id_ = 1;
    size_t queued_ = 0;
    size_t running_ = 0;
    bool stopping_ = false;

    uint64_t stats_accepted_ = 0;
    uint64_t stats_rejected_ = 0;
    uint64_t stats_deadline_rejected_ = 0;
    uint64_t stats_client_disconnects_ = 0;
    uint64_t stats_completed_ = 0;
    uint64_t stats_cancelled_ = 0;
    uint64_t stats_expired_ = 0;
    uint64_t stats_failed_ = 0;
    double par2_sum_ = 0.0;
    uint64_t par2_jobs_ = 0;
    double ewma_run_s_ = 0.0;
    uint64_t ewma_samples_ = 0;
    std::map<std::string, BackendVerdicts> backend_verdicts_;
    Timer uptime_;
};

// ---- SolveService ----------------------------------------------------------

SolveService::SolveService(ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(std::move(cfg))) {}

SolveService::~SolveService() { shutdown(); }

const ServiceConfig& SolveService::config() const { return impl_->cfg_; }

namespace {

/// Resolve and validate a per-job deadline against the service bounds.
Result<double> resolve_timeout(const ServiceConfig& cfg, double requested) {
    if (requested < 0.0)
        return Status::invalid_argument("timeout_s must be >= 0");
    double t = requested == 0.0 ? cfg.default_timeout_s : requested;
    if (cfg.max_timeout_s > 0.0) t = std::min(t, cfg.max_timeout_s);
    return t;
}

}  // namespace

Result<JobId> SolveService::submit(JobRequest request) {
    const Result<double> timeout =
        resolve_timeout(impl_->cfg_, request.timeout_s);
    if (!timeout.ok()) return timeout.status();

    EngineConfig cfg = impl_->cfg_.engine;
    if (!request.solver.empty()) {
        // Validate the spec now so a typo fails the submit, not the job.
        auto probe =
            sat::BackendRegistry::global().create(sat::SolverSpec(request.solver));
        if (!probe.ok()) return probe.status();
        cfg.sat_backend = request.solver;
    }

    auto job = std::make_shared<Impl::Job>();
    job->client = std::move(request.client);
    job->problem = std::move(request.problem);
    job->cfg = std::move(cfg);
    job->timeout_s = *timeout;
    return impl_->admit(std::move(job));
}

Status SolveService::open_session(const std::string& client,
                                  const std::string& name, Problem base) {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    if (impl_->stopping_)
        return Status::unavailable("service is shutting down");
    Impl::Lane* lane = impl_->lane_for_locked(client);
    if (lane == nullptr)
        return Status::unavailable(
            "client table full (cap " +
            std::to_string(impl_->cfg_.max_clients) + " clients)");
    if (lane->sessions.count(name))
        return Status::invalid_argument("session '" + name +
                                        "' is already open for this client");
    if (lane->sessions.size() >= impl_->cfg_.max_sessions_per_client)
        return Status::unavailable(
            "session pool full (cap " +
            std::to_string(impl_->cfg_.max_sessions_per_client) +
            " sessions per client)");
    auto slot = std::make_shared<Impl::SessionSlot>();
    slot->base = std::move(base);
    lane->sessions.emplace(name, std::move(slot));
    return Status();
}

Result<JobId> SolveService::submit_assumptions(const std::string& client,
                                               const std::string& name,
                                               AssumptionSet assumptions,
                                               double timeout_s) {
    const Result<double> timeout = resolve_timeout(impl_->cfg_, timeout_s);
    if (!timeout.ok()) return timeout.status();

    std::shared_ptr<Impl::SessionSlot> slot;
    {
        std::lock_guard<std::mutex> lk(impl_->mu_);
        auto lane_it = impl_->lanes_.find(client);
        if (lane_it != impl_->lanes_.end()) {
            auto it = lane_it->second.sessions.find(name);
            if (it != lane_it->second.sessions.end()) slot = it->second;
        }
    }
    if (!slot)
        return Status::invalid_argument("no open session '" + name +
                                        "' for client '" + client + "'");
    for (const auto& [var, value] : assumptions) {
        (void)value;
        if (var >= slot->base.num_vars())
            return Status::invalid_argument(
                "assumption variable x" + std::to_string(var + 1) +
                " outside the session's variable space (" +
                std::to_string(slot->base.num_vars()) + " vars)");
    }

    auto job = std::make_shared<Impl::Job>();
    job->client = client;
    job->slot = std::move(slot);
    job->assumptions = std::move(assumptions);
    job->cfg = impl_->cfg_.engine;
    job->timeout_s = *timeout;
    return impl_->admit(std::move(job));
}

Status SolveService::close_session(const std::string& client,
                                   const std::string& name) {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    auto lane_it = impl_->lanes_.find(client);
    if (lane_it == impl_->lanes_.end() ||
        lane_it->second.sessions.erase(name) == 0)
        return Status::invalid_argument("no open session '" + name +
                                        "' for client '" + client + "'");
    return Status();
}

Result<JobState> SolveService::job_state(JobId id) const {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    auto it = impl_->jobs_.find(id);
    if (it == impl_->jobs_.end())
        return Status::invalid_argument("unknown job id " + std::to_string(id));
    return it->second->state;
}

Result<JobOutcome> SolveService::wait(JobId id, double wait_s) {
    std::unique_lock<std::mutex> lk(impl_->mu_);
    auto it = impl_->jobs_.find(id);
    if (it == impl_->jobs_.end())
        return Status::invalid_argument("unknown job id " + std::to_string(id));
    // Hold the job alive across the wait even if retention evicts it.
    std::shared_ptr<Impl::Job> job = it->second;

    const auto terminal = [&job] {
        return job->state != JobState::kQueued &&
               job->state != JobState::kRunning;
    };
    if (wait_s < 0.0) {
        impl_->cv_.wait(lk, terminal);
    } else if (!impl_->cv_.wait_for(
                   lk, std::chrono::duration<double>(wait_s), terminal)) {
        return Status::timeout("job " + std::to_string(id) + " still " +
                               job_state_name(job->state) + " after " +
                               std::to_string(wait_s) + "s");
    }

    JobOutcome out;
    out.id = id;
    out.state = job->state;
    out.error = job->error;
    out.report = job->report;
    out.queued_s = job->queued_s;
    out.run_s = job->run_s;
    out.timeout_s = job->timeout_s;
    return out;
}

Status SolveService::cancel(JobId id) {
    std::unique_lock<std::mutex> lk(impl_->mu_);
    auto it = impl_->jobs_.find(id);
    if (it == impl_->jobs_.end())
        return Status::invalid_argument("unknown job id " + std::to_string(id));
    std::shared_ptr<Impl::Job> job = it->second;
    if (job->state == JobState::kQueued) {
        // Cancelled in place; the queue entry is reaped by the scheduler.
        job->state = JobState::kCancelled;
        job->queued_s = job->since_submit.seconds();
        --impl_->queued_;
        ++impl_->stats_cancelled_;
        impl_->release_inflight_locked(job->client);
        impl_->retain_locked(id);
        lk.unlock();
        impl_->cv_.notify_all();
        return Status();
    }
    if (job->state == JobState::kRunning) job->cancel.request_cancel();
    return Status();  // terminal states: idempotent no-op
}

ServiceStats SolveService::stats() const {
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lk(impl_->mu_);
        s.accepted = impl_->stats_accepted_;
        s.rejected = impl_->stats_rejected_;
        s.deadline_rejected = impl_->stats_deadline_rejected_;
        s.client_disconnects = impl_->stats_client_disconnects_;
        s.ewma_run_s = impl_->ewma_run_s_;
        s.completed = impl_->stats_completed_;
        s.cancelled = impl_->stats_cancelled_;
        s.expired = impl_->stats_expired_;
        s.failed = impl_->stats_failed_;
        s.queued = impl_->queued_;
        s.running = impl_->running_;
        s.clients = impl_->lanes_.size();
        for (const auto& [key, lane] : impl_->lanes_) {
            s.open_sessions += lane.sessions.size();
            for (const auto& [name, slot] : lane.sessions)
                if (slot->session) ++s.warm_sessions;
        }
        s.par2_sum = impl_->par2_sum_;
        s.par2_jobs = impl_->par2_jobs_;
        s.backend_verdicts = impl_->backend_verdicts_;
        s.uptime_s = impl_->uptime_.seconds();
    }
    s.store = anf::MonomialStore::global().stats();

    // Process-global resilience / fault surface, read through so one
    // METRICS round trip shows the whole failure-handling picture.
    auto& inject = fault::FaultInjector::global();
    s.fault_plan = inject.plan();
    s.faults_injected = inject.total_fired();
    const auto& counters = sat::resilience_counters();
    s.resilience_attempts =
        counters.attempts.load(std::memory_order_relaxed);
    s.resilience_retries = counters.retries.load(std::memory_order_relaxed);
    s.resilience_fallbacks =
        counters.fallbacks.load(std::memory_order_relaxed);
    s.resilience_garbage =
        counters.garbage_rejected.load(std::memory_order_relaxed);
    s.resilience_exhausted =
        counters.exhausted.load(std::memory_order_relaxed);
    const auto& health = sat::BackendRegistry::global().health();
    s.circuit_opens = health.total_opens();
    s.circuits = health.snapshot();
    const auto& inproc = sat::inprocess::counters();
    s.inprocess_vivified_literals =
        inproc.vivified_literals.load(std::memory_order_relaxed);
    s.inprocess_vivified_clauses =
        inproc.vivified_clauses.load(std::memory_order_relaxed);
    s.inprocess_vivify_passes =
        inproc.vivify_passes.load(std::memory_order_relaxed);
    s.inprocess_reconf_decisions =
        inproc.reconf_decisions.load(std::memory_order_relaxed);
    s.inprocess_db_reductions =
        inproc.db_reductions.load(std::memory_order_relaxed);
    s.inprocess_tier_core = inproc.tier_core.load(std::memory_order_relaxed);
    s.inprocess_tier_mid = inproc.tier_mid.load(std::memory_order_relaxed);
    s.inprocess_tier_local =
        inproc.tier_local.load(std::memory_order_relaxed);
    return s;
}

void SolveService::note_client_disconnect() {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    ++impl_->stats_client_disconnects_;
}

void SolveService::shutdown() { impl_->shutdown(); }

}  // namespace bosphorus
