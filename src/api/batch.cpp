// The concurrent batch-solving runtime: BatchEngine::solve_all and the
// portfolio racer, built on the work-stealing pool + cancellation token +
// result queue under src/runtime/.
#include "bosphorus/batch.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <utility>

#include "bosphorus/session.h"
#include "runtime/fact_exchange.h"
#include "runtime/result_queue.h"
#include "runtime/thread_pool.h"
#include "util/timer.h"

namespace bosphorus {

Result<Assumption> assumption_from_literal(int64_t lit) {
    // The magnitude in unsigned arithmetic: -INT64_MIN overflows int64_t.
    const uint64_t var = lit < 0 ? 0 - uint64_t(lit) : uint64_t(lit);
    const uint64_t n_vars = uint64_t(std::numeric_limits<anf::Var>::max()) + 1;
    if (var == 0 || var > n_vars)
        return Status::invalid_argument(
            "assumption variable x" + std::to_string(var) +
            " outside the variable index range x1..x" + std::to_string(n_vars));
    return Assumption(static_cast<anf::Var>(var - 1), lit > 0);
}

// ---- BatchEngine -----------------------------------------------------------

BatchEngine::BatchEngine(EngineConfig cfg) : cfg_(cfg) {}

BatchEngine& BatchEngine::set_cancellation_token(
    runtime::CancellationToken token) {
    cancel_ = std::move(token);
    return *this;
}

unsigned BatchEngine::threads_for(size_t n_instances, unsigned n_threads) {
    // Clamp to the hardware: engine workloads are compute-bound, so extra
    // workers beyond the core count only add scheduling churn (measured as
    // a 0.95x "speedup" in BENCH_batch.json on a 1-core box before this
    // clamp existed).
    const unsigned hw = runtime::ThreadPool::default_thread_count();
    if (n_threads == 0 || n_threads > hw) n_threads = hw;
    return static_cast<unsigned>(std::min<size_t>(n_threads, n_instances));
}

std::vector<Result<Report>> BatchEngine::solve_all(
    const std::vector<Problem>& problems, unsigned n_threads,
    const BatchCallback& on_result) const {
    // Pre-size with the "never started" status; every launched task
    // overwrites its own slot, so whatever remains was skipped by a
    // cancellation that arrived before the task was picked up.
    std::vector<Result<Report>> out(
        problems.size(),
        Status::interrupted("batch cancelled before this instance started"));
    if (problems.empty()) return out;

    n_threads = threads_for(problems.size(), n_threads);

    // Snapshot the token: workers capture the copy, so a (misuse-y)
    // set_cancellation_token() racing the batch cannot tear a token read.
    const runtime::CancellationToken cancel = cancel_;
    EngineConfig cfg = cfg_;
    // Fact sharing requires every worker to solve the SAME problem (pool
    // facts are consequences of a shared base). solve_all instances are
    // distinct problems, so sharing here would be unsound: strip it.
    cfg.cooperative = false;
    cfg.fact_pool.reset();

    std::mutex callback_mutex;
    runtime::ThreadPool pool(n_threads);
    for (size_t i = 0; i < problems.size(); ++i) {
        pool.submit([&problems, &out, &on_result, &callback_mutex, &cancel,
                     &cfg, i] {
            if (!cancel.cancelled()) {
                // A private Engine per instance: techniques are stateful
                // across steps, and a private Rng seeded from cfg is what
                // makes the batch bit-identical to a sequential loop.
                try {
                    Engine engine(cfg);
                    engine.set_cancellation_token(cancel);
                    out[i] = engine.run(problems[i]);
                } catch (const std::exception& ex) {
                    // Keep the batch contract: a failure lands in its own
                    // slot instead of tearing down the whole pool.
                    out[i] = Status::internal(std::string("engine threw: ") +
                                              ex.what());
                }
            }
            if (on_result) {
                std::lock_guard<std::mutex> lk(callback_mutex);
                try {
                    on_result(i, out[i]);
                } catch (...) {
                    // A throwing observer must not tear down the pool; the
                    // result is already in its slot either way.
                }
            }
        });
    }
    pool.wait_idle();
    return out;
}

std::vector<Result<Report>> BatchEngine::solve_all_incremental(
    const Problem& base, const std::vector<AssumptionSet>& candidates,
    unsigned n_threads, const BatchCallback& on_result) const {
    std::vector<Result<Report>> out(
        candidates.size(),
        Status::interrupted("sweep cancelled before this candidate started"));
    if (candidates.empty()) return out;

    n_threads = threads_for(candidates.size(), n_threads);
    const runtime::CancellationToken cancel = cancel_;
    EngineConfig cfg = cfg_;
    // Sweep workers all hold the same base problem, so cooperative fact
    // sharing is sound: one pool for the sweep, one worker id per block.
    // (Each worker's Session publishes only base-consequence facts --
    // live-solver exports and depth-0 resolutions -- and imports
    // everything; see Session::solve and src/runtime/fact_exchange.h.)
    if (cfg.cooperative && !cfg.fact_pool)
        cfg.fact_pool =
            std::make_shared<runtime::SharedFactPool>(base.num_vars());

    // One contiguous block of candidates per worker: the partition is a
    // pure function of (candidate count, worker count), so a worker's
    // warm-start history -- and with it the whole result vector -- cannot
    // depend on scheduling.
    const size_t per_block =
        (candidates.size() + n_threads - 1) / n_threads;

    std::mutex callback_mutex;
    runtime::ThreadPool pool(n_threads);
    for (unsigned b = 0; b < n_threads; ++b) {
        const size_t begin = static_cast<size_t>(b) * per_block;
        const size_t end = std::min(candidates.size(), begin + per_block);
        if (begin >= end) break;
        pool.submit([&candidates, &out, &on_result, &callback_mutex, &cancel,
                     &cfg, &base, begin, end, b] {
            // The worker's private Session: the base is materialised and
            // simplified once for the whole block.
            std::unique_ptr<Session> session;
            for (size_t i = begin; i < end; ++i) {
                if (cancel.cancelled()) break;  // slots keep kInterrupted
                try {
                    if (!session) {
                        EngineConfig wcfg = cfg;
                        wcfg.coop_worker = b;  // distinct id per worker
                        session = std::make_unique<Session>(base, wcfg);
                        session->set_cancellation_token(cancel);
                    }
                    session->push();
                    Status bad;
                    for (const auto& [var, value] : candidates[i]) {
                        bad = session->assume(var, value);
                        if (!bad.ok()) break;
                    }
                    out[i] = bad.ok() ? session->solve() : Result<Report>(bad);
                    session->pop();
                } catch (const std::exception& ex) {
                    out[i] = Status::internal(
                        std::string("incremental solve threw: ") + ex.what());
                    session.reset();  // rebuild rather than trust its state
                }
                if (on_result) {
                    std::lock_guard<std::mutex> lk(callback_mutex);
                    try {
                        on_result(i, out[i]);
                    } catch (...) {
                        // Observer failures must not tear down the sweep.
                    }
                }
            }
        });
    }
    pool.wait_idle();
    return out;
}

// ---- portfolio -------------------------------------------------------------

std::vector<PortfolioEntry> default_portfolio(const EngineConfig& base) {
    std::vector<PortfolioEntry> entries;

    EngineConfig balanced = base;
    balanced.use_groebner = false;
    entries.push_back({"balanced", balanced});

    EngineConfig xl_heavy = base;
    xl_heavy.use_groebner = false;
    xl_heavy.use_elimlin = false;
    xl_heavy.xl.degree = std::max(2u, base.xl.degree);
    xl_heavy.xl.delta_m = base.xl.delta_m + 2;
    entries.push_back({"xl-heavy", xl_heavy});

    EngineConfig el_heavy = base;
    el_heavy.use_groebner = false;
    el_heavy.use_xl = false;
    el_heavy.elimlin.max_iterations = base.elimlin.max_iterations * 2;
    entries.push_back({"elimlin-heavy", el_heavy});

    EngineConfig groebner = base;
    groebner.use_groebner = true;
    entries.push_back({"groebner", groebner});

    // Decorrelate the subsampling choices across the portfolio.
    for (size_t i = 0; i < entries.size(); ++i)
        entries[i].config.seed = base.seed + i;
    return entries;
}

std::vector<PortfolioEntry> backend_portfolio(
    const EngineConfig& base, const std::vector<sat::SolverSpec>& backends) {
    std::vector<PortfolioEntry> entries;
    entries.reserve(backends.size());
    for (const auto& spec : backends) {
        EngineConfig cfg = base;
        cfg.sat_backend = spec.spec;
        // Same seed everywhere: the entries must differ in nothing but
        // the back end, so the race isolates the solver axis.
        entries.push_back(
            {spec.spec.empty() ? std::string("native") : spec.spec, cfg});
    }
    return entries;
}

std::vector<PortfolioEntry> default_backend_portfolio(
    const EngineConfig& base) {
    return backend_portfolio(base, {"minisat", "lingeling", "cms"});
}

Result<PortfolioReport> solve_portfolio(const Problem& problem,
                                        const std::vector<PortfolioEntry>& entries,
                                        unsigned n_threads,
                                        runtime::CancellationToken cancel) {
    if (entries.empty())
        return Status::invalid_argument(
            "solve_portfolio: the entry list is empty");

    Timer timer;
    const size_t k = entries.size();
    // Same oversubscription clamp as BatchEngine::threads_for.
    const unsigned hw = runtime::ThreadPool::default_thread_count();
    if (n_threads == 0 || n_threads > hw) n_threads = hw;
    n_threads = static_cast<unsigned>(std::min<size_t>(n_threads, k));

    // Cooperative entries share one fact pool over the problem's original
    // variables (CNF auxiliaries differ per entry and are rejected by the
    // pool's variable bound). Entries that brought their own pool keep it
    // -- and their caller-assigned worker id with it.
    std::vector<PortfolioEntry> running = entries;
    std::shared_ptr<runtime::SharedFactPool> pool_shared;
    for (size_t i = 0; i < k; ++i) {
        EngineConfig& c = running[i].config;
        if (!c.cooperative || c.fact_pool) continue;
        if (!pool_shared)
            pool_shared =
                std::make_shared<runtime::SharedFactPool>(problem.num_vars());
        c.fact_pool = pool_shared;
        c.coop_worker = static_cast<unsigned>(i);
    }

    // The race-internal source fires when a decisive winner lands; each
    // worker token also observes the caller's external token.
    runtime::CancellationSource race_cancel;
    const runtime::CancellationToken worker_token =
        runtime::CancellationToken::linked(
            race_cancel.token(),
            [external = std::move(cancel)] { return external.cancelled(); });

    std::vector<Result<Report>> results(
        k, Status::internal("portfolio entry did not run"));
    std::vector<double> entry_seconds(k, 0.0);

    // Finish order, not submission order: the queue is what lets the race
    // cancel the losers the moment the first decisive verdict arrives.
    runtime::ResultQueue<size_t> finished;

    size_t winner = SIZE_MAX;  // first decisive finisher
    {
        runtime::ThreadPool pool(n_threads);
        for (size_t i = 0; i < k; ++i) {
            pool.submit([&, i] {
                Timer entry_timer;
                try {
                    Engine engine(running[i].config);
                    engine.set_cancellation_token(worker_token);
                    results[i] = engine.run(problem);
                } catch (const std::exception& ex) {
                    results[i] = Status::internal(
                        std::string("portfolio entry threw: ") + ex.what());
                }
                entry_seconds[i] = entry_timer.seconds();
                finished.push(i);  // every worker pushes, even on failure
            });
        }
        for (size_t received = 0; received < k; ++received) {
            const std::optional<size_t> idx = finished.pop();
            if (!idx) break;  // unreachable: every worker pushes exactly once
            const Result<Report>& r = results[*idx];
            if (winner == SIZE_MAX && r.ok() &&
                r->verdict != sat::Result::kUnknown) {
                winner = *idx;
                race_cancel.request_cancel();
            }
        }
    }  // pool joins: all slots written

    PortfolioReport rep;
    rep.outcomes.reserve(k);
    for (size_t i = 0; i < k; ++i) {
        PortfolioOutcome o;
        o.name = entries[i].name;
        o.seconds = entry_seconds[i];
        if (results[i].ok()) {
            const Report& r = *results[i];
            o.verdict = r.verdict;
            o.interrupted = r.interrupted;
            o.timed_out = r.timed_out;
            o.iterations = r.iterations;
            o.facts = r.total_facts();
            o.facts_imported = r.facts_imported;
            o.facts_published = r.facts_published;
        } else {
            o.errored = true;
        }
        rep.outcomes.push_back(std::move(o));
    }

    if (winner == SIZE_MAX) {
        // Nobody decided: the most productive healthy entry wins (lowest
        // index on ties, so the choice is deterministic given the reports).
        size_t best_facts = 0;
        for (size_t i = 0; i < k; ++i) {
            if (!results[i].ok()) continue;
            if (winner == SIZE_MAX || results[i]->total_facts() > best_facts) {
                winner = i;
                best_facts = results[i]->total_facts();
            }
        }
        if (winner == SIZE_MAX) return results[0].status();  // all errored
    }

    rep.winner = winner;
    rep.winner_name = entries[winner].name;
    rep.report = std::move(results[winner].value());
    rep.seconds = timer.seconds();
    if (pool_shared) {
        rep.facts_shared = pool_shared->published();
        rep.facts_suppressed = pool_shared->suppressed();
    }
    return rep;
}

}  // namespace bosphorus
