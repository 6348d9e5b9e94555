// The incremental Session: persistent master AnfSystem with push/pop
// scopes over the snapshot/trail in core/anf_system.h, and the
// fact-learning loop both Session::solve and (via a throwaway Session)
// Engine::run execute.
#include "bosphorus/session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "bosphorus/bosphorus.h"
#include "core/cnf_to_anf.h"
#include "util/log.h"
#include "util/timer.h"

namespace bosphorus {

using anf::Polynomial;

// ---- version ---------------------------------------------------------------

#define BOSPHORUS_STRINGIFY_IMPL(x) #x
#define BOSPHORUS_STRINGIFY(x) BOSPHORUS_STRINGIFY_IMPL(x)

const char* version() {
    return BOSPHORUS_STRINGIFY(BOSPHORUS_VERSION_MAJOR) "." BOSPHORUS_STRINGIFY(
        BOSPHORUS_VERSION_MINOR);
}

// ---- construction ----------------------------------------------------------

Session::Materialized Session::materialize(const Problem& problem,
                                           const EngineConfig& cfg) {
    Materialized m;  // m.timer starts here; it keeps running until the
                     // delegated constructor body reads setup_seconds_
    if (problem.kind() == Problem::Kind::kCnf) {
        core::Cnf2AnfResult conv =
            core::cnf_to_anf(problem.cnf(), cfg.clause_cut);
        m.polys = std::move(conv.polys);
        m.num_vars = conv.num_vars;
        m.num_original_vars = problem.cnf().num_vars;
    } else {
        m.polys = problem.polynomials();
        m.num_vars = problem.num_vars();
        m.num_original_vars = m.num_vars;
    }
    return m;
}

Session::Session(const Problem& problem, EngineConfig cfg)
    : Session(materialize(problem, cfg), std::move(cfg),
              /*build_registry=*/true, /*enable_warm=*/true) {}

Session::Session(const Problem& problem, EngineConfig cfg, OneShotTag)
    : Session(materialize(problem, cfg), std::move(cfg),
              /*build_registry=*/false, /*enable_warm=*/false) {}

Session::Session(Materialized m, EngineConfig cfg, bool build_registry,
                 bool enable_warm)
    : cfg_(std::move(cfg)),
      sys_(std::move(m.polys), m.num_vars),
      num_vars_(m.num_vars),
      num_original_vars_(m.num_original_vars),
      enable_warm_(enable_warm) {
    if (const std::string bad = cfg_.conv.check(); !bad.empty())
        config_error_ = Status::invalid_argument("EngineConfig::conv: " + bad);
    if (build_registry) techniques_ = make_default_techniques(cfg_);
    // Covers CNF conversion *and* the master system's initial propagation
    // (the sys_ member construction above).
    setup_seconds_ = m.timer.seconds();
}

Session::~Session() = default;

// ---- scopes ----------------------------------------------------------------

Status Session::add(const Polynomial& p) {
    const size_t bound = p.var_bound();
    if (bound > num_vars_) {
        return Status::invalid_argument(
            "Session::add: polynomial mentions variable x" +
            std::to_string(bound) + " outside the problem's " +
            std::to_string(num_vars_) + "-variable space");
    }
    sys_.add_original(p);
    if (frames_.empty()) {
        needs_bind_ = true;  // the persistent base grew: rebind lazily
        // The base is now stronger than the constructed problem: its
        // consequences are no longer publishable to a shared fact pool.
        coop_base_is_problem_ = false;
    } else {
        frames_.back().free_adds = true;  // cold path until this scope pops
    }
    return {};
}

Status Session::assume(anf::Var v, bool value) {
    if (v >= num_vars_) {
        return Status::invalid_argument(
            "Session::assume: variable x" + std::to_string(v + 1) +
            " outside the problem's " + std::to_string(num_vars_) +
            "-variable space");
    }
    // The equation x = value, i.e. the polynomial x (+ 1); propagation
    // turns it into a fixed variable, which is exactly what the warm SAT
    // step forwards as a native assumption literal.
    Polynomial f = Polynomial::variable(v);
    if (value) f += Polynomial::constant(true);
    sys_.add_original(f);
    // Depth-0 assumptions are permanent: the base outgrows the problem.
    if (frames_.empty()) coop_base_is_problem_ = false;
    return {};
}

Status Session::push() {
    if (frames_.empty()) rebind_if_needed();  // capture the base pre-scope
    frames_.push_back(Frame{sys_.snapshot(), false});
    return {};
}

Status Session::pop() {
    if (frames_.empty()) {
        return Status::invalid_argument(
            "Session::pop: no open scope (push/pop must balance)");
    }
    sys_.restore(frames_.back().snap);
    frames_.pop_back();
    // No scope left means no snapshot left to rewind to: drop the trails
    // so depth-0 work between sweeps doesn't accumulate them forever.
    if (frames_.empty()) sys_.clear_trail();
    return {};
}

bool Session::okay() const { return sys_.okay(); }

// ---- registry & hooks ------------------------------------------------------

Session& Session::add_technique(std::unique_ptr<Technique> technique) {
    techniques_.push_back(std::move(technique));
    needs_bind_ = true;  // the newcomer has never seen the base
    return *this;
}

Session& Session::clear_techniques() {
    techniques_.clear();
    needs_bind_ = true;
    return *this;
}

std::vector<std::string> Session::technique_names() const {
    std::vector<std::string> names;
    names.reserve(techniques_.size());
    for (const auto& t : techniques_) names.push_back(t->name());
    return names;
}

Session& Session::set_interrupt_callback(InterruptCallback cb) {
    interrupt_ = std::move(cb);
    return *this;
}

Session& Session::set_progress_callback(ProgressCallback cb) {
    progress_ = std::move(cb);
    return *this;
}

Session& Session::set_cancellation_token(runtime::CancellationToken token) {
    cancel_ = std::move(token);
    return *this;
}

// ---- warm-base bookkeeping -------------------------------------------------

void Session::rebind_if_needed() {
    if (!enable_warm_ || !needs_bind_ || !frames_.empty() ||
        !config_error_.ok())
        return;
    const std::vector<Polynomial> base = sys_.to_polynomials();
    for (const auto& t : techniques_) t->bind_base(base, num_vars_);
    needs_bind_ = false;
    bound_ = true;
    coop_bound_publishable_ = coop_base_is_problem_;
}

bool Session::warm_valid() const {
    if (!enable_warm_ || !bound_ || needs_bind_) return false;
    for (const Frame& f : frames_)
        if (f.free_adds) return false;
    return true;
}

// ---- cooperative fact exchange ---------------------------------------------

// Drain foreign facts from the shared pool and inject the unit ones into
// the master ANF as learnt facts (binaries are consumed at the SAT layer
// through the technique's own cursor -- see SatTechniqueConfig::fact_pool
// -- where a clausal fact is directly expressible). Every pool fact is a
// consequence of the shared base problem, which this session's system
// contains, so injection at any scope preserves the solution set.
size_t Session::coop_import_anf() {
    coop_buf_.clear();
    const size_t drained =
        cfg_.fact_pool->import(coop_cursor_, cfg_.coop_worker, coop_buf_);
    for (const runtime::SharedFact& f : coop_buf_) {
        if (f.kind != runtime::SharedFact::Kind::kUnit) continue;
        if (f.a.var() >= num_vars_) continue;
        // Literal f.a is true: x = !sign, i.e. the polynomial x (+ 1).
        Polynomial p = Polynomial::variable(f.a.var());
        if (!f.a.sign()) p += Polynomial::constant(true);
        sys_.add_fact(p);
        if (!sys_.okay()) break;
    }
    return drained;
}

// Publish this session's resolved variables: fixed vars as units, and
// equivalences as the two binary clauses importers pair back up into an
// ANF equivalence. Only sound when the current system IS the shared base
// problem (depth 0, no user constraints) -- callers gate on that. The
// pool's duplicate filter absorbs re-publishes across iterations.
size_t Session::coop_publish_anf() {
    runtime::SharedFactPool& pool = *cfg_.fact_pool;
    const size_t limit = std::min(num_vars_, pool.num_shared_vars());
    size_t published = 0;
    for (anf::Var v = 0; v < limit; ++v) {
        const core::VarState st = sys_.resolve(v);
        if (st.kind == core::VarState::Kind::kFixed) {
            // The literal that is TRUE under the fixing.
            if (pool.publish_unit(cfg_.coop_worker, sat::mk_lit(v, !st.value)))
                ++published;
        } else if (st.kind == core::VarState::Kind::kReplaced &&
                   st.root < limit) {
            // v == root ^ flip: clauses (~v | r^flip) and (v | ~(r^flip)).
            if (pool.publish_binary(cfg_.coop_worker, sat::mk_lit(v, true),
                                    sat::mk_lit(st.root, st.flip)))
                ++published;
            if (pool.publish_binary(cfg_.coop_worker, sat::mk_lit(v, false),
                                    sat::mk_lit(st.root, !st.flip)))
                ++published;
        }
    }
    return published;
}

// ---- the fact-learning loop ------------------------------------------------

Result<Report> Session::solve() {
    if (!config_error_.ok()) return config_error_;
    Timer timer;
    // The first solve is charged the session's construction cost, so a
    // one-shot run (Engine::run) budgets and reports materialisation +
    // initial propagation exactly like the pre-Session loop did.
    const double charged = solves_done_ == 0 ? setup_seconds_ : 0.0;
    auto elapsed = [&]() { return charged + timer.seconds(); };
    Log log{cfg_.verbosity};
    Rng rng(cfg_.seed);
    Report rep;
    rep.num_vars = num_vars_;
    rep.num_original_vars = num_original_vars_;

    if (frames_.empty()) rebind_if_needed();
    const bool warm = warm_valid();

    rep.techniques.reserve(techniques_.size());
    for (const auto& t : techniques_) {
        if (solves_done_ == 0)
            t->begin_run();
        else
            t->reset_for_resolve();
        rep.techniques.push_back({t->name(), 0, 0});
    }
    ++solves_done_;

    auto out_of_time = [&]() {
        if (elapsed() > cfg_.time_budget_s) {
            rep.timed_out = true;
            return true;
        }
        return false;
    };

    // One stop signal for the whole solve: the external cancellation token
    // (batch shutdown, portfolio loser) folded with the user's interrupt
    // callback. Handed into every FactSink so the core loops poll it at
    // iteration boundaries -- cancellation lands mid-step, not only
    // between steps.
    const runtime::CancellationToken stop =
        runtime::CancellationToken::linked(cancel_, interrupt_);

    // Cooperative fact exchange: at every iteration boundary drain the
    // other workers' facts into the master ANF and publish this system's
    // resolved variables back (the SAT technique additionally exchanges
    // clause-level facts through its own cursor). Publishing is gated on
    // the current system being exactly the shared base problem; importing
    // is always sound (the pool only carries base consequences).
    const bool coop = cfg_.cooperative && cfg_.fact_pool != nullptr;
    const bool coop_cold_ok =
        coop && frames_.empty() && coop_base_is_problem_;
    const bool coop_warm_ok = coop && coop_bound_publishable_;

    bool halted = false;  // a technique decided, or an interrupt arrived
    for (rep.iterations = 0;
         sys_.okay() && rep.iterations < cfg_.max_iterations && !out_of_time();
         ++rep.iterations) {
        bool changed = false;
        if (coop) rep.facts_imported += coop_import_anf();

        for (size_t ti = 0; ti < techniques_.size(); ++ti) {
            if (!sys_.okay() || out_of_time()) break;
            if (stop.cancelled()) {
                rep.interrupted = true;
                halted = true;
                break;
            }

            Technique& tech = *techniques_[ti];
            FactSink sink(sys_, rng, cfg_.time_budget_s - elapsed(),
                          rep.iterations, cfg_.verbosity, stop, warm,
                          coop_cold_ok, coop_warm_ok);
            StepReport sr = tech.step(sys_, sink);
            if (!sr.status.ok()) return sr.status;
            rep.facts_imported += sink.coop_imported();
            rep.facts_published += sink.coop_published();

            const size_t fresh = sink.fresh() + sr.facts_fresh;
            rep.techniques[ti].steps += 1;
            rep.techniques[ti].facts += fresh;
            changed |= fresh > 0;

            if (progress_) {
                Progress p;
                p.iteration = rep.iterations;
                p.technique = rep.techniques[ti].name;
                p.facts_seen = sink.seen() + sr.facts_seen;
                p.facts_fresh = fresh;
                p.total_facts = rep.total_facts();
                p.elapsed_s = elapsed();
                progress_(p);
            }

            if (sr.decided) {
                if (*sr.decided == sat::Result::kSat) {
                    rep.verdict = sat::Result::kSat;
                    rep.solution = std::move(sr.solution);
                }
                halted = true;
                break;
            }
        }

        if (coop_cold_ok && sys_.okay())
            rep.facts_published += coop_publish_anf();

        if (halted || !changed) break;  // decision/interrupt or fixed point
    }

    // A cancellation that landed inside the final step (core loops bailed
    // early, loop then exited on "no change") is still an interruption.
    if (!halted && rep.verdict == sat::Result::kUnknown && stop.cancelled())
        rep.interrupted = true;

    if (!sys_.okay()) rep.verdict = sat::Result::kUnsat;

    rep.processed_anf = sys_.to_polynomials();
    rep.vars_fixed = sys_.num_fixed();
    rep.vars_replaced = sys_.num_replaced();
    rep.seconds = elapsed();
    log.info(1,
             "session: solve #%zu depth %zu %s, %zu iterations, %zu facts, "
             "fixed=%zu replaced=%zu, %.2fs",
             solves_done_, frames_.size(), warm ? "warm" : "cold",
             rep.iterations, rep.total_facts(), rep.vars_fixed,
             rep.vars_replaced, rep.seconds);
    return rep;
}

}  // namespace bosphorus
