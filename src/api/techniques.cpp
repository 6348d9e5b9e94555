// The four built-in learning techniques, packaged as Engine plugins.
#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "bosphorus/engine.h"
#include "bosphorus/sat_backend.h"
#include "bosphorus/technique.h"
#include "core/anf_system.h"
#include "runtime/fact_exchange.h"
#include "util/log.h"

namespace bosphorus {

using anf::Polynomial;
using anf::Var;

namespace {

/// Feed a batch of facts through the sink, stopping on contradiction.
void deposit(FactSink& sink, const std::vector<Polynomial>& facts) {
    for (const auto& f : facts) {
        sink.add(f);
        if (!sink.okay()) break;
    }
}

class XlTechnique final : public Technique {
public:
    explicit XlTechnique(const core::XlConfig& cfg) : cfg_(cfg) {}
    std::string name() const override { return "xl"; }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        core::XlStats stats;
        const auto facts = core::run_xl(sys.equations(), cfg_, sink.rng(),
                                        &stats, sink.cancel_token());
        deposit(sink, facts);
        Log{sink.verbosity()}.info(
            2, "iter %zu XL: %zu rows, %zu cols, %zu facts (%zu new)",
            sink.iteration(), stats.expanded_rows, stats.columns, facts.size(),
            sink.fresh());
        return {};
    }

private:
    core::XlConfig cfg_;
};

class ElimLinTechnique final : public Technique {
public:
    explicit ElimLinTechnique(const core::ElimLinConfig& cfg) : cfg_(cfg) {}
    std::string name() const override { return "elimlin"; }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        core::ElimLinStats stats;
        const auto facts = core::run_elimlin(sys.equations(), cfg_,
                                             sink.rng(), &stats,
                                             sink.cancel_token());
        deposit(sink, facts);
        Log{sink.verbosity()}.info(
            2, "iter %zu ElimLin: %zu iters, %zu facts (%zu new)",
            sink.iteration(), stats.iterations, facts.size(), sink.fresh());
        return {};
    }

private:
    core::ElimLinConfig cfg_;
};

class GroebnerTechnique final : public Technique {
public:
    explicit GroebnerTechnique(const core::GroebnerConfig& cfg) : cfg_(cfg) {}
    std::string name() const override { return "groebner"; }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        core::GroebnerStats stats;
        const auto facts = core::run_groebner(sys.equations(), cfg_,
                                              sink.rng(), &stats,
                                              sink.cancel_token());
        deposit(sink, facts);
        Log{sink.verbosity()}.info(
            2, "iter %zu Groebner: %zu spairs, %zu facts (%zu new)",
            sink.iteration(), stats.spairs_formed, facts.size(), sink.fresh());
        return {};
    }

private:
    core::GroebnerConfig cfg_;
};

/// Learnt binary clauses pair up into equivalences: (a|b) & (!a|!b) means
/// a == !b, and (a|!b) & (!a|b) means a == b. Returns linear polynomials.
std::vector<Polynomial> equivalences_from_binaries(
    const std::vector<std::array<sat::Lit, 2>>& binaries, size_t num_anf_vars) {
    // Key: unordered variable pair; value: bitmask of seen sign patterns.
    std::map<std::pair<sat::Var, sat::Var>, unsigned> seen;
    for (const auto& b : binaries) {
        sat::Lit l0 = b[0], l1 = b[1];
        if (l0.var() > l1.var()) std::swap(l0, l1);
        if (l0.var() >= num_anf_vars || l1.var() >= num_anf_vars) continue;
        if (l0.var() == l1.var()) continue;
        const unsigned pattern =
            (l0.sign() ? 1u : 0u) | (l1.sign() ? 2u : 0u);
        seen[{l0.var(), l1.var()}] |= 1u << pattern;
    }
    std::vector<Polynomial> out;
    for (const auto& [vars, mask] : seen) {
        const auto [a, b] = vars;
        // patterns: 0 = (a|b), 1 = (!a|b), 2 = (a|!b), 3 = (!a|!b)
        const bool anti = (mask & (1u << 0)) && (mask & (1u << 3));
        const bool equal = (mask & (1u << 1)) && (mask & (1u << 2));
        if (anti) {
            // a + b + 1 = 0
            out.push_back(Polynomial::variable(a) + Polynomial::variable(b) +
                          Polynomial::constant(true));
        }
        if (equal) {
            out.push_back(Polynomial::variable(a) + Polynomial::variable(b));
        }
    }
    return out;
}

/// Shared kSat epilogue of both SAT-step paths: read the assignment from
/// the backend's model, verify it against the live system, and either
/// decide kSat with the solution or halt without a verdict.
void decide_from_model(core::AnfSystem& sys, const sat::SolverBackend& b,
                       StepReport& report) {
    std::vector<bool> assignment(sys.num_vars(), false);
    for (Var v = 0; v < assignment.size(); ++v)
        assignment[v] = b.value(v) == sat::LBool::kTrue;
    if (sys.check_solution(assignment)) {
        report.decided = sat::Result::kSat;
        report.solution = std::move(assignment);
    } else {
        // Model fails verification: halt without a verdict.
        report.decided = sat::Result::kUnknown;
    }
}

class SatTechnique final : public Technique {
public:
    explicit SatTechnique(const EngineConfig& cfg)
        : cfg_(cfg), conflict_budget_(cfg.sat_conflicts_start) {
        // Without `cooperative` the step stays isolated, pool or not.
        if (!cfg_.cooperative) cfg_.fact_pool.reset();
    }
    std::string name() const override { return "sat"; }

    void begin_run() override { conflict_budget_ = cfg_.sat_conflicts_start; }

    /// Warm re-solve: restart the conflict-budget schedule but keep the
    /// live solver (and everything it has learnt about the base system).
    void reset_for_resolve() override {
        conflict_budget_ = cfg_.sat_conflicts_start;
    }

    /// Build the persistent solver for a Session's base system. It is
    /// loaded once and reused across every warm solve; scoped state
    /// reaches it as assumption literals in step_live().
    void bind_base(const std::vector<Polynomial>& base,
                   size_t num_vars) override {
        // A fresh persistent solver has none of the cached foreign facts:
        // re-inject them all on the next live step.
        coop_live_added_ = 0;
        live_.reset();
        auto backend = make_backend();
        if (!backend.ok()) {
            backend_error_ = backend.status();
            return;
        }
        backend_error_ = Status();
        live_ = std::move(*backend);
        const core::Anf2CnfResult conv = to_cnf(base, num_vars, *live_);
        live_num_anf_vars_ = conv.num_anf_vars;
        live_->load(conv.cnf);  // a false return leaves okay() false: UNSAT
    }

    // ---- cooperative fact exchange (src/runtime/fact_exchange.h) ----
    //
    // With a SharedFactPool configured, foreign learnt facts are drained
    // into `coop_clauses_` (a local cache, because the cold path builds a
    // fresh solver per step and must re-inject everything) and added as
    // clauses before every solve round; own harvests are published back.
    // Every cached fact is a consequence of the shared base problem, so
    // injection is sound into any solver over a system that contains the
    // base -- cold, live, scoped or not.

    /// Drain newly published foreign facts into the cache, crediting the
    /// step's import tally. Returns the number drained.
    size_t coop_refresh(FactSink& sink) {
        if (!cfg_.fact_pool) return 0;
        const size_t n = cfg_.fact_pool->import(coop_cursor_, cfg_.coop_worker,
                                                coop_clauses_);
        if (n) sink.count_coop_imported(n);
        return n;
    }

    /// Add cached facts [from, end) as clauses to `b`, skipping facts
    /// over variables the target encoding does not map identically
    /// (>= n_anf_vars; cannot happen for correctly sized pools, kept as a
    /// guard). Returns the new cache end.
    size_t coop_inject(size_t from, size_t n_anf_vars,
                       sat::SolverBackend& b) const {
        for (size_t i = from; i < coop_clauses_.size(); ++i) {
            const runtime::SharedFact& f = coop_clauses_[i];
            if (f.kind == runtime::SharedFact::Kind::kUnit) {
                if (f.a.var() < n_anf_vars) b.add_clause({f.a});
            } else if (f.a.var() < n_anf_vars && f.b.var() < n_anf_vars) {
                b.add_clause({f.a, f.b});
            }
        }
        return coop_clauses_.size();
    }

    /// Publish a solver's learnt units and binaries to the pool (which
    /// itself rejects variables outside the shared space -- that is how
    /// CNF auxiliaries above the original problem vars are filtered).
    /// Callers gate cold-path publishes on FactSink::coop_publish_base().
    void coop_publish(const std::vector<sat::Lit>& units,
                      const std::vector<std::array<sat::Lit, 2>>& binaries,
                      FactSink& sink) {
        if (!cfg_.fact_pool) return;
        runtime::SharedFactPool& pool = *cfg_.fact_pool;
        size_t published = 0;
        for (const sat::Lit u : units)
            if (pool.publish_unit(cfg_.coop_worker, u)) ++published;
        for (const auto& b : binaries)
            if (pool.publish_binary(cfg_.coop_worker, b[0], b[1])) ++published;
        if (published) sink.count_coop_published(published);
    }

    StepReport step(core::AnfSystem& sys, FactSink& sink) override {
        if (!backend_error_.ok()) {
            StepReport report;
            report.status = backend_error_;
            return report;
        }
        if (live_ && sink.warm_base_valid()) return step_live(sys, sink);
        return step_cold(sys, sink);
    }

private:
    /// The one place a SAT-step solver is built: the named registry
    /// backend, else the native XOR-enabled solver tuned by the
    /// in-processing knobs.
    ::bosphorus::Result<std::unique_ptr<sat::SolverBackend>> make_backend()
        const {
        if (!cfg_.sat_backend.empty())
            return sat::BackendRegistry::global().create(
                sat::SolverSpec{cfg_.sat_backend});
        sat::Solver::Config scfg;
        scfg.enable_xor = true;
        scfg.inprocess.enabled = cfg_.sat_inprocess;
        scfg.inprocess.profile = cfg_.sat_profile;
        if (cfg_.sat_restart_base > 0)
            scfg.restart_base = cfg_.sat_restart_base;
        if (cfg_.sat_learnt_db_floor > 0)
            scfg.inprocess.local_cap_min =
                static_cast<size_t>(cfg_.sat_learnt_db_floor);
        return sat::make_native_backend(scfg);
    }

    /// Convert `polys` to CNF for `b`: native XORs whenever the backend
    /// handles them.
    core::Anf2CnfResult to_cnf(const std::vector<Polynomial>& polys,
                               size_t num_vars,
                               const sat::SolverBackend& b) const {
        core::Anf2CnfConfig conv_cfg = cfg_.conv;
        conv_cfg.native_xor = b.supports_native_xor();
        return core::anf_to_cnf(polys, num_vars, conv_cfg);
    }

    /// Verdict handling shared by both paths. Returns true iff the solve
    /// was undecided, i.e. the caller should go on to harvest facts.
    bool undecided(sat::Result r, const sat::SolverBackend& b,
                   core::AnfSystem& sys, FactSink& sink,
                   StepReport& report) {
        if (r == sat::Result::kUnsat || !b.okay()) {
            // The learnt fact is the contradictory equation 1 = 0. Under a
            // live step's assumptions it holds only in the current scope;
            // pop() un-derives it.
            sink.add(Polynomial::constant(true));
            return false;
        }
        if (r == sat::Result::kSat) {
            // A full solution: report it and stop the loop. It is not used
            // to simplify the ANF (it may not be unique).
            decide_from_model(sys, b, report);
            return false;
        }
        return true;
    }

    /// Deposit a solver's accumulated linear facts -- learnt units and
    /// equivalences paired up from learnt binaries -- restricted to the
    /// first `n_anf_vars` variables. Returns false once the sink reports
    /// contradiction.
    bool harvest(const std::vector<sat::Lit>& units,
                 const std::vector<std::array<sat::Lit, 2>>& binaries,
                 size_t n_anf_vars, FactSink& sink) {
        for (const sat::Lit u : units) {
            if (u.var() >= n_anf_vars) continue;
            // u true: var = !sign  ->  polynomial x (+ 1).
            Polynomial f = Polynomial::variable(u.var());
            if (!u.sign()) f += Polynomial::constant(true);
            sink.add(f);
            if (!sink.okay()) return false;
        }
        deposit(sink, equivalences_from_binaries(binaries, n_anf_vars));
        return sink.okay();
    }

    /// The one-shot path: convert the current (scope-simplified) system
    /// to CNF and run a fresh bounded backend over it. Whatever facts the
    /// backend can export are harvested (external processes export none
    /// -- the step still decides SAT/UNSAT and escalates its budget).
    StepReport step_cold(core::AnfSystem& sys, FactSink& sink) {
        StepReport report;
        // The solve below is already bounded by conflicts + wall clock;
        // polling here keeps a cancelled engine from paying for the CNF
        // conversion and solver setup at all.
        if (sink.cancelled()) return report;

        auto made = make_backend();
        if (!made.ok()) {
            report.status = made.status();
            return report;
        }
        sat::SolverBackend& b = **made;
        const core::Anf2CnfResult conv =
            to_cnf(sys.to_polynomials(), sys.num_vars(), b);

        // Cancellation reaches a *running* solve through the terminate
        // hook (portfolio losers stop mid-budget, not at the step end).
        b.set_terminate_callback(
            [token = sink.cancel_token()] { return token.cancelled(); });
        const double remaining = std::max(0.1, sink.time_remaining_s());
        sat::Result r = sat::Result::kUnsat;
        if (b.load(conv.cnf)) {
            coop_refresh(sink);
            coop_inject(0, conv.num_anf_vars, b);
            if (b.okay()) r = b.solve(conflict_budget_, remaining);
        }
        if (!undecided(r, b, sys, sink, report)) return report;

        // Undecided within the conflict budget: extract linear equations
        // from the learnt unit and binary clauses.
        const std::vector<sat::Lit> units = b.learnt_units();
        const std::vector<std::array<sat::Lit, 2>> binaries =
            b.learnt_binaries();
        if (!harvest(units, binaries, conv.num_anf_vars, sink)) return report;
        // Cold harvests are consequences of the *current* (possibly
        // scoped) system: only share them when that system is the base.
        if (sink.coop_publish_base()) coop_publish(units, binaries, sink);
        if (sink.fresh() == 0) {
            // No new facts: raise the conflict budget (section IV).
            conflict_budget_ =
                std::min(cfg_.sat_conflicts_max,
                         conflict_budget_ + cfg_.sat_conflicts_step);
        }
        Log{sink.verbosity()}.info(
            2, "iter %zu SAT(%s): budget %lld, %zu new facts",
            sink.iteration(), b.name().c_str(),
            static_cast<long long>(conflict_budget_), sink.fresh());
        return report;
    }

    /// The incremental path: no CNF conversion, no solver construction.
    /// The live backend holds the base system (plus everything it has
    /// learnt); the current scope reaches it purely as assumption
    /// literals -- one per variable the AnfSystem has fixed. Sound
    /// because every scoped constraint is itself such a literal
    /// (FactSink::warm_base_valid guards this), so base CNF + assumptions
    /// is logically equivalent to the live system. Backends without
    /// native assumptions degrade them to a cold solve internally --
    /// verdict-equivalent either way.
    StepReport step_live(core::AnfSystem& sys, FactSink& sink) {
        StepReport report;
        if (sink.cancelled()) return report;

        sat::SolverBackend& b = *live_;
        if (!b.okay()) {
            sink.add(Polynomial::constant(true));  // base itself is UNSAT
            return report;
        }
        b.set_terminate_callback(
            [token = sink.cancel_token()] { return token.cancelled(); });

        // Inject foreign facts the persistent solver has not seen yet.
        // They are base consequences, so they may be added permanently.
        coop_refresh(sink);
        if (coop_live_added_ < coop_clauses_.size()) {
            coop_live_added_ =
                coop_inject(coop_live_added_, live_num_anf_vars_, b);
            if (!b.okay()) {
                sink.add(Polynomial::constant(true));
                return report;
            }
        }

        const size_t num_vars = sys.num_vars();
        size_t n_assumed = 0;
        for (Var v = 0; v < num_vars && v < live_num_anf_vars_; ++v) {
            const core::VarState st = sys.resolve(v);
            if (st.kind == core::VarState::Kind::kFixed) {
                b.assume(sat::mk_lit(v, !st.value));
                ++n_assumed;
            }
        }

        const double remaining = std::max(0.1, sink.time_remaining_s());
        const sat::Result r = b.solve(conflict_budget_, remaining);
        if (!undecided(r, b, sys, sink, report)) return report;

        // Undecided: harvest linear facts. Learnt units live on the
        // solver's level-0 trail and learnt binaries are implied by the
        // clause database alone -- both are consequences of the *base*
        // system, never of the assumptions, so depositing them at any
        // scope (and re-depositing after a pop; the sink deduplicates)
        // is sound.
        const std::vector<sat::Lit> units = b.learnt_units();
        const std::vector<std::array<sat::Lit, 2>> binaries =
            b.learnt_binaries();
        if (!harvest(units, binaries, live_num_anf_vars_, sink))
            return report;
        // The persistent solver's clause database only ever contains
        // consequences of the bound base (assumptions never enter it), so
        // when that base is the shared problem its exports are
        // publishable at any scope. (Backends that degrade assumptions to
        // units export nothing on assumption-laden solves -- see the
        // lingeling adapter -- so no unsound fact can leak here.)
        if (sink.coop_publish_warm()) coop_publish(units, binaries, sink);
        Log{sink.verbosity()}.info(
            2, "iter %zu SAT(%s live): %zu assumptions, budget %lld, %zu new",
            sink.iteration(), b.name().c_str(), n_assumed,
            static_cast<long long>(conflict_budget_), sink.fresh());
        if (sink.fresh() == 0) {
            // The warm solver got stuck on the base encoding. Fall back to
            // one cold step: solving the *scope-simplified* CNF is
            // structurally easier, so the warm path is never less decisive
            // than the one-shot path. The fallback owns the budget
            // escalation (section IV schedule, once per step); typical
            // sweep candidates are decided above and never pay this.
            return step_cold(sys, sink);
        }
        return report;
    }

    EngineConfig cfg_;  ///< fact_pool set only under `cooperative`
    int64_t conflict_budget_;
    std::unique_ptr<sat::SolverBackend> live_;  ///< persistent Session solver
    Status backend_error_;  ///< a failed bind_base, surfaced at step()
    size_t live_num_anf_vars_ = 0;
    // Cooperative exchange state: the private import cursor, the cache of
    // foreign facts drained so far (the cold path re-injects all of it),
    // and how much of the cache the persistent live solver has seen.
    runtime::SharedFactPool::Cursor coop_cursor_;
    std::vector<runtime::SharedFact> coop_clauses_;
    size_t coop_live_added_ = 0;
};

}  // namespace

std::unique_ptr<Technique> make_xl_technique(const core::XlConfig& cfg) {
    return std::make_unique<XlTechnique>(cfg);
}

std::unique_ptr<Technique> make_elimlin_technique(
    const core::ElimLinConfig& cfg) {
    return std::make_unique<ElimLinTechnique>(cfg);
}

std::unique_ptr<Technique> make_groebner_technique(
    const core::GroebnerConfig& cfg) {
    return std::make_unique<GroebnerTechnique>(cfg);
}

std::unique_ptr<Technique> make_sat_technique(const EngineConfig& cfg) {
    return std::make_unique<SatTechnique>(cfg);
}

}  // namespace bosphorus
