/// \file
/// The Engine facade: the paper's fact-learning workflow (Fig. 1) over a
/// pluggable technique registry.
///
/// An `Engine` takes a `Problem` (ANF or CNF), materialises the master
/// `AnfSystem`, and repeatedly steps every registered `Technique` in
/// order -- by default XL -> ElimLin -> (Groebner) -> conflict-bounded
/// SAT -- until a fixed point, a decision (SAT model found / 1 = 0
/// derived), the iteration cap, the time budget, an interrupt, or a
/// cancellation. The result is a `Report`: verdict, solution, the
/// processed ANF augmented with every learnt fact (Report::to_cnf converts
/// it on request), and per-technique tallies.
///
/// Hooks: `set_interrupt_callback` and `set_cancellation_token` are
/// polled before every technique step *and* inside steps at technique
/// iteration boundaries (the partial report is still produced);
/// `set_progress_callback` fires after every step with live counters.
///
/// Thread safety: one Engine drives one run at a time; give each thread
/// its own Engine (they are cheap), or use BatchEngine / solve_portfolio
/// from bosphorus/batch.h, which do exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bosphorus/problem.h"
#include "bosphorus/status.h"
#include "bosphorus/technique.h"
#include "core/anf_to_cnf.h"
#include "runtime/cancellation.h"

namespace bosphorus {

namespace runtime {
class SharedFactPool;  // src/runtime/fact_exchange.h
}  // namespace runtime

// Defined in bosphorus/batch.h (the concurrent-runtime facade); forward
// declared here so Engine::solve_portfolio can be a member.
struct PortfolioEntry;
struct PortfolioReport;

/// Loop parameters (paper section IV defaults). This is the type the
/// legacy `core::Options` name aliases.
struct EngineConfig {
    core::XlConfig xl;            ///< D = 1, M = 30, deltaM = 4
    core::ElimLinConfig elimlin;  ///< shares M = 30
    /// K = 8, L = 5. K above 20 or L outside [3, 24] cannot be honoured:
    /// Engine::run and Session::solve then fail with kInvalidArgument.
    core::Anf2CnfConfig conv;

    unsigned clause_cut = 5;  ///< L' for CNF -> ANF

    /// Optional fourth technique (paper section V): degree-bounded
    /// Buchberger/F4 Groebner reduction, plugged into the same loop.
    core::GroebnerConfig groebner;
    bool use_groebner = false;  ///< register the Groebner technique

    /// SAT-solver conflict budget: starts here, escalating whenever the
    /// solver produced no new facts (paper section IV: 10k to 100k in 10k
    /// increments).
    int64_t sat_conflicts_start = 10'000;
    int64_t sat_conflicts_max = 100'000;   ///< budget ceiling
    int64_t sat_conflicts_step = 10'000;   ///< escalation increment

    unsigned max_iterations = 64;   ///< safety bound on the outer loop
    double time_budget_s = 1000.0;  ///< paper: Bosphorus given <= 1000 s

    bool use_xl = true;       ///< ablation switches: register XL...
    bool use_elimlin = true;  ///< ... ElimLin ...
    bool use_sat = true;      ///< ... and the conflict-bounded SAT step
    bool sat_native_xor = true;  ///< in-loop solver uses native XOR + GJE

    /// In-processing engine of the native in-loop solver (vivification,
    /// tiered learnt-DB management, feature-driven profile selection; see
    /// src/sat/inprocess/). Off reproduces the legacy solver numerically.
    bool sat_inprocess = true;
    /// Native-solver profile: "auto" (feature rule, re-evaluated per solve
    /// call), "fixed" (honour sat_restart_base / learnt-DB knobs), or one
    /// of "balanced", "crypto-xor", "agile-restart", "heavy-tail".
    std::string sat_profile = "auto";
    /// Luby restart unit in conflicts (<= 0: solver default, 100).
    /// Authoritative only under sat_profile = "fixed".
    int sat_restart_base = 0;
    /// Floor of the learnt-DB local-tier cap (<= 0: default, 1000).
    int64_t sat_learnt_db_floor = 0;
    /// Local-tier cap growth per reduction (<= 0: default, 1.1).
    double sat_learnt_db_growth = 0.0;

    /// In-loop SAT back end (see bosphorus/sat_backend.h): empty keeps
    /// the built-in native solver configured by `sat_native_xor`; any
    /// registered backend spec ("minisat", "lingeling", "cms",
    /// "dimacs-exec:<cmd>", or a user-registered name) routes the
    /// conflict-bounded SAT step -- including a Session's persistent warm
    /// solver -- through that backend. This is the axis heterogeneous
    /// portfolios race over (see backend_portfolio in bosphorus/batch.h).
    std::string sat_backend;

    /// Also harvest general (non-equivalence) learnt binary clauses as
    /// quadratic ANF facts. Off by default: the paper keeps only linear
    /// facts (value and equivalence assignments).
    bool harvest_binary_clauses = false;

    /// Cooperative fact exchange (src/runtime/fact_exchange.h). When true
    /// and `fact_pool` is set, this engine publishes learnt unit/binary
    /// facts and ANF variable fixings to the pool and imports the other
    /// workers' facts -- into the master ANF at iteration boundaries and
    /// into the in-loop SAT solver before each solve round. Off (the
    /// default) keeps the fully isolated, bit-for-bit deterministic path:
    /// that is the oracle cooperative runs are differentially tested
    /// against. solve_portfolio creates and wires the pool when any entry
    /// sets `cooperative`; set it manually only for custom worker sets,
    /// and only across workers solving the SAME problem (facts are
    /// consequences of the shared base -- see fact_exchange.h).
    bool cooperative = false;
    /// The shared exchange, sized to the problem's original variables.
    /// Ignored unless `cooperative`.
    std::shared_ptr<runtime::SharedFactPool> fact_pool;
    /// This worker's id in the pool (self-published facts are skipped on
    /// import). Portfolios assign entry indices.
    unsigned coop_worker = 0;

    /// RNG seed. Runs are bit-for-bit reproducible given (problem,
    /// config, seed) -- this is also what makes BatchEngine results
    /// independent of scheduling.
    uint64_t seed = 1;
    int verbosity = 0;  ///< 0 silent; higher = more stderr logging
};

/// Live counters handed to the progress callback after every technique step.
struct Progress {
    size_t iteration = 0;       ///< outer-loop iteration (0-based)
    std::string technique;      ///< name of the step that just finished
    size_t facts_seen = 0;      ///< facts that step produced
    size_t facts_fresh = 0;     ///< ... of which were new
    size_t total_facts = 0;     ///< fresh facts across the whole run so far
    double elapsed_s = 0.0;     ///< wall-clock since the run started
};

/// Return true to stop the run; polled at step boundaries and technique
/// iteration boundaries, possibly many times, so it must be cheap and
/// idempotent.
using InterruptCallback = std::function<bool()>;
/// Observer of per-step Progress counters; called on the run()ing thread.
using ProgressCallback = std::function<void(const Progress&)>;

/// Per-technique fact tally, in registry order.
struct TechniqueTally {
    std::string name;  ///< Technique::name() of this registry slot
    size_t steps = 0;  ///< step() invocations
    size_t facts = 0;  ///< fresh facts contributed
};

/// Everything a run produced.
struct Report {
    /// kSat: in-loop solution found; kUnsat: 1 = 0 derived; kUnknown: fixed
    /// point / budget / interrupt without deciding the instance.
    sat::Result verdict = sat::Result::kUnknown;
    /// The interrupt callback or a cancellation token stopped the run.
    bool interrupted = false;
    bool timed_out = false;    ///< the time budget expired

    /// Satisfying assignment over the problem's ANF variables iff
    /// verdict == kSat.
    std::vector<bool> solution;

    /// The processed system: live equations plus variable-state equations.
    std::vector<anf::Polynomial> processed_anf;
    /// Plain, DIMACS-compatible CNF of `processed_anf` (so it carries every
    /// learnt fact), converted under `conv` -- pass the run's
    /// EngineConfig::conv -- with XOR chunks always spelled as clauses.
    /// Runs the ANF -> CNF conversion on every call: nothing on the solve
    /// path converts unless a caller asks here.
    core::Anf2CnfResult to_cnf(const core::Anf2CnfConfig& conv) const;

    /// Per-technique tallies, in registry order.
    std::vector<TechniqueTally> techniques;
    /// Fresh facts contributed by the named technique (0 if absent).
    size_t facts_from(const std::string& name) const;
    /// Fresh facts across all techniques.
    size_t total_facts() const;

    size_t iterations = 0;     ///< outer-loop iterations completed
    /// Cooperative exchange: foreign facts this run imported from the
    /// shared pool / own facts it published to it (0 unless
    /// EngineConfig::cooperative).
    size_t facts_imported = 0;
    size_t facts_published = 0;
    size_t vars_fixed = 0;     ///< variables assigned a constant
    size_t vars_replaced = 0;  ///< variables replaced by an equivalence
    double seconds = 0.0;      ///< wall-clock of the run

    /// ANF variable count the engine worked over. For CNF problems this
    /// includes clause-cutting auxiliaries above `num_original_vars`.
    size_t num_vars = 0;
    size_t num_original_vars = 0;  ///< the input problem's own variables
};

/// The fact-learning loop (see the file comment). Construct, optionally
/// customise the technique registry and hooks, then run() Problems.
class Engine {
public:
    /// Builds the default technique registry from the config's ablation
    /// switches: XL, ElimLin, (Groebner), SAT.
    explicit Engine(EngineConfig cfg);
    /// An Engine with the paper's default parameters (EngineConfig{}).
    Engine() : Engine(EngineConfig{}) {}

    Engine(const Engine&) = delete;  ///< move-only: techniques are stateful
    Engine& operator=(const Engine&) = delete;  ///< move-only (see above)
    Engine(Engine&&) = default;             ///< engines are cheap to move
    Engine& operator=(Engine&&) = default;  ///< engines are cheap to move

    /// Append a technique to the registry (runs after the existing ones,
    /// in every iteration of the loop).
    Engine& add_technique(std::unique_ptr<Technique> technique);
    /// Drop all registered techniques (e.g. to build a custom registry).
    Engine& clear_techniques();
    /// Technique::name() of every registry slot, in run order.
    std::vector<std::string> technique_names() const;

    /// Install a polled stop signal. Checked before every technique step,
    /// and *within* steps at technique iteration boundaries (FactSink
    /// threads it into the XL/ElimLin/Groebner loops). The callback runs
    /// on the thread executing run(); it must be thread-safe if this
    /// Engine is driven from a thread other than the one that set it.
    Engine& set_interrupt_callback(InterruptCallback cb);
    /// Install a progress observer, fired after every technique step on
    /// the thread executing run().
    Engine& set_progress_callback(ProgressCallback cb);

    /// Attach a cancellation token (see runtime/cancellation.h). When the
    /// owning CancellationSource fires, the run stops within one technique
    /// iteration and returns a partial Report with `interrupted = true`.
    /// This is how BatchEngine shutdown and portfolio first-finisher
    /// cancellation reach a running engine; it composes with (does not
    /// replace) the interrupt callback.
    Engine& set_cancellation_token(runtime::CancellationToken token);

    /// Run the learning loop on `problem` until fixed point or decision.
    /// CNF problems are converted to ANF first (section III-D). An error
    /// Status is returned only for malformed inputs; interrupt, timeout
    /// and cancellation still yield a (partial) Report.
    ///
    /// Implemented as a thin one-shot wrapper over a throwaway
    /// bosphorus/session.h Session: the Engine lends the Session its
    /// technique registry and hooks, solves once cold, and discards the
    /// Session's state. Keep the Session yourself when you will ask the
    /// same base system more than one question.
    ///
    /// Thread safety: one Engine serves one run at a time (techniques are
    /// stateful across steps). For concurrent runs give each thread its
    /// own Engine -- they are cheap to construct -- or use BatchEngine,
    /// which does exactly that.
    Result<Report> run(const Problem& problem);

    /// Race several technique configurations on one instance across a
    /// thread pool; the first decisive finisher cancels the rest. Declared
    /// here for discoverability; the portfolio types live in
    /// bosphorus/batch.h (include that to call this). Equivalent to the
    /// free function solve_portfolio().
    static Result<PortfolioReport> solve_portfolio(
        const Problem& problem, const std::vector<PortfolioEntry>& entries,
        unsigned n_threads = 0,
        runtime::CancellationToken cancel = {});

    /// The loop parameters this Engine was built with.
    const EngineConfig& config() const { return cfg_; }

private:
    EngineConfig cfg_;
    std::vector<std::unique_ptr<Technique>> techniques_;
    InterruptCallback interrupt_;
    ProgressCallback progress_;
    runtime::CancellationToken cancel_;
};

/// The default technique registry `cfg`'s ablation switches select -- XL,
/// ElimLin, (Groebner), SAT, in the paper's loop order. This is what both
/// Engine and Session construction install.
std::vector<std::unique_ptr<Technique>> make_default_techniques(
    const EngineConfig& cfg);

}  // namespace bosphorus
