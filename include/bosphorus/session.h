/// \file
/// Incremental solving: a persistent `Session` with assumptions, push/pop
/// scopes, and warm-started fact reuse.
///
/// `Engine::run` is one-shot: it simplifies the problem, learns facts,
/// emits a Report and throws all of that state away. Guess-and-determine
/// and key-sweep workloads (the paper's Simon/AES/Bitcoin use cases) ask
/// the *same* base system thousands of questions that differ only in a
/// handful of assumed variable values -- re-paying the full XL/ElimLin/CNF
/// conversion cost per question. A `Session` keeps the simplified master
/// system and everything learnt about it alive between queries:
///
/// \code
///   bosphorus::Session session(problem);        // simplified once
///   for (const auto& candidate : candidates) {
///       session.push();                          // open a scope
///       for (auto [var, value] : candidate)
///           session.assume(var, value);          // scoped assumptions
///       auto report = session.solve();           // warm re-solve
///       if (report.ok() && report->verdict == bosphorus::sat::Result::kSat)
///           use(report->solution);
///       session.pop();                           // exact state rewind
///   }
/// \endcode
///
/// What "warm" buys: the base system is materialised and propagated once;
/// facts learnt at an enclosing scope stay learnt; and the in-loop SAT
/// step keeps one live solver for the whole Session, passing the current
/// scope to it as *native assumption literals* instead of re-converting
/// the system to CNF and re-solving from scratch each step (the solver's
/// learnt clauses -- always consequences of the base system alone --
/// accumulate across queries). `pop()` rewinds the master ANF exactly,
/// via a mutation trail, so scoped facts never leak into later queries.
///
/// Scope semantics: `assume()` and `add()` constrain the *current* scope;
/// `pop()` un-does everything since the matching `push()`, including an
/// UNSAT verdict derived inside the scope. At depth 0 they are permanent.
/// Facts learnt by `solve()` are recorded at the depth the solve ran at
/// and rewind with it.
///
/// Thread safety: a Session is single-threaded -- one thread constructs,
/// mutates and solves it (the hooks follow Engine's rules). For sweeping
/// many assumption sets across cores use
/// `BatchEngine::solve_all_incremental`, which gives each worker its own
/// Session over the shared base problem.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/engine.h"
#include "bosphorus/problem.h"
#include "bosphorus/status.h"
#include "bosphorus/technique.h"
#include "core/anf_system.h"
#include "runtime/cancellation.h"
#include "runtime/fact_exchange.h"
#include "util/timer.h"

namespace bosphorus {

/// A persistent incremental solving session (see the file comment).
///
/// Move-only, like Engine: the technique registry and the live SAT solver
/// it carries are stateful, and silently sharing them between copies
/// would corrupt both.
class Session {
public:
    /// Materialise `problem` (CNF input converts per section III-D),
    /// propagate it to fixed point, and build the default technique
    /// registry from `cfg`'s ablation switches -- exactly the registry
    /// Engine(cfg) would use. This is the expensive step a Session
    /// amortises over many solve() calls.
    explicit Session(const Problem& problem, EngineConfig cfg = EngineConfig{});

    /// Destroys the session, its scopes, and the live solver state.
    ~Session();

    Session(const Session&) = delete;             ///< move-only (see class doc)
    Session& operator=(const Session&) = delete;  ///< move-only (see class doc)
    Session(Session&&) = default;                 ///< sessions are movable
    Session& operator=(Session&&) = default;      ///< sessions are movable

    // ---- building the system --------------------------------------------
    /// Add the equation p = 0 at the current scope: permanent at depth 0,
    /// rewound by the matching pop() otherwise. Solutions found at this
    /// or deeper scopes are verified against it. Fails with
    /// kInvalidArgument if p mentions a variable outside the problem's
    /// variable space. Note: a free-form equation above depth 0 makes the
    /// in-loop SAT step fall back to its cold path until that scope pops
    /// (assumptions via assume() keep the warm path); prefer assume() for
    /// plain variable/value constraints.
    Status add(const anf::Polynomial& p);

    /// Assume variable `v` takes `value` at the current scope (the
    /// incremental-SAT analogue of a solver assumption literal). Permanent
    /// at depth 0, rewound by the matching pop() otherwise. Assuming both
    /// polarities of one variable makes the scope UNSAT -- recoverable by
    /// pop(). Fails with kInvalidArgument if `v` is outside the problem's
    /// variable space.
    Status assume(anf::Var v, bool value);

    /// Open a new scope: everything added, assumed, or learnt from now on
    /// is rewound by the matching pop().
    Status push();

    /// Close the innermost scope, restoring the master system -- equations,
    /// variable states, and satisfiability -- to exactly its state at the
    /// matching push(). Fails with kInvalidArgument when no scope is open.
    /// (The global hash-consed MonomialStore is deliberately NOT rewound:
    /// it is append-only, so monomials interned inside the scope persist
    /// as cached vocabulary without affecting any observable state -- see
    /// the term-representation section of docs/architecture.md.)
    Status pop();

    /// Number of open scopes (0 = base level).
    size_t depth() const { return frames_.size(); }

    /// Size of the variable space the session works over (for CNF
    /// problems this includes clause-cutting auxiliaries).
    size_t num_vars() const { return num_vars_; }

    /// False iff the *current scope* has derived 1 = 0 (a pop() can
    /// restore it to true).
    bool okay() const;

    // ---- solving ---------------------------------------------------------
    /// Run the fact-learning loop on the current system until fixed point
    /// or decision, reusing the already-simplified master system and all
    /// previously learnt facts. The first call behaves like a fresh
    /// Engine::run; later calls are warm re-solves (techniques are told
    /// via Technique::reset_for_resolve and may keep per-base state).
    /// Interrupt, timeout and cancellation yield a partial Report exactly
    /// as Engine::run does, and leave the Session reusable. A config the
    /// ANF -> CNF converter cannot honour (see EngineConfig::conv) fails
    /// every call with kInvalidArgument.
    Result<Report> solve();

    /// solve() calls completed so far (the first is the cold one).
    size_t solve_count() const { return solves_done_; }

    // ---- technique registry (mirrors Engine) ----------------------------
    /// Append a technique to the registry (runs after the existing ones in
    /// every iteration). It is bound to the base system before the next
    /// solve via Technique::bind_base.
    Session& add_technique(std::unique_ptr<Technique> technique);
    /// Drop all registered techniques (e.g. to build a custom registry).
    Session& clear_techniques();
    /// Technique::name() of every registry slot, in run order.
    std::vector<std::string> technique_names() const;

    // ---- hooks (mirror Engine, applied per solve()) ----------------------
    /// Install a polled stop signal; semantics identical to
    /// Engine::set_interrupt_callback, checked on every solve().
    Session& set_interrupt_callback(InterruptCallback cb);
    /// Install a progress observer, fired after every technique step of
    /// every solve() on the calling thread.
    Session& set_progress_callback(ProgressCallback cb);
    /// Attach a cancellation token; a fired token stops the running
    /// solve() within one technique iteration (partial Report,
    /// `interrupted = true`) and leaves the Session reusable.
    Session& set_cancellation_token(runtime::CancellationToken token);

    /// The loop parameters this Session was built with.
    const EngineConfig& config() const { return cfg_; }

private:
    friend class Engine;  // Engine::run is a one-shot wrapper over Session

    /// What materialising a Problem produces (CNF converts to ANF). The
    /// timer starts when materialisation does, so the constructor can
    /// charge the whole setup to the first solve's budget.
    struct Materialized {
        std::vector<anf::Polynomial> polys;
        size_t num_vars = 0;
        size_t num_original_vars = 0;
        Timer timer;
    };
    static Materialized materialize(const Problem& problem,
                                    const EngineConfig& cfg);

    /// Tag ctor for Engine::run: no registry is built (the Engine lends
    /// its own) and the warm path stays off, so a one-shot run through a
    /// throwaway Session is bit-identical to the legacy loop.
    struct OneShotTag {};
    Session(const Problem& problem, EngineConfig cfg, OneShotTag);
    Session(Materialized m, EngineConfig cfg, bool build_registry,
            bool enable_warm);

    /// (Re)bind every technique to the scope-0 base system; only callable
    /// at depth 0, a no-op when nothing changed or warm reuse is off.
    void rebind_if_needed();
    /// True iff the live scope stack contains only assumptions, so the
    /// bound base + fixed-variable literals capture the system exactly.
    bool warm_valid() const;

    /// Cooperative exchange (src/runtime/fact_exchange.h), active when
    /// cfg_.cooperative and cfg_.fact_pool are set. Drain foreign unit
    /// facts into the master ANF (returns facts drained); publish this
    /// session's fixed/replaced variables back.
    size_t coop_import_anf();
    size_t coop_publish_anf();

    /// One open scope: the snapshot pop() rewinds to, plus whether the
    /// frame carries free-form (non-assumption) equations.
    struct Frame {
        core::AnfSystem::Snapshot snap;
        bool free_adds = false;
    };

    EngineConfig cfg_;
    core::AnfSystem sys_;
    size_t num_vars_ = 0;
    size_t num_original_vars_ = 0;
    std::vector<std::unique_ptr<Technique>> techniques_;
    std::vector<Frame> frames_;
    InterruptCallback interrupt_;
    ProgressCallback progress_;
    runtime::CancellationToken cancel_;
    size_t solves_done_ = 0;
    double setup_seconds_ = 0.0;  // construction cost, charged to solve #1
    Status config_error_;  // a config the converter cannot honour
    bool enable_warm_ = true;  // off for Engine's throwaway sessions
    bool needs_bind_ = true;   // base changed (or never bound)
    bool bound_ = false;       // bind_base has reached the registry
    // Cooperative-exchange soundness tracking: whether the depth-0 base
    // is still exactly the constructed problem (no user add/assume at
    // depth 0), and whether that held at the last technique bind (gates
    // warm-solver publishes; see FactSink::coop_publish_warm).
    bool coop_base_is_problem_ = true;
    bool coop_bound_publishable_ = false;
    runtime::SharedFactPool::Cursor coop_cursor_;  // ANF-level imports
    std::vector<runtime::SharedFact> coop_buf_;    // reused drain buffer
};

}  // namespace bosphorus
