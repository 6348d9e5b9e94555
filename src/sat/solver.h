// CDCL SAT solver with optional native XOR reasoning.
//
// This is the in-tree substitute for the three back-end solvers evaluated in
// the paper (MiniSat, Lingeling, CryptoMiniSat5). The core implements the
// standard modern CDCL loop: two-watched-literal propagation, first-UIP
// conflict analysis with recursive clause minimisation, EVSIDS branching,
// phase saving, Luby restarts and activity/LBD-based learnt-clause deletion,
// over clauses kept in one flat, garbage-collected arena.
//
// Two features matter specifically for Bosphorus:
//  * a *conflict budget* (the paper bounds the in-loop solver by conflicts,
//    not time, for replicability), and
//  * an API exposing learnt unit and binary clauses, which the Bosphorus
//    loop converts into ANF value/equivalence facts (the modification the
//    authors made to CryptoMiniSat 5.6.3).
//
// With Config::enable_xor set, native XOR constraints are propagated by a
// watched-XOR scheme and a level-0 Gauss-Jordan elimination pass (see
// xor_engine.h) -- the CryptoMiniSat-like configuration.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "sat/inprocess/clause_db.h"
#include "sat/inprocess/features.h"
#include "sat/inprocess/inprocess.h"
#include "sat/inprocess/vivifier.h"
#include "sat/types.h"
#include "util/timer.h"

namespace bosphorus::sat {

class XorEngine;

class Solver {
public:
    struct Config {
        bool enable_xor = false;      ///< native XOR propagation + level-0 GJE
        double var_decay = 0.95;      ///< EVSIDS decay factor
        double clause_decay = 0.999;  ///< learnt clause activity decay
        int restart_base = 100;       ///< Luby restart unit (conflicts)
        double learnt_growth = 1.1;   ///< legacy learnt DB cap growth
        int verbosity = 0;
        /// In-processing engine (vivification, tiered learnt DB, profile
        /// auto-reconfiguration). inprocess.enabled = false reproduces the
        /// legacy solver numerically.
        inprocess::InprocessConfig inprocess;
    };

    struct Stats {
        uint64_t conflicts = 0;
        uint64_t decisions = 0;
        uint64_t propagations = 0;
        uint64_t restarts = 0;
        uint64_t learnt_clauses = 0;
        uint64_t deleted_clauses = 0;
        uint64_t xor_propagations = 0;
        uint64_t vivified_literals = 0;  ///< literals removed by vivification
        uint64_t vivified_clauses = 0;   ///< clauses shrunk by vivification
        uint64_t vivify_passes = 0;      ///< vivification sweeps run
        uint64_t reconf_decisions = 0;   ///< auto profile switches applied
        uint64_t db_reductions = 0;      ///< tiered reduce sweeps
        /// Effort in ticks (watch-list entries visited by propagate()),
        /// split by who propagated: the search (including level-0
        /// propagation while clauses are added) or vivification.
        uint64_t search_ticks = 0;
        uint64_t vivify_ticks = 0;

        /// Field-wise sum, for backends that aggregate several solvers.
        Stats& operator+=(const Stats& o) {
            conflicts += o.conflicts;
            decisions += o.decisions;
            propagations += o.propagations;
            restarts += o.restarts;
            learnt_clauses += o.learnt_clauses;
            deleted_clauses += o.deleted_clauses;
            xor_propagations += o.xor_propagations;
            vivified_literals += o.vivified_literals;
            vivified_clauses += o.vivified_clauses;
            vivify_passes += o.vivify_passes;
            reconf_decisions += o.reconf_decisions;
            db_reductions += o.db_reductions;
            search_ticks += o.search_ticks;
            vivify_ticks += o.vivify_ticks;
            return *this;
        }
    };

    Solver() : Solver(Config{}) {}
    explicit Solver(Config cfg);
    ~Solver();

    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;

    Var new_var();
    size_t num_vars() const { return var_level_.size(); }

    /// Add a clause. Returns false if the formula became trivially UNSAT.
    bool add_clause(const std::vector<Lit>& lits);

    /// Add a native XOR constraint (only meaningful with Config::enable_xor;
    /// otherwise it is expanded into CNF clauses internally).
    bool add_xor(const XorConstraint& x);

    /// Load a whole CNF (creates variables as needed).
    bool load(const Cnf& cnf);

    /// Solve with an optional conflict budget (< 0: unbounded) and wall-clock
    /// timeout in seconds (< 0: none). kUnknown when a budget ran out.
    Result solve(int64_t conflict_budget = -1, double timeout_s = -1.0);

    /// Incremental solve under `assumptions`: each literal is enqueued as a
    /// pseudo-decision before real branching starts, so the search explores
    /// only assignments extending them. Returns kUnsat when the formula is
    /// unsatisfiable *under the assumptions*; okay() stays true in that case
    /// unless the formula is unsatisfiable outright. The solver remains
    /// reusable afterwards: clauses learnt in one call (always implied by
    /// the clause database alone, never by the assumptions) carry over to
    /// the next, which is what makes warm re-solves cheap.
    Result solve_assuming(const std::vector<Lit>& assumptions,
                          int64_t conflict_budget = -1,
                          double timeout_s = -1.0);

    bool okay() const { return ok_; }

    /// When the last solve_assuming call returned kUnsat with okay()
    /// still true: the assumption literal the clause database forced
    /// false (at most one entry -- the search stops at the first refuted
    /// assumption). NOTE this is a *subset* of the IPASIR "failed" set:
    /// assumptions enqueued earlier may have participated in forcing it
    /// and are not listed. Callers needing a sound failed set must treat
    /// every assumption of the refuted call as potentially involved (the
    /// backend adapters do exactly that). Empty after a SAT or
    /// outright-UNSAT call.
    const std::vector<Lit>& failed_assumptions() const {
        return failed_assumptions_;
    }

    /// Ask a running solve() to stop at its next poll point (it returns
    /// kUnknown). Safe to call from any thread; sticky until
    /// clear_interrupt(), so an interrupt that lands between solves still
    /// stops the next one.
    void interrupt() { interrupt_.store(true, std::memory_order_release); }
    /// Re-arm after interrupt(): subsequent solves run normally.
    void clear_interrupt() { interrupt_.store(false, std::memory_order_release); }
    /// True once interrupt() has been called and not yet cleared.
    bool interrupt_requested() const {
        return interrupt_.load(std::memory_order_acquire);
    }

    /// Install a callback polled periodically during solve(); returning
    /// true stops the search with kUnknown (the IPASIR terminate hook --
    /// this is how cancellation tokens reach a running solver). The
    /// callback runs on the solving thread; pass nullptr to remove.
    void set_terminate_callback(std::function<bool()> cb) {
        terminate_cb_ = std::move(cb);
    }

    /// After kSat: the satisfying assignment, indexed by variable.
    const std::vector<LBool>& model() const { return model_; }

    /// Learnt facts for Bosphorus: unit literals learnt (or implied at
    /// decision level 0) and learnt binary clauses, accumulated across all
    /// solve() calls. Units are bounded by the variable count (they live
    /// on the level-0 trail); binaries are deduplicated, so both lists
    /// stay bounded by the *distinct* facts even over the thousands of
    /// solve_assuming calls a long-lived Session makes.
    const std::vector<Lit>& learnt_units() const { return learnt_units_; }
    const std::vector<std::array<Lit, 2>>& learnt_binaries() const {
        return learnt_binaries_;
    }

    const Stats& stats() const { return stats_; }

    /// Current value of a literal under the partial assignment.
    LBool value(Lit l) const { return lit_value_[l.raw()]; }
    LBool value(Var v) const { return lit_value_[mk_lit(v).raw()]; }

    // ---- in-processing observability / test hooks ----------------------

    /// Live per-tier learnt clause counts (all zero when in-processing is
    /// disabled: the legacy DB is untiered).
    inprocess::ClauseDbManager::TierCounts db_tier_counts() const {
        return db_mgr_ ? db_mgr_->tier_counts()
                       : inprocess::ClauseDbManager::TierCounts{};
    }

    /// The profile in effect after the last solve call resolved kAuto
    /// (kFixed before any solve, or when in-processing is disabled).
    inprocess::ProfileId active_profile() const { return active_profile_; }

    /// Tier-policy diagnostics; both must stay 0 (the deletion policy
    /// never even *attempts* to delete glue or reason-locked clauses).
    uint64_t db_glue_delete_vetoes() const {
        return db_mgr_ ? db_mgr_->glue_delete_vetoes() : 0;
    }
    uint64_t db_locked_delete_vetoes() const {
        return db_mgr_ ? db_mgr_->locked_delete_vetoes() : 0;
    }

    /// Structural clause-database invariants, checkable at any consistent
    /// point (conflict/decision boundaries; this is what the terminate
    /// callback sees): clause lists hold no deleted clauses, every listed
    /// clause is watched on exactly its first two literals, reasons of
    /// assigned variables above level 0 are live with the implied literal
    /// first, the tier counts match a full recount, and the arena's
    /// wasted-word count matches its size less the listed clauses.
    bool check_db_invariants() const;

    /// Words the clause arena holds now, live and wasted. Test hook.
    size_t arena_words() const { return arena_.size(); }

    /// Force one reduction sweep now (tiered when in-processing is on,
    /// legacy reduce_db otherwise). Test hook.
    void debug_force_reduce();

    /// Force one vivification pass with the given budget in ticks (no-op
    /// returning empty stats when in-processing is disabled). Like a
    /// scheduled pass it restarts the effort account: the next scheduled
    /// pass is funded only by search done after this one. Test hook.
    inprocess::Vivifier::PassStats debug_force_vivify(uint64_t tick_budget);

private:
    friend class XorEngine;
    friend class inprocess::Vivifier;
    friend class inprocess::ClauseDbManager;
    friend struct inprocess::InstanceFeatures;

    // ---- clause storage ----------------------------------------------
    // Clauses live in one flat arena of 32-bit words (arena_): a
    // kHeaderWords-word header followed by the literals inline. A CRef is
    // the word offset of the header. Allocation only appends, so crefs
    // increase with age, and collect_garbage() relocates live clauses in
    // that same order.
    struct Clause {
        Clause(uint32_t size, bool is_learnt)
            : size_(size), learnt(is_learnt), deleted(0), transient(0),
              relocated(0) {}

        uint32_t size() const { return size_; }
        Lit* begin() { return reinterpret_cast<Lit*>(this + 1); }
        Lit* end() { return begin() + size_; }
        const Lit* begin() const {
            return reinterpret_cast<const Lit*>(this + 1);
        }
        const Lit* end() const { return begin() + size_; }
        Lit& operator[](size_t i) { return begin()[i]; }
        Lit operator[](size_t i) const { return begin()[i]; }
        std::span<const Lit> lits() const { return {begin(), size_}; }

        uint32_t size_;  ///< live literals; only shrink_clause() lowers it
        uint8_t learnt : 1;
        uint8_t deleted : 1;
        /// Never listed: an XOR reason or conflict clause, garbage from
        /// allocation on. Collections run only at level 0, where none is
        /// the reason of an assigned variable any more.
        uint8_t transient : 1;
        uint8_t relocated : 1;  ///< collect_garbage(): lbd holds the new cref
        // In-processing bookkeeping. tier is kUntracked for clauses the
        // ClauseDbManager does not manage (problem clauses, XOR
        // conflict/reason clauses, everything when in-processing is off).
        uint8_t tier = inprocess::kUntracked;
        uint8_t used = 0;  ///< participated in a conflict since last reduce
        uint8_t idle = 0;  ///< reductions spent unused in the mid tier
        uint32_t lbd = 0;
        float activity = 0.0f;
    };
    static constexpr uint32_t kHeaderWords = sizeof(Clause) / sizeof(uint32_t);
    static_assert(sizeof(Clause) == 4 * sizeof(uint32_t) &&
                  sizeof(Lit) == sizeof(uint32_t));
    /// A collection runs once wasted words pass this share of the arena.
    static constexpr size_t kGcWastePercent = 20;

    using CRef = uint32_t;
    static constexpr CRef kNoReason = 0xFFFFFFFFu;

    Clause& clause(CRef cr) {
        return *reinterpret_cast<Clause*>(arena_.data() + cr);
    }
    const Clause& clause(CRef cr) const {
        return *reinterpret_cast<const Clause*>(arena_.data() + cr);
    }
    static size_t clause_words(const Clause& c) {
        return kHeaderWords + c.size();
    }

    struct Watcher {
        CRef cref;
        Lit blocker;
    };

    // ---- in-processing --------------------------------------------------
    /// True when the in-processing engine owns the learnt DB.
    bool inprocessing_on() const { return db_mgr_ != nullptr; }
    /// Install a named profile's (or kFixed: the Config's) knobs as the
    /// effective search parameters and tier cuts.
    void apply_profile(inprocess::ProfileId id);
    /// Ticks the next scheduled pass may spend: vivify_effort x the search
    /// ticks since the last pass ended, less that pass's overshoot of its
    /// own budget. Zero means skip the pass.
    uint64_t vivify_allowance() const;
    /// The one vivification entry point: a pass of at most `tick_budget`
    /// ticks (plus one clause's overshoot), its stats folded into stats_
    /// and the effort account restarted from here.
    inprocess::Vivifier::PassStats run_vivify_pass(uint64_t tick_budget);
    /// Add the search ticks not yet published to inprocess::counters().
    void publish_search_ticks();
    /// Distinct nonzero decision levels among fully assigned literals:
    /// the LBD of a fresh learnt clause or of a conflict/reason clause.
    uint32_t clause_lbd(std::span<const Lit> lits);

    // ---- search -------------------------------------------------------
    CRef propagate();
    void analyze(CRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
                 uint32_t& out_lbd);
    bool lit_redundant(Lit l, uint32_t abstract_levels);
    void cancel_until(int level);
    Lit pick_branch_lit();
    void record_learnt_fact(const std::vector<Lit>& clause);
    double luby(double y, int i) const;
    void reduce_db();

    // ---- assignment ----------------------------------------------------
    void enqueue(Lit l, CRef reason);
    /// Level-0 assignment of v := val; flags UNSAT on contradiction.
    void enqueue_or_check(Var v, bool val);
    int decision_level() const { return static_cast<int>(trail_lim_.size()); }
    int level(Var v) const { return var_level_[v]; }

    // ---- activity -------------------------------------------------------
    void var_bump(Var v);
    void var_decay_all();
    void cla_bump(Clause& c);
    void insert_var_order(Var v);

    // ---- heap (max-heap on activity, tie-break on index) ----------------
    void heap_up(size_t i);
    void heap_down(size_t i);
    bool heap_lt(Var a, Var b) const;

    CRef alloc_clause(std::span<const Lit> lits, bool learnt);
    /// An XOR reason or conflict clause: counted as wasted at once.
    CRef alloc_transient(std::span<const Lit> lits);
    void attach_clause(CRef cr);
    void detach_clause(CRef cr);
    void remove_clause(CRef cr);
    /// Overwrite a clause with a subset `lits` of its literals (at most
    /// its size); the freed tail words become waste.
    void shrink_clause(CRef cr, std::span<const Lit> lits);
    /// Compact the arena once wasted words pass kGcWastePercent. Called
    /// only at level 0 (restarts, end of a solve call), where no CRef is
    /// held and every transient clause is garbage.
    void maybe_collect_garbage();
    void collect_garbage();

    Config cfg_;
    Stats stats_;
    bool ok_ = true;

    std::vector<uint32_t> arena_;        // clause storage; CRef = offset
    size_t wasted_ = 0;                  // arena words no listed clause uses
    std::vector<CRef> problem_clauses_;  // original clauses
    std::vector<CRef> learnts_;          // learnt clauses

    std::vector<std::vector<Watcher>> watches_;  // indexed by Lit raw
    std::vector<LBool> lit_value_;               // indexed by Lit raw
    std::vector<bool> polarity_;                 // phase saving, by var
    std::vector<int> var_level_;                 // by var
    std::vector<CRef> var_reason_;               // by var
    std::vector<double> activity_;               // by var
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;

    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    size_t qhead_ = 0;

    std::vector<Var> heap_;       // binary max-heap of decision candidates
    std::vector<int> heap_pos_;   // by var; -1 if absent

    // analyze() scratch
    std::vector<uint8_t> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_clear_;
    // add_clause() scratch: the clause being canonicalised.
    std::vector<Lit> add_buf_;

    std::vector<LBool> model_;
    std::vector<Lit> failed_assumptions_;  // refuted by the last solve call
    std::atomic<bool> interrupt_{false};
    std::function<bool()> terminate_cb_;
    std::vector<Lit> learnt_units_;
    size_t units_reported_ = 0;  // trail prefix already exported as units
    std::vector<std::array<Lit, 2>> learnt_binaries_;
    // Dedup for learnt_binaries_ (normalised lit pair -> already recorded).
    std::unordered_set<uint64_t> binaries_seen_;

    double max_learnts_ = 0;  // legacy (in-processing off) learnt DB cap

    // ---- in-processing state --------------------------------------------
    std::unique_ptr<inprocess::ClauseDbManager> db_mgr_;  // null = disabled
    std::unique_ptr<inprocess::Vivifier> vivifier_;
    inprocess::ProfileId active_profile_ = inprocess::ProfileId::kFixed;
    bool profile_applied_ = false;  // first application is not a "reconf"
    // Effective search knobs: the active profile's values, or the Config
    // values verbatim under kFixed / disabled in-processing.
    double eff_var_decay_;
    double eff_clause_decay_;
    int eff_restart_base_;
    uint32_t eff_vivify_interval_;
    // Opening-window LBD observation of the current call, and the carry
    // from the previous call (feeds the next static profile selection).
    uint64_t window_lbd_sum_ = 0;
    uint32_t window_lbd_count_ = 0;
    bool window_reconf_done_ = false;
    double prev_window_lbd_ = 0.0;
    inprocess::InstanceFeatures feat_;  // cached per call for the mid-solve rule
    uint64_t solve_calls_ = 0;
    // Vivification effort account (see vivify_allowance): search ticks at
    // the end of the last pass, and the ticks that pass spent beyond its
    // budget. While vivifying_, propagate() charges vivify_ticks.
    uint64_t vivify_mark_ = 0;
    uint64_t vivify_debt_ = 0;
    bool vivifying_ = false;
    uint64_t search_ticks_published_ = 0;  // already in counters()
    // clause_lbd() scratch: per-decision-level stamps.
    std::vector<uint64_t> level_stamp_;
    uint64_t lbd_stamp_ = 0;

    std::unique_ptr<XorEngine> xor_engine_;
};

}  // namespace bosphorus::sat
