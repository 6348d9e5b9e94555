// Tests for the native solver's in-processing engine
// (src/sat/inprocess/): instance features, profile selection,
// vivification soundness, tiered learnt-DB invariants and the
// process-global observability counters.
#include "sat/inprocess/inprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cnfgen/generators.h"
#include "sat/inprocess/features.h"
#include "sat/inprocess/profiles.h"
#include "sat/solver.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::sat {
namespace {

using inprocess::InstanceFeatures;
using inprocess::ProfileId;
using testutil::cnf_models;

Lit pos(Var v) { return mk_lit(v, false); }
Lit neg(Var v) { return mk_lit(v, true); }

Solver::Config inproc_config(bool enabled) {
    Solver::Config cfg;
    cfg.inprocess.enabled = enabled;
    return cfg;
}

/// Brute-force verdict of `cnf` under `assumptions` (models are bitmasks
/// with bit v = value of variable v, as produced by testutil::cnf_models).
Result oracle_verdict(const Cnf& cnf, const std::vector<Lit>& assumptions) {
    for (const uint32_t model : cnf_models(cnf)) {
        bool consistent = true;
        for (const Lit a : assumptions) {
            const bool val = (model >> a.var()) & 1;
            if (val == a.sign()) {  // sign = negated
                consistent = false;
                break;
            }
        }
        if (consistent) return Result::kSat;
    }
    return Result::kUnsat;
}

// ---- instance features ----------------------------------------------------

TEST(InstanceFeatures, FromCnfCountsAndHistogram) {
    Cnf cnf;
    cnf.num_vars = 10;
    cnf.add_clause({pos(0), pos(1)});                                 // binary
    cnf.add_clause({pos(2), neg(3), pos(4)});                         // ternary
    cnf.add_clause({pos(0), pos(2), pos(4), pos(5), pos(6), pos(7),
                    pos(8)});                                         // long
    cnf.xors.push_back({{0, 1, 2}, true});

    const InstanceFeatures f = InstanceFeatures::from_cnf(cnf);
    EXPECT_EQ(f.num_vars, 10u);
    EXPECT_EQ(f.num_clauses, 3u);
    EXPECT_EQ(f.num_xors, 1u);
    EXPECT_DOUBLE_EQ(f.clause_var_ratio, 4.0 / 10.0);
    EXPECT_DOUBLE_EQ(f.xor_density, 1.0 / 4.0);
    EXPECT_DOUBLE_EQ(f.mean_clause_size, (2.0 + 3.0 + 7.0) / 3.0);
    EXPECT_DOUBLE_EQ(f.frac_binary, 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(f.frac_ternary, 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(f.frac_long, 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(f.avg_first_window_lbd, 0.0);
}

TEST(InstanceFeatures, SolverExtractMatchesFromCnf) {
    Rng rng(testutil::test_seed(42));
    Cnf cnf = cnfgen::random_ksat(8, 20, 3, rng);
    cnf.xors.push_back({{0, 1, 2, 3}, false});
    cnf.xors.push_back({{2, 4, 6}, true});

    Solver::Config cfg;
    cfg.enable_xor = true;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));

    const InstanceFeatures a = InstanceFeatures::from_cnf(cnf);
    const InstanceFeatures b = InstanceFeatures::extract(s);
    EXPECT_EQ(a.num_vars, b.num_vars);
    EXPECT_EQ(a.num_xors, b.num_xors);
    // load() canonicalises clauses (dedup, tautology removal), so allow
    // the counts to differ only downward.
    EXPECT_LE(b.num_clauses, a.num_clauses);
    EXPECT_GT(b.num_clauses, 0u);
}

// ---- profiles -------------------------------------------------------------

TEST(Profiles, NameRoundTrip) {
    for (const ProfileId id :
         {ProfileId::kAuto, ProfileId::kFixed, ProfileId::kBalanced,
          ProfileId::kCryptoXor, ProfileId::kAgileRestart,
          ProfileId::kHeavyTail}) {
        ProfileId back;
        ASSERT_TRUE(inprocess::profile_from_name(
            inprocess::profile_name(id), back))
            << inprocess::profile_name(id);
        EXPECT_EQ(back, id);
    }
    ProfileId id;
    EXPECT_FALSE(inprocess::profile_from_name("bogus", id));
    EXPECT_FALSE(inprocess::profile_from_name("", id));
}

TEST(Profiles, SelectionRule) {
    InstanceFeatures f;
    f.clause_var_ratio = 4.0;
    EXPECT_EQ(inprocess::select_profile(f), ProfileId::kBalanced);

    f.xor_density = 0.10;
    EXPECT_EQ(inprocess::select_profile(f), ProfileId::kCryptoXor);

    f.xor_density = 0.0;
    f.avg_first_window_lbd = 15.0;
    EXPECT_EQ(inprocess::select_profile(f), ProfileId::kHeavyTail);

    f.avg_first_window_lbd = 3.0;
    f.clause_var_ratio = 8.0;
    f.frac_long = 0.1;
    EXPECT_EQ(inprocess::select_profile(f), ProfileId::kAgileRestart);

    f.frac_long = 0.5;  // long clauses: rapid restarts lose their edge
    EXPECT_EQ(inprocess::select_profile(f), ProfileId::kBalanced);
}

// ---- vivification ---------------------------------------------------------

TEST(Vivifier, ShrinksSubsumedTail) {
    // (x1 | x2) makes x3 redundant in (x1 | x2 | x3): assuming ~x1, ~x2
    // conflicts (or satisfies) before x3 is ever reached.
    Solver s(inproc_config(true));
    const Var x1 = s.new_var(), x2 = s.new_var(), x3 = s.new_var();
    ASSERT_TRUE(s.add_clause({pos(x1), pos(x2)}));
    ASSERT_TRUE(s.add_clause({pos(x1), pos(x2), pos(x3)}));

    const auto ps = s.debug_force_vivify(10'000);
    EXPECT_GE(ps.clauses_shrunk, 1u);
    EXPECT_GE(ps.literals_removed, 1u);
    EXPECT_TRUE(s.check_db_invariants());
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Vivifier, DerivesUnitFromConflictingAssumptionWalk) {
    // (a | d) and (a | ~d) together imply a, so vivifying (a | b | c)
    // conflicts right after assuming ~a and the clause collapses to the
    // unit a. (Unit propagation alone cannot see this: no literal of the
    // clause is falsified at level 0.)
    Solver s(inproc_config(true));
    const Var a = s.new_var(), d = s.new_var();
    const Var b = s.new_var(), c = s.new_var();
    ASSERT_TRUE(s.add_clause({pos(a), pos(d)}));
    ASSERT_TRUE(s.add_clause({pos(a), neg(d)}));
    ASSERT_TRUE(s.add_clause({pos(a), pos(b), pos(c)}));

    const auto ps = s.debug_force_vivify(10'000);
    EXPECT_EQ(ps.units_derived, 1u);
    EXPECT_EQ(s.value(pos(a)), LBool::kTrue);  // now a level-0 fact
    EXPECT_TRUE(s.check_db_invariants());
    // The derived unit is exported as a learnt fact on the next solve.
    ASSERT_EQ(s.solve(), Result::kSat);
    const auto& units = s.learnt_units();
    EXPECT_TRUE(std::find(units.begin(), units.end(), pos(a)) != units.end());
}

TEST(Vivifier, DeletesSatisfiedClause) {
    // The unit must be added AFTER the long clause: add_clause()
    // canonicalises against the current level-0 trail, so the reverse
    // order would drop the clause before it ever reaches the DB.
    Solver s(inproc_config(true));
    const Var u = s.new_var(), x = s.new_var(), y = s.new_var();
    ASSERT_TRUE(s.add_clause({pos(u), pos(x), pos(y)}));
    ASSERT_TRUE(s.add_clause({pos(u)}));

    const auto ps = s.debug_force_vivify(10'000);
    EXPECT_EQ(ps.clauses_deleted, 1u);
    EXPECT_TRUE(s.check_db_invariants());
    EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Vivifier, PreservesModelSetExactly) {
    // Strong soundness check: vivification must not add or lose a single
    // model. Verified against every full assignment of small random
    // instances.
    const uint64_t base_seed = testutil::test_seed(7);
    for (int inst = 0; inst < 8; ++inst) {
        Rng rng(base_seed * 1000003 + inst * 797 + 13);
        const size_t n = 7;
        Cnf cnf = cnfgen::random_ksat(n, 18, 3, rng);
        const auto models = cnf_models(cnf);

        Solver s(inproc_config(true));
        ASSERT_TRUE(s.load(cnf));
        s.debug_force_vivify(100'000);
        ASSERT_TRUE(s.check_db_invariants());

        // Probe all 2^n assignments through assumptions: the rewritten
        // formula must accept exactly the original model set.
        for (uint32_t bits = 0; bits < (1u << n); ++bits) {
            std::vector<Lit> assume;
            for (size_t v = 0; v < n; ++v) {
                assume.push_back(
                    mk_lit(static_cast<Var>(v), ((bits >> v) & 1) == 0));
            }
            const bool is_model =
                std::find(models.begin(), models.end(), bits) != models.end();
            const Result r = s.solve_assuming(assume);
            EXPECT_EQ(r, is_model ? Result::kSat : Result::kUnsat)
                << "inst " << inst << " bits " << bits;
            if (!s.okay()) break;  // formula proved UNSAT outright
        }
    }
}

TEST(Vivifier, EffortStaysProportional) {
    // One cold solve, then a long warm assumption sweep on one XOR-enabled
    // solver (the repeated-solve() shape of CryptoMiniSat's basic_test).
    // After every call the vivification passes together have spent at
    // most vivify_effort x the search's ticks, plus the last pass's
    // overshoot. A pass checks its budget only between propagations, so
    // it may finish one probe's propagation and the level-0 propagation
    // of what it derives; each visits a clause at most once per literal
    // it falsifies. The overshoot is thus at most twice the literals the
    // solver holds: at most 3 per problem clause (3-SAT clauses and the
    // binaries Gauss-Jordan adds, up to 2 per XOR row per call) and at
    // most n per learnt clause.
    //
    // A planted instance, satisfiable at every seed so the sweep always
    // runs its 200 calls.
    Rng rng(testutil::test_seed(41));
    const size_t n = 20;
    const uint32_t planted = static_cast<uint32_t>(rng.below(1u << n));
    auto planted_value = [planted](Var v) { return ((planted >> v) & 1) != 0; };
    Cnf cnf = cnfgen::random_ksat(n, 84, 3, rng);
    for (auto& clause : cnf.clauses) {
        const bool satisfied =
            std::any_of(clause.begin(), clause.end(), [&](Lit l) {
                return planted_value(l.var()) != l.sign();
            });
        if (!satisfied) clause[0] = ~clause[0];
    }
    for (int i = 0; i < 4; ++i) {
        XorConstraint x;
        x.rhs = false;
        for (int j = 0; j < 4; ++j) {
            x.vars.push_back(static_cast<Var>(rng.below(n)));
            x.rhs ^= planted_value(x.vars.back());
        }
        cnf.xors.push_back(std::move(x));
    }
    const std::vector<uint32_t> models = cnf_models(cnf);
    auto oracle = [&models](const std::vector<Lit>& assumptions) {
        for (const uint32_t m : models) {
            bool consistent = true;
            for (const Lit a : assumptions)
                if (((m >> a.var()) & 1) == a.sign()) consistent = false;
            if (consistent) return Result::kSat;
        }
        return Result::kUnsat;
    };

    Solver::Config cfg = inproc_config(true);
    cfg.enable_xor = true;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));
    const double effort = cfg.inprocess.vivify_effort;
    size_t problem_peak = 0;  // problem clauses before any call so far
    auto solve_and_check = [&](const std::vector<Lit>& assume,
                               const std::string& where) {
        problem_peak =
            std::max(problem_peak, InstanceFeatures::extract(s).num_clauses);
        ASSERT_EQ(s.solve_assuming(assume), oracle(assume)) << where;
        const Solver::Stats& st = s.stats();
        const double problem_lits =
            3.0 * static_cast<double>(problem_peak + 2 * cnf.xors.size());
        const double learnt_lits = static_cast<double>(n * st.learnt_clauses);
        EXPECT_LE(static_cast<double>(st.vivify_ticks),
                  effort * static_cast<double>(st.search_ticks) +
                      2.0 * (problem_lits + learnt_lits))
            << where << ": vivify_ticks " << st.vivify_ticks
            << ", search_ticks " << st.search_ticks;
    };

    solve_and_check({}, "cold solve");
    for (int call = 0; call < 200; ++call) {
        std::vector<Lit> assume;
        for (int k = 0; k < 3; ++k)
            assume.push_back(
                mk_lit(static_cast<Var>(rng.below(n)), rng.coin()));
        solve_and_check(assume, "warm call " + std::to_string(call));
    }
    EXPECT_GT(s.stats().vivify_passes, 0u) << "the sweep must vivify";
    EXPECT_GT(s.stats().vivify_ticks, 0u);
}

// ---- tiered learnt DB -----------------------------------------------------

/// Run a search hard enough to force reductions, with structural
/// invariants spot-checked from inside the search via the terminate
/// callback. `expected` is the instance's known verdict (the brute-force
/// oracle is far too slow at these sizes).
void run_reduction_stress(Solver& s, const Cnf& cnf, Result expected) {
    ASSERT_TRUE(s.load(cnf));
    bool invariants_held = true;
    int polls = 0;
    s.set_terminate_callback([&s, &invariants_held, &polls]() {
        // Polled at conflict/decision boundaries, where the clause DB is
        // in a consistent state. The full check is O(db size), so only
        // every 64th poll actually runs it.
        if ((++polls & 63) == 0 && !s.check_db_invariants())
            invariants_held = false;
        return false;
    });
    const Result r = s.solve(200'000);
    EXPECT_TRUE(invariants_held);
    EXPECT_TRUE(s.check_db_invariants());
    EXPECT_EQ(r, expected);
}

TEST(ClauseDb, LegacyReduceKeepsInvariants) {
    // The pre-in-processing reduce_db path (inprocess.enabled = false):
    // pinned before and preserved by the tiered refactor. PHP(8, 7) is
    // hard enough (~3k conflicts) to push past the legacy 1000-learnt
    // floor; smaller pigeonholes finish before any reduction fires.
    Cnf cnf = cnfgen::pigeonhole(7);  // UNSAT, conflict-heavy
    Solver s(inproc_config(false));
    run_reduction_stress(s, cnf, Result::kUnsat);
    EXPECT_GT(s.stats().deleted_clauses, 0u);
    EXPECT_EQ(s.stats().db_reductions, 0u);  // tiered path never engaged
}

TEST(ClauseDb, TieredReduceKeepsInvariantsAndProtections) {
    Cnf cnf = cnfgen::pigeonhole(7);
    Solver::Config cfg = inproc_config(true);
    cfg.inprocess.local_cap_min = 40;  // force frequent reductions
    cfg.inprocess.vivify = false;      // isolate the DB manager
    Solver s(cfg);
    run_reduction_stress(s, cnf, Result::kUnsat);
    EXPECT_GT(s.stats().db_reductions, 0u);
    // Glue never reaches the local tier (classify() sends LBD <= 2 to
    // core/mid and LBD refreshes only promote), so the deletion pass must
    // never even have to veto one. Reason-locked vetoes ARE expected:
    // reductions run mid-search where locked local clauses are normal.
    EXPECT_EQ(s.db_glue_delete_vetoes(), 0u);
}

TEST(ClauseDb, ArenaCollectsAtRestartsOfOneXorSearch) {
    // Frequent reductions on an XOR-propagating search: within one solve
    // call the waste (deleted learnts, XOR reason clauses) is collected
    // at restarts. Pigeonhole stays UNSAT whatever rows are added.
    Cnf cnf = cnfgen::pigeonhole(7);
    Rng rng(testutil::test_seed(11) * 1000003 + 5);
    for (int i = 0; i < 2; ++i) {
        XorConstraint x;
        for (int j = 0; j < 6; ++j)
            x.vars.push_back(static_cast<Var>(rng.below(cnf.num_vars)));
        x.rhs = rng.coin();
        cnf.xors.push_back(std::move(x));
    }
    Solver::Config cfg = inproc_config(true);
    cfg.enable_xor = true;
    cfg.inprocess.local_cap_min = 40;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));
    // Polled at conflict/decision boundaries: the invariants (including
    // the wasted-word recount) every 64th poll, and whether the arena
    // shrank since the last poll, which only a collection does.
    size_t last_words = 0;
    bool collected = false;
    bool invariants_held = true;
    int polls = 0;
    s.set_terminate_callback([&] {
        collected |= s.arena_words() < last_words;
        last_words = s.arena_words();
        if ((++polls & 63) == 0 && !s.check_db_invariants())
            invariants_held = false;
        return false;
    });
    EXPECT_EQ(s.solve(200'000), Result::kUnsat);
    EXPECT_TRUE(invariants_held);
    EXPECT_GT(s.stats().xor_propagations, 0u);
    EXPECT_GT(s.stats().db_reductions, 0u);
    EXPECT_TRUE(collected) << "no arena collection ran";
}

TEST(ClauseDb, ForcedSweepKeepsPropagationIntegrity) {
    const uint64_t base_seed = testutil::test_seed(11);
    for (int inst = 0; inst < 6; ++inst) {
        Rng rng(base_seed * 1000003 + inst * 797 + 13);
        Cnf cnf = cnfgen::random_ksat(7, 24, 3, rng);
        Solver s(inproc_config(true));
        ASSERT_TRUE(s.load(cnf));
        const Result first = s.solve();
        ASSERT_TRUE(s.check_db_invariants());
        s.debug_force_reduce();
        ASSERT_TRUE(s.check_db_invariants());
        // The sweep must not change the verdict of a re-solve.
        EXPECT_EQ(s.solve(), first);
        EXPECT_EQ(first, oracle_verdict(cnf, {}));
    }
}

TEST(ClauseDb, TierStatePersistsAcrossSolveCalls) {
    Cnf cnf = cnfgen::pigeonhole(5);
    Solver::Config cfg = inproc_config(true);
    cfg.inprocess.local_cap_min = 40;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));

    // A budgeted first call leaves learnt clauses behind...
    s.solve(400);
    const auto after_first = s.db_tier_counts();
    const uint64_t reductions_first = s.stats().db_reductions;
    EXPECT_GT(after_first.total(), 0u);

    // ...and a second call continues from that state instead of resetting
    // the cap: the counts stay consistent and reductions keep counting up.
    s.solve(400);
    EXPECT_TRUE(s.check_db_invariants());
    EXPECT_GE(s.stats().db_reductions, reductions_first);
    EXPECT_GT(s.db_tier_counts().total(), 0u);
}

// ---- warm-vs-cold and on-vs-off differentials -----------------------------

TEST(Inprocess, OnVsOffVerdictsAgreeUnderAssumptionSweeps) {
    const uint64_t base_seed = testutil::test_seed(23);
    for (int inst = 0; inst < 5; ++inst) {
        Rng rng(base_seed * 1000003 + inst * 797 + 13);
        Cnf cnf = cnfgen::random_ksat(8, 26, 3, rng);

        Solver on(inproc_config(true));
        Solver off(inproc_config(false));
        ASSERT_TRUE(on.load(cnf));
        ASSERT_TRUE(off.load(cnf));

        // Warm sweep: both solvers answer a sequence of assumption sets;
        // both are exact, so every verdict must match the oracle.
        for (int q = 0; q < 12; ++q) {
            std::vector<Lit> assume;
            for (Var v = 0; v < 3; ++v) {
                assume.push_back(
                    mk_lit((v * 7 + q) % 8, ((q >> v) & 1) != 0));
            }
            const Result want = oracle_verdict(cnf, assume);
            EXPECT_EQ(on.solve_assuming(assume), want)
                << "inprocess on, inst " << inst << " query " << q;
            EXPECT_EQ(off.solve_assuming(assume), want)
                << "inprocess off, inst " << inst << " query " << q;
            if (!on.okay() || !off.okay()) break;
        }
    }
}

TEST(Inprocess, AutoProfileResolvesPerSolve) {
    // XOR-dense instance: the kAuto rule must land on crypto-xor. Built
    // with native XOR rows (cnfgen::xor_cycle expands to plain CNF, which
    // would leave the density feature at zero).
    Cnf cnf;
    cnf.num_vars = 12;
    for (uint32_t i = 0; i < 12; ++i)
        cnf.xors.push_back({{i, (i + 1) % 12}, false});  // all-equal: SAT
    cnf.add_clause({pos(0), pos(5)});
    Solver::Config cfg = inproc_config(true);
    cfg.enable_xor = true;
    Solver s(cfg);
    ASSERT_TRUE(s.load(cnf));
    EXPECT_EQ(s.active_profile(), ProfileId::kFixed);  // nothing applied yet
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_EQ(s.active_profile(), ProfileId::kCryptoXor);

    // A plain 3-SAT instance resolves to a non-crypto profile.
    Rng rng2(testutil::test_seed(31) + 1);
    Cnf plain = cnfgen::random_ksat(8, 26, 3, rng2);
    Solver s2(inproc_config(true));
    ASSERT_TRUE(s2.load(plain));
    s2.solve();
    EXPECT_NE(s2.active_profile(), ProfileId::kCryptoXor);
    EXPECT_NE(s2.active_profile(), ProfileId::kFixed);
}

TEST(Inprocess, FixedProfileHonoursExplicitKnobs) {
    Solver::Config cfg = inproc_config(true);
    cfg.inprocess.profile = ProfileId::kFixed;
    cfg.restart_base = 37;
    Solver s(cfg);
    Rng rng(testutil::test_seed(37));
    Cnf cnf = cnfgen::random_ksat(7, 22, 3, rng);
    ASSERT_TRUE(s.load(cnf));
    const Result r = s.solve();
    EXPECT_EQ(s.active_profile(), ProfileId::kFixed);
    EXPECT_EQ(r, oracle_verdict(cnf, {}));
}

// ---- global counters ------------------------------------------------------

TEST(InprocessCounters, AdvanceAndUnregisterOnDestruction) {
    auto& g = inprocess::counters();
    const uint64_t passes_before =
        g.vivify_passes.load(std::memory_order_relaxed);
    const int64_t gauge_before =
        g.tier_core.load(std::memory_order_relaxed) +
        g.tier_mid.load(std::memory_order_relaxed) +
        g.tier_local.load(std::memory_order_relaxed);
    {
        Cnf cnf = cnfgen::pigeonhole(7);
        Solver::Config cfg = inproc_config(true);
        cfg.inprocess.local_cap_min = 40;  // reductions publish the gauges
        Solver s(cfg);
        ASSERT_TRUE(s.load(cnf));
        // Vivify before solving: the instance is UNSAT, and vivification
        // is a no-op once the solver has hit bottom.
        s.debug_force_vivify(10'000);
        EXPECT_GT(g.vivify_passes.load(std::memory_order_relaxed),
                  passes_before);
        s.solve(200'000);
    }
    // The solver's ClauseDbManager unregistered its gauge share.
    const int64_t gauge_after =
        g.tier_core.load(std::memory_order_relaxed) +
        g.tier_mid.load(std::memory_order_relaxed) +
        g.tier_local.load(std::memory_order_relaxed);
    EXPECT_EQ(gauge_after, gauge_before);
}

}  // namespace
}  // namespace bosphorus::sat
