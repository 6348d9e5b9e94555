// Engine-level pin of the conflict-bounded SAT step (paper section III-E).
//
// The fixed Simon-[9,7] and SR(2,2,2,4) instances of the golden tests run
// through Engine::run under the SAT-step settings a caller can choose --
// the defaults, in-processing off, the fixed profile with explicit
// restart/learnt-DB knobs, and the minisat registry backend -- and one
// warm Session answers three assumption sets over the Simon base. With
// XL/ElimLin held to M = 12 the SAT step does real work here: it harvests
// facts on Simon and decides SR. Pinned per run: the verdict, the outer
// iterations, the fresh facts per technique, the fixed/replaced variable
// counts and an order-sensitive fold of the processed system. Refactors
// of how the step is configured must leave every number as it is.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bosphorus/bosphorus.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

using anf::Polynomial;

struct Instance {
    std::vector<Polynomial> polys;
    std::vector<bool> witness;
};

/// The instances of AnfSystem.GoldenSimonAndSr.
Instance golden_instance(bool simon) {
    Rng rng(2024);
    Instance out;
    if (simon) {
        auto inst = crypto::Simon32(7).encode(9, rng);
        out.polys = std::move(inst.polys);
        out.witness = std::move(inst.witness);
    } else {
        auto inst = crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng);
        out.polys = std::move(inst.polys);
        out.witness = std::move(inst.witness);
    }
    return out;
}

EngineConfig pin_config() {
    EngineConfig cfg;
    cfg.xl.m_budget = 12;
    cfg.elimlin.m_budget = 12;
    cfg.max_iterations = 2;
    return cfg;
}

struct Pin {
    sat::Result verdict;
    size_t iterations;
    size_t xl, elimlin, sat;  ///< fresh facts per technique
    size_t fixed, replaced;
    uint64_t fold;  ///< of Report::processed_anf
};

void expect_pin(const Instance& inst, const Report& r, const Pin& want,
                const std::string& what) {
    uint64_t fold = 0;
    for (const Polynomial& p : r.processed_anf)
        fold = (fold ^ p.hash()) * 0x100000001B3ULL;
    EXPECT_EQ(r.verdict, want.verdict) << what;
    EXPECT_EQ(r.iterations, want.iterations) << what;
    EXPECT_EQ(r.facts_from("xl"), want.xl) << what;
    EXPECT_EQ(r.facts_from("elimlin"), want.elimlin) << what;
    EXPECT_EQ(r.facts_from("sat"), want.sat) << what;
    EXPECT_EQ(r.vars_fixed, want.fixed) << what;
    EXPECT_EQ(r.vars_replaced, want.replaced) << what;
    EXPECT_EQ(fold, want.fold) << what;
    if (r.verdict == sat::Result::kSat) {
        ASSERT_GE(r.solution.size(), inst.witness.size()) << what;
        const std::vector<bool> a(r.solution.begin(),
                                  r.solution.begin() + inst.witness.size());
        for (const Polynomial& p : inst.polys)
            EXPECT_FALSE(p.evaluate(a)) << what << ": model violates an equation";
    }
}

constexpr sat::Result kSat = sat::Result::kSat;
constexpr sat::Result kUnsat = sat::Result::kUnsat;
constexpr sat::Result kUnknown = sat::Result::kUnknown;

TEST(SatStep, EngineRunPinsSimonAndSr) {
    const char* const names[] = {"default", "no-inprocess",
                                 "fixed/restart37/floor40", "minisat"};
    // [instance: simon, sr][variant in `names` order]
    const Pin golden[2][4] = {
        {
            {kUnknown, 2, 2, 2, 1, 0, 148, 0x475a4a73426a247aULL},
            {kUnknown, 2, 2, 2, 2, 0, 150, 0xe47309a8520864ffULL},
            {kUnknown, 2, 2, 0, 4, 0, 150, 0xc28eabac3a8bc299ULL},
            {kUnknown, 2, 2, 2, 1, 0, 148, 0x475a4a73426a247aULL},
        },
        {
            {kSat, 0, 0, 0, 0, 0, 16, 0x2132c91e45d03cd9ULL},
            {kSat, 0, 0, 0, 0, 0, 16, 0x2132c91e45d03cd9ULL},
            {kSat, 0, 0, 0, 0, 0, 16, 0x2132c91e45d03cd9ULL},
            {kSat, 0, 0, 0, 0, 0, 16, 0x2132c91e45d03cd9ULL},
        },
    };
    for (const bool simon : {true, false}) {
        const Instance inst = golden_instance(simon);
        const Problem problem = Problem::from_anf(inst.polys, inst.witness.size());
        for (int v = 0; v < 4; ++v) {
            EngineConfig cfg = pin_config();
            if (v == 1) cfg.sat_inprocess = false;
            if (v == 2) {
                cfg.sat_profile = sat::inprocess::ProfileId::kFixed;
                cfg.sat_restart_base = 37;
                cfg.sat_learnt_db_floor = 40;
            }
            if (v == 3) cfg.sat_backend = "minisat";
            const std::string what =
                std::string(simon ? "simon " : "sr ") + names[v];
            const Result<Report> r = Engine(cfg).run(problem);
            ASSERT_TRUE(r.ok()) << what << ": " << r.status().to_string();
            expect_pin(inst, *r, golden[simon ? 0 : 1][v], what);
        }
    }
}

TEST(SatStep, WarmSessionPinsThreeScopedSolves) {
    // Push, fix the first six variables (to the witness, then flipped,
    // then the witness again), solve warm, pop.
    const Pin golden[3] = {
        {kUnknown, 2, 0, 1, 11, 60, 128, 0x8f7abc550f9ba02fULL},
        {kUnknown, 2, 0, 1, 18, 60, 127, 0xfad79166f2dfd51dULL},
        {kUnknown, 2, 0, 1, 10, 60, 127, 0x2f1ded2095236104ULL},
    };
    const Instance inst = golden_instance(true);
    Session session(Problem::from_anf(inst.polys, inst.witness.size()),
                    pin_config());
    for (int k = 0; k < 3; ++k) {
        ASSERT_TRUE(session.push().ok());
        for (anf::Var v = 0; v < 6; ++v)
            ASSERT_TRUE(session.assume(v, (k == 1) != inst.witness[v]).ok());
        const Result<Report> r = session.solve();
        const std::string what = "warm solve " + std::to_string(k);
        ASSERT_TRUE(r.ok()) << what << ": " << r.status().to_string();
        expect_pin(inst, *r, golden[k], what);
        ASSERT_TRUE(session.pop().ok());
    }
}

}  // namespace
}  // namespace bosphorus
