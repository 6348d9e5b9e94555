#include "core/anf_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "anf/anf_parser.h"
#include "core/elimlin.h"
#include "core/xl.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus::core {
namespace {

using anf::parse_polynomial;
using anf::parse_system_from_string;
using anf::Polynomial;

AnfSystem make(const std::string& text, size_t num_vars) {
    auto sys = parse_system_from_string(text);
    return AnfSystem(sys.polynomials, std::max(num_vars, sys.num_vars));
}

TEST(AnfSystem, AssignsFromUnitPolynomials) {
    // x1 = 0 (from "x1"), x2 = 1 (from "x2 + 1").
    AnfSystem sys = make("x1\nx2 + 1\n", 2);
    EXPECT_TRUE(sys.okay());
    EXPECT_EQ(sys.resolve(0).kind, VarState::Kind::kFixed);
    EXPECT_FALSE(sys.resolve(0).value);
    EXPECT_TRUE(sys.resolve(1).value);
    EXPECT_TRUE(sys.equations().empty());
}

TEST(AnfSystem, MonomialFactSetsAllOnes) {
    // x1*x2*x3 + 1 = 0 forces x1 = x2 = x3 = 1 (paper section II).
    AnfSystem sys = make("x1*x2*x3 + 1\n", 3);
    EXPECT_TRUE(sys.okay());
    for (anf::Var v = 0; v < 3; ++v) {
        EXPECT_EQ(sys.resolve(v).kind, VarState::Kind::kFixed);
        EXPECT_TRUE(sys.resolve(v).value);
    }
}

TEST(AnfSystem, EquivalencePropagation) {
    // x1 + x2 = 0 makes them equal; fixing one fixes the other.
    AnfSystem sys = make("x1 + x2\n", 2);
    EXPECT_TRUE(sys.okay());
    EXPECT_EQ(sys.num_replaced(), 1u);
    sys.add_fact(parse_polynomial("x1 + 1"));
    EXPECT_TRUE(sys.resolve(0).value);
    EXPECT_TRUE(sys.resolve(1).value);
}

TEST(AnfSystem, AntiEquivalencePropagation) {
    AnfSystem sys = make("x1 + x2 + 1\n", 2);
    sys.add_fact(parse_polynomial("x1"));  // x1 = 0
    EXPECT_EQ(sys.resolve(0).kind, VarState::Kind::kFixed);
    EXPECT_FALSE(sys.resolve(0).value);
    EXPECT_TRUE(sys.resolve(1).value) << "x2 = !x1 = 1";
}

TEST(AnfSystem, ContradictionDetected) {
    AnfSystem sys = make("x1\nx1 + 1\n", 1);
    EXPECT_FALSE(sys.okay());
}

TEST(AnfSystem, EquivalenceCycleContradiction) {
    // x1 = x2, x2 = x3, x1 = !x3 is unsatisfiable.
    AnfSystem sys = make("x1 + x2\nx2 + x3\nx1 + x3 + 1\n", 3);
    EXPECT_FALSE(sys.okay());
}

TEST(AnfSystem, EquivalenceCycleConsistent) {
    AnfSystem sys = make("x1 + x2\nx2 + x3\nx1 + x3\n", 3);
    EXPECT_TRUE(sys.okay());
    EXPECT_EQ(sys.num_replaced(), 2u);
}

TEST(AnfSystem, PropagationCascades) {
    // Fixing x1 simplifies x1*x2 + x3 to x3 -> x3 = 0... with x1 = 1.
    AnfSystem sys = make("x1 + 1\nx1*x2 + x3\n", 3);
    EXPECT_TRUE(sys.okay());
    // x1 = 1 reduces the second poly to x2 + x3: an equivalence.
    EXPECT_EQ(sys.num_fixed(), 1u);
    EXPECT_EQ(sys.num_replaced(), 1u);
}

TEST(AnfSystem, PaperExampleSectionIIE) {
    // The worked example (1): after XL facts are added, propagation alone
    // reaches the unique solution x1..x4 = 1, x5 = 0.
    AnfSystem sys = make(
        "x1*x2 + x3 + x4 + 1\n"
        "x1*x2*x3 + x1 + x3 + 1\n"
        "x1*x3 + x3*x4*x5 + x3\n"
        "x2*x3 + x3*x5 + 1\n"
        "x2*x3 + x5 + 1\n",
        5);
    ASSERT_TRUE(sys.okay());
    // Add the facts the paper says XL learns.
    for (const char* f :
         {"x2*x3*x4 + 1", "x1*x3*x4 + 1", "x1 + x5 + 1", "x1 + x4", "x3 + 1",
          "x1 + x2"}) {
        sys.add_fact(parse_polynomial(f));
    }
    ASSERT_TRUE(sys.okay());
    const std::vector<bool> expect{true, true, true, true, false};
    for (anf::Var v = 0; v < 5; ++v) {
        const VarState st = sys.resolve(v);
        EXPECT_EQ(st.kind, VarState::Kind::kFixed) << "x" << v + 1;
        EXPECT_EQ(st.value, expect[v]) << "x" << v + 1;
    }
}

TEST(AnfSystem, AddFactDeduplicates) {
    AnfSystem sys = make("x1*x2 + x3\n", 3);
    EXPECT_FALSE(sys.add_fact(parse_polynomial("x1*x2 + x3")))
        << "existing polynomial is not a new fact";
    EXPECT_FALSE(sys.add_fact(Polynomial()));
}

TEST(AnfSystem, CheckSolutionUsesOriginals) {
    AnfSystem sys = make("x1 + x2\nx1*x2 + 1\n", 2);
    EXPECT_TRUE(sys.check_solution({true, true}));
    EXPECT_FALSE(sys.check_solution({true, false}));
    EXPECT_FALSE(sys.check_solution({false, false}));
}

TEST(AnfSystem, ExtendAssignment) {
    AnfSystem sys = make("x1 + 1\nx2 + x3\n", 3);
    // x1 fixed true; x2 == x3 (one replaced). Free values for the root.
    const auto full = sys.extend_assignment({false, true, true});
    EXPECT_TRUE(full[0]);
    EXPECT_EQ(full[1], full[2]);
}

TEST(AnfSystem, ToPolynomialsRoundTripsSolutions) {
    // The processed system must have the same solutions as the input.
    const std::string text =
        "x1*x2 + x3\n"
        "x2 + x4 + 1\n"
        "x1 + x2\n";
    const auto parsed = parse_system_from_string(text);
    AnfSystem sys(parsed.polynomials, 4);
    ASSERT_TRUE(sys.okay());
    const auto before = testutil::anf_models(parsed.polynomials, 4);
    const auto after = testutil::anf_models(sys.to_polynomials(), 4);
    EXPECT_EQ(before, after);
}

TEST(AnfSystem, GoldenSimonAndSr) {
    // A fixed Simon-[9,7] and SR(2,2,2,4) instance, then their XL and
    // ElimLin facts and ten witness bits, fed through add_fact. Pinned:
    // an order-sensitive fold of the processed system, the fixed/replaced
    // counts and how many facts were fresh. Propagation may get faster,
    // never different.
    struct Golden {
        uint64_t fold;
        size_t fixed;
        size_t replaced;
        size_t fresh;
    };
    const Golden golden[] = {
        {0x43292793aa290083ULL, 100, 154, 136},
        {0xf4f2d48843447119ULL, 28, 20, 66},
    };
    for (const bool simon : {true, false}) {
        Rng rng(2024);
        std::vector<Polynomial> polys;
        std::vector<bool> witness;
        if (simon) {
            auto inst = crypto::Simon32(7).encode(9, rng);
            polys = std::move(inst.polys);
            witness = std::move(inst.witness);
        } else {
            auto inst =
                crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng);
            polys = std::move(inst.polys);
            witness = std::move(inst.witness);
        }
        XlConfig xl_cfg;
        xl_cfg.m_budget = 20;
        Rng xl_rng(7);
        ElimLinConfig el_cfg;
        el_cfg.m_budget = 20;
        Rng el_rng(5);
        std::vector<Polynomial> facts = run_xl(polys, xl_cfg, xl_rng);
        for (auto& f : run_elimlin(polys, el_cfg, el_rng))
            facts.push_back(std::move(f));
        // Then ten witness bits, so constants cascade through the
        // replaced variables too.
        for (anf::Var v = 0; v < 10; ++v) {
            Polynomial f = Polynomial::variable(v);
            if (witness[v]) f += Polynomial::constant(true);
            facts.push_back(std::move(f));
        }

        AnfSystem sys(polys, witness.size());
        size_t fresh = 0;
        for (const auto& f : facts) fresh += sys.add_fact(f);
        uint64_t fold = 0;
        for (const auto& p : sys.to_polynomials())
            fold = (fold ^ p.hash()) * 0x100000001B3ULL;

        const char* name = simon ? "simon" : "sr";
        const Golden& want = golden[simon ? 0 : 1];
        EXPECT_TRUE(sys.okay()) << name;
        EXPECT_EQ(fold, want.fold) << name;
        EXPECT_EQ(sys.num_fixed(), want.fixed) << name;
        EXPECT_EQ(sys.num_replaced(), want.replaced) << name;
        EXPECT_EQ(fresh, want.fresh) << name;
    }
}

// Property sweep: propagation preserves the solution set exactly.
class AnfSystemRandom : public ::testing::TestWithParam<int> {};

TEST_P(AnfSystemRandom, PropagationPreservesSolutions) {
    Rng rng(GetParam());
    const unsigned nv = 4 + rng.below(4);
    std::vector<Polynomial> polys;
    const size_t np = 3 + rng.below(6);
    for (size_t i = 0; i < np; ++i) {
        std::vector<anf::Monomial> monos;
        const size_t nm = 1 + rng.below(4);
        for (size_t j = 0; j < nm; ++j) {
            std::vector<anf::Var> vars;
            const size_t d = rng.below(3);
            for (size_t l = 0; l < d; ++l)
                vars.push_back(static_cast<anf::Var>(rng.below(nv)));
            monos.emplace_back(std::move(vars));
        }
        polys.emplace_back(std::move(monos));
    }
    const auto before = testutil::anf_models(polys, nv);
    AnfSystem sys(polys, nv);
    if (!sys.okay()) {
        EXPECT_TRUE(before.empty())
            << "propagation claimed UNSAT on satisfiable system";
        return;
    }
    const auto after = testutil::anf_models(sys.to_polynomials(), nv);
    EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnfSystemRandom, ::testing::Range(0, 40));

// ---- snapshot / restore (the Session push/pop substrate) -------------------

/// Everything observable about a system's state, for exact-rewind checks.
struct Fingerprint {
    std::vector<Polynomial> equations;
    std::vector<Polynomial> processed;
    size_t num_fixed;
    size_t num_replaced;
    bool ok;

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const AnfSystem& sys) {
    Fingerprint f;
    f.equations = sys.equations();
    std::sort(f.equations.begin(), f.equations.end());
    f.processed = sys.to_polynomials();
    std::sort(f.processed.begin(), f.processed.end());
    f.num_fixed = sys.num_fixed();
    f.num_replaced = sys.num_replaced();
    f.ok = sys.okay();
    return f;
}

TEST(AnfSystemSnapshot, RestoreRewindsExactly) {
    AnfSystem sys =
        make("x1*x2 + x3 + x4 + 1\nx1*x2*x3 + x1 + x3 + 1\n"
             "x1*x3 + x3*x4*x5 + x3\nx2*x3 + x3*x5 + 1\nx2*x3 + x5 + 1\n",
             5);
    const Fingerprint base = fingerprint(sys);

    const auto snap = sys.snapshot();
    // Mutate heavily: fix a variable (triggers renormalisation and
    // follow-on propagation) and add a fresh equation.
    EXPECT_TRUE(sys.add_fact(parse_polynomial("x1 + 1")));
    sys.add_fact(parse_polynomial("x4 + x5"));
    EXPECT_NE(fingerprint(sys), base);

    sys.restore(snap);
    EXPECT_EQ(fingerprint(sys), base);

    // The dedup set must have rewound too: the same facts are "new" again
    // and lead to the same state.
    const auto again = sys.snapshot();
    EXPECT_TRUE(sys.add_fact(parse_polynomial("x1 + 1")));
    sys.restore(again);
    EXPECT_EQ(fingerprint(sys), base);
}

TEST(AnfSystemSnapshot, NestedSnapshotsRestoreInLifoOrder) {
    AnfSystem sys = make("x1 + x2 + x3\nx2*x3 + x4\n", 4);
    const Fingerprint f0 = fingerprint(sys);
    const auto s0 = sys.snapshot();

    sys.add_fact(parse_polynomial("x1"));
    const Fingerprint f1 = fingerprint(sys);
    const auto s1 = sys.snapshot();

    sys.add_fact(parse_polynomial("x2 + 1"));
    EXPECT_NE(fingerprint(sys), f1);

    sys.restore(s1);
    EXPECT_EQ(fingerprint(sys), f1);
    sys.restore(s0);
    EXPECT_EQ(fingerprint(sys), f0);
}

TEST(AnfSystemSnapshot, RestoreRecoversFromContradiction) {
    AnfSystem sys = make("x1 + x2\n", 2);
    const Fingerprint base = fingerprint(sys);
    const auto snap = sys.snapshot();

    sys.add_fact(parse_polynomial("x1"));      // x1 = 0 (so x2 = 0)
    sys.add_fact(parse_polynomial("x2 + 1"));  // x2 = 1: contradiction
    EXPECT_FALSE(sys.okay());

    sys.restore(snap);
    EXPECT_TRUE(sys.okay());
    EXPECT_EQ(fingerprint(sys), base);
    // The system is live again: new facts propagate normally.
    EXPECT_TRUE(sys.add_fact(parse_polynomial("x1 + 1")));
    EXPECT_TRUE(sys.resolve(1).value) << "x2 == x1 == 1";
}

TEST(AnfSystemSnapshot, AddOriginalIsScopedByRestore) {
    AnfSystem sys = make("x1 + x2\n", 2);
    const auto snap = sys.snapshot();
    sys.add_original(parse_polynomial("x1 + 1"));
    // x1 = x2 = 1 satisfies base + scope; all-zero violates the scope.
    EXPECT_TRUE(sys.check_solution({true, true}));
    EXPECT_FALSE(sys.check_solution({false, false}));
    sys.restore(snap);
    EXPECT_TRUE(sys.check_solution({false, false}))
        << "scoped original must not survive restore";
}

/// Randomised exactness: interleave snapshots, fact additions and
/// restores; every restore must reproduce the exact fingerprint taken at
/// its snapshot.
class AnfSystemSnapshotRandom : public ::testing::TestWithParam<int> {};

TEST_P(AnfSystemSnapshotRandom, RandomisedRoundTrips) {
    Rng rng(static_cast<uint64_t>(GetParam()) * 71 + 5);
    const unsigned nv = 5 + rng.below(5);
    std::vector<Polynomial> polys;
    const size_t np = 4 + rng.below(5);
    for (size_t i = 0; i < np; ++i) {
        std::vector<anf::Monomial> monos;
        const size_t nm = 1 + rng.below(4);
        for (size_t j = 0; j < nm; ++j) {
            std::vector<anf::Var> vars;
            const size_t d = rng.below(3);
            for (size_t l = 0; l < d; ++l)
                vars.push_back(static_cast<anf::Var>(rng.below(nv)));
            monos.emplace_back(std::move(vars));
        }
        polys.emplace_back(std::move(monos));
    }
    AnfSystem sys(polys, nv);

    std::vector<std::pair<AnfSystem::Snapshot, Fingerprint>> stack;
    for (int round = 0; round < 40; ++round) {
        const unsigned action = rng.below(3);
        if (action == 0) {
            stack.emplace_back(sys.snapshot(), fingerprint(sys));
        } else if (action == 1 && !stack.empty()) {
            sys.restore(stack.back().first);
            EXPECT_EQ(fingerprint(sys), stack.back().second)
                << "restore diverged in round " << round;
            stack.pop_back();
        } else {
            // A random small fact: unit, equivalence, or quadratic.
            const anf::Var a = static_cast<anf::Var>(rng.below(nv));
            const anf::Var b = static_cast<anf::Var>(rng.below(nv));
            Polynomial f = Polynomial::variable(a);
            switch (rng.below(4)) {
                case 0: break;                                   // a = 0
                case 1: f += Polynomial::constant(true); break;  // a = 1
                case 2: f += Polynomial::variable(b); break;     // a == b
                default:
                    f = f * Polynomial::variable(b);
                    f += Polynomial::constant(true);  // a*b = 1
                    break;
            }
            sys.add_fact(f);
        }
    }
    while (!stack.empty()) {
        sys.restore(stack.back().first);
        EXPECT_EQ(fingerprint(sys), stack.back().second);
        stack.pop_back();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnfSystemSnapshotRandom,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace bosphorus::core
