// Tests for the sparse GF(2) elimination kernel (Matrix::rref_sparse) and
// the degree-bounded Groebner (Buchberger/F4) learning step. The kernel's
// test names (M4r*) date from the Method-of-Four-Russians kernel it
// replaced; they are kept so their history stays readable.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "anf/anf_parser.h"
#include "bosphorus/engine.h"
#include "core/groebner.h"
#include "core/linearize.h"
#include "core/xl.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "gf2/gf2_matrix.h"
#include "test_util.h"
#include "util/rng.h"

namespace bosphorus {
namespace {

// ---- The sparse elimination kernel ---------------------------------------

// A random matrix: bit densities 1/2 down to 1/64, widths up to ~700
// columns (mostly not a multiple of 64), whole 64-column words left zero,
// and every third matrix tall and rank-deficient.
gf2::Matrix random_matrix(int seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const unsigned density_log = 1 + static_cast<unsigned>(seed % 6);
    const bool tall = seed % 3 == 0;
    const size_t cols = 1 + rng.below(700);
    const size_t rows = tall ? cols + 1 + rng.below(200) : 1 + rng.below(300);
    std::vector<bool> zero_window((cols + 63) / 64);
    for (size_t w = 0; w < zero_window.size(); ++w)
        zero_window[w] = rng.below(4) == 0;
    gf2::Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (!zero_window[c / 64] && rng.below(1u << density_log) == 0)
                m.set(r, c, true);
    if (tall) {
        // Rows past the first cols/2 are sums of two of those.
        const size_t basis = std::max<size_t>(1, cols / 2);
        for (size_t r = basis; r < rows; ++r) {
            const size_t a = rng.below(basis), b = rng.below(basis);
            for (size_t c = 0; c < cols; ++c)
                m.set(r, c, m.get(a, c) ^ m.get(b, c));
        }
    }
    return m;
}

// The shape of XL's matrices: a few sparse linear polynomials, each
// multiplied by every variable and linearised in XL's column order. The
// result is tall, with many rows per leading column, and rank-deficient:
// each l_i * l_j lies in the span of both l_i's and l_j's products.
gf2::Matrix xl_shaped_matrix(int seed) {
    Rng rng(static_cast<uint64_t>(seed) + 1000);
    const size_t num_vars = 8 + rng.below(40);
    const size_t num_linear = 2 + rng.below(6);
    std::vector<anf::Polynomial> products;
    for (size_t i = 0; i < num_linear; ++i) {
        anf::Polynomial l = anf::Polynomial::constant(rng.coin());
        for (size_t t = 1 + rng.below(5); t-- > 0;)
            l += anf::Polynomial::variable(
                static_cast<anf::Var>(rng.below(num_vars)));
        products.push_back(l);
        for (size_t v = 0; v < num_vars; ++v)
            products.push_back(l * anf::Monomial{static_cast<anf::Var>(v)});
    }
    return core::linearize(products).matrix;
}

gf2::Matrix with_rows_shuffled(const gf2::Matrix& m, Rng& rng) {
    std::vector<size_t> perm(m.rows());
    std::iota(perm.begin(), perm.end(), size_t{0});
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.below(i)]);
    gf2::Matrix out(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            if (m.get(perm[r], c)) out.set(r, c, true);
    return out;
}

// Checks that `out` (rank `rank`) is the reduced row echelon form of `in`
// from the definition alone, with no other Gauss-Jordan as a reference:
// the pivot columns strictly increase, each is a unit vector, zero rows
// come last, every input row reduces to zero against the output (the
// output spans the input), and the rank equals the number of pivots a
// plain forward elimination (row_echelon) finds (so the spans are equal).
void expect_rref_of(const gf2::Matrix& in, const gf2::Matrix& out,
                    size_t rank) {
    ASSERT_EQ(out.rows(), in.rows());
    ASSERT_EQ(out.cols(), in.cols());
    ASSERT_LE(rank, in.rows());
    std::vector<size_t> lead(rank);
    for (size_t i = 0; i < rank; ++i) {
        const long c = out.first_set_in_row(i);
        ASSERT_GE(c, 0) << "pivot row " << i << " is zero";
        lead[i] = static_cast<size_t>(c);
        if (i > 0) ASSERT_LT(lead[i - 1], lead[i]) << "row " << i;
    }
    for (size_t r = rank; r < out.rows(); ++r)
        ASSERT_TRUE(out.row_is_zero(r)) << "row " << r << " past the rank";
    for (size_t i = 0; i < rank; ++i)
        for (size_t r = 0; r < rank; ++r)
            ASSERT_EQ(out.get(r, lead[i]), r == i)
                << "pivot column " << lead[i] << ", row " << r;
    const size_t n_words = in.words_per_row();
    for (size_t r = 0; r < in.rows(); ++r) {
        std::vector<uint64_t> v(in.row_words(r), in.row_words(r) + n_words);
        for (size_t i = 0; i < rank; ++i) {
            if (((v[lead[i] / 64] >> (lead[i] % 64)) & 1) == 0) continue;
            for (size_t w = 0; w < n_words; ++w) v[w] ^= out.row_words(i)[w];
        }
        ASSERT_TRUE(std::all_of(v.begin(), v.end(),
                                [](uint64_t w) { return w == 0; }))
            << "input row " << r << " is not in the output's span";
    }
    gf2::Matrix echelon = in;
    EXPECT_EQ(echelon.row_echelon(), rank);
}

class SparseRrefProperties : public ::testing::TestWithParam<int> {
protected:
    // The kernel's output is the RREF of `in`, and shuffling the input
    // rows (which reorders the buckets whose ties the pivot choice breaks,
    // and so changes the pivots taken) changes nothing.
    static void check(const gf2::Matrix& in) {
        gf2::Matrix out = in;
        const size_t rank = out.rref_sparse();
        expect_rref_of(in, out, rank);
        Rng rng(static_cast<uint64_t>(GetParam()) + 77);
        for (int shuffle = 0; shuffle < 2; ++shuffle) {
            gf2::Matrix again = with_rows_shuffled(in, rng);
            EXPECT_EQ(again.rref_sparse(), rank);
            EXPECT_EQ(again, out) << "shuffle " << shuffle;
        }
    }
};

TEST_P(SparseRrefProperties, RandomMatrix) { check(random_matrix(GetParam())); }

TEST_P(SparseRrefProperties, XlShapedMatrix) {
    const gf2::Matrix in = xl_shaped_matrix(GetParam());
    ASSERT_GT(in.rows(), in.cols() / 4);
    check(in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRrefProperties, ::testing::Range(0, 60));

class M4rRandom : public ::testing::TestWithParam<int> {};

TEST_P(M4rRandom, MatchesPlainRrefExactly) {
    const int seed = GetParam();
    const gf2::Matrix original = random_matrix(seed);
    gf2::Matrix plain = original;
    std::vector<size_t> pivots;
    const size_t rank_plain = plain.rref(&pivots);  // forces the plain path
    if (seed % 3 == 0)
        EXPECT_LE(rank_plain, std::max<size_t>(1, original.cols() / 2));

    gf2::Matrix fast = original;
    EXPECT_EQ(fast.rref_sparse(), rank_plain);
    EXPECT_EQ(fast, plain) << original.rows() << "x" << original.cols();
}

INSTANTIATE_TEST_SUITE_P(Seeds, M4rRandom, ::testing::Range(0, 60));

TEST(M4r, RealXlExpansionsMatchPlain) {
    // The matrices the kernel exists for: XL's linearisation of seeded
    // Simon-[9,7] and SR(2,2,2,4) instances -- sparse, and sparse after
    // reduction.
    Rng rng(2024);
    const auto simon = crypto::Simon32(7).encode(9, rng).polys;
    const auto sr = crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng).polys;
    for (const auto* system : {&simon, &sr}) {
        core::XlConfig cfg;
        cfg.m_budget = 20;
        Rng xl_rng(7);
        const core::Linearization lin = core::expand_xl(*system, cfg, xl_rng);
        ASSERT_GT(lin.rows(), 1000u);
        gf2::Matrix plain = lin.matrix;
        std::vector<size_t> pivots;
        const size_t rank = plain.rref(&pivots);
        gf2::Matrix fast = lin.matrix;
        EXPECT_EQ(fast.rref_sparse(), rank);
        EXPECT_EQ(fast, plain) << lin.rows() << "x" << lin.cols();
    }
}

TEST(M4r, LargeMatrixDispatch) {
    // rref() on a big matrix dispatches to the sparse kernel; spot-check
    // the rank against the row_echelon() count.
    Rng rng(99);
    gf2::Matrix m = gf2::Matrix::random(300, 300, rng);
    gf2::Matrix probe = m;
    const size_t rank = m.rref();
    EXPECT_EQ(probe.row_echelon(), rank);
    // Full-rank with overwhelming probability; at minimum near-full.
    EXPECT_GE(rank, 290u);
}

TEST(M4r, RankDeficientStructured) {
    // Duplicate rows and zero columns exercise the pivot-skip path.
    gf2::Matrix m(6, 10);
    for (size_t c : {1u, 3u, 4u}) {
        m.set(0, c, true);
        m.set(1, c, true);  // duplicate of row 0
    }
    m.set(2, 5, true);
    m.set(3, 5, true);  // duplicate of row 2
    // rows 4, 5 zero
    gf2::Matrix plain = m, fast = m;
    std::vector<size_t> pivots;
    EXPECT_EQ(plain.rref(&pivots), 2u);
    EXPECT_EQ(fast.rref_sparse(), 2u);
    EXPECT_EQ(fast, plain);
}

TEST(M4r, IdentityStaysIdentity) {
    gf2::Matrix m = gf2::Matrix::identity(50);
    EXPECT_EQ(m.rref_sparse(), 50u);
    EXPECT_EQ(m, gf2::Matrix::identity(50));
}

// ---- Groebner step -------------------------------------------------------

using anf::parse_system_from_string;
using anf::Polynomial;

TEST(Groebner, DerivesFactBeyondPlainGje) {
    // {x1x2 + x3, x1x3}: the S-pair of the two equations gives
    // x1x3 + x1x2*... -> multiplying relations reveals x3's behaviour.
    // Concretely x1*(x1x2 + x3) = x1x2 + x1x3, + (x1x2 + x3) = x1x3 + x3,
    // + x1x3 = x3. Verify run_groebner finds the linear fact x3.
    const auto sys = parse_system_from_string("x1*x2 + x3\nx1*x3\n");
    core::GroebnerConfig cfg;
    Rng rng(1);
    const auto facts = core::run_groebner(sys.polynomials, cfg, rng);
    bool found = false;
    for (const auto& f : facts) found |= (f == anf::parse_polynomial("x3"));
    EXPECT_TRUE(found) << "expected the consequence x3 = 0";
}

TEST(Groebner, DetectsTrivialIdeal) {
    const auto sys = parse_system_from_string("x1\nx1 + 1\n");
    core::GroebnerConfig cfg;
    Rng rng(1);
    const auto facts = core::run_groebner(sys.polynomials, cfg, rng);
    ASSERT_EQ(facts.size(), 1u);
    EXPECT_TRUE(facts[0].is_one());
}

TEST(Groebner, EmptySystem) {
    core::GroebnerConfig cfg;
    Rng rng(1);
    EXPECT_TRUE(core::run_groebner({}, cfg, rng).empty());
}

class GroebnerRandom : public ::testing::TestWithParam<int> {};

TEST_P(GroebnerRandom, FactsAreConsequences) {
    Rng rng(GetParam() + 300);
    const unsigned nv = 4 + rng.below(3);
    std::vector<Polynomial> polys;
    const size_t np = 3 + rng.below(4);
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
    const auto models = testutil::anf_models(polys, nv);

    core::GroebnerConfig cfg;
    Rng grng(GetParam() * 7 + 3);
    core::GroebnerStats stats;
    const auto facts = core::run_groebner(polys, cfg, grng, &stats);
    for (const auto& f : facts) {
        if (f.is_one()) {
            EXPECT_TRUE(models.empty()) << "Groebner claimed UNSAT wrongly";
            continue;
        }
        for (uint32_t m : models) {
            std::vector<bool> a(nv);
            for (unsigned v = 0; v < nv; ++v) a[v] = (m >> v) & 1;
            EXPECT_FALSE(f.evaluate(a))
                << "Groebner fact " << f.to_string()
                << " violated by a model";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroebnerRandom, ::testing::Range(0, 30));

TEST(Groebner, PluggedIntoTheLoop) {
    // The Groebner-enabled loop must agree with brute force and can decide
    // instances with XL and SAT disabled.
    const auto sys = parse_system_from_string(
        "x1*x2 + x3\n"
        "x1*x3\n"
        "x2 + x1 + 1\n");
    EngineConfig opt;
    opt.use_xl = false;
    opt.use_elimlin = false;
    opt.use_groebner = true;
    opt.xl.m_budget = 16;
    opt.max_iterations = 8;
    const auto res = Engine(opt).run(Problem::from_anf(sys.polynomials, 3));
    ASSERT_TRUE(res.ok());
    EXPECT_GT(res->facts_from("groebner") + res->vars_fixed, 0u);
    EXPECT_NE(res->verdict, sat::Result::kUnsat);
    const auto models = testutil::anf_models(sys.polynomials, 3);
    const auto processed = testutil::anf_models(res->processed_anf, 3);
    EXPECT_EQ(models, processed);
}

}  // namespace
}  // namespace bosphorus
