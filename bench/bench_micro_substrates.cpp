// Microbenchmarks of the substrate libraries (google-benchmark): GF(2)
// Gauss-Jordan elimination (the M4RI substitute's hot loop), Boolean
// polynomial arithmetic (PolyBoRi substitute), Quine-McCluskey
// minimisation (ESPRESSO substitute) and CDCL propagation throughput.
#include <benchmark/benchmark.h>

#include "anf/polynomial.h"
#include "cnfgen/generators.h"
#include "core/linearize.h"
#include "core/xl.h"
#include "crypto/aes_small.h"
#include "crypto/simon.h"
#include "gf2/gf2_matrix.h"
#include "minimize/quine_mccluskey.h"
#include "sat/solve_cnf.h"
#include "sat/solver.h"
#include "util/rng.h"

using namespace bosphorus;

static void BM_Gf2Rref(benchmark::State& state) {
    const size_t n = state.range(0);
    Rng rng(1);
    const gf2::Matrix base = gf2::Matrix::random(n, n, rng);
    for (auto _ : state) {
        gf2::Matrix m = base;
        benchmark::DoNotOptimize(m.rref());
    }
    state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Gf2Rref)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

static void BM_Gf2RrefSparseDense(benchmark::State& state) {
    // The sparse kernel (Matrix::rref_sparse) on the dense random matrices
    // of BM_Gf2Rref: its worst case, since every row is as full as every
    // other and no pivot choice saves fill. No caller builds such
    // matrices; the case shows what the kernel costs there.
    const size_t n = state.range(0);
    Rng rng(1);
    const gf2::Matrix base = gf2::Matrix::random(n, n, rng);
    for (auto _ : state) {
        gf2::Matrix m = base;
        benchmark::DoNotOptimize(m.rref_sparse());
    }
}
BENCHMARK(BM_Gf2RrefSparseDense)->Arg(64)->Arg(256)->Arg(1024);

// The matrices the elimination actually serves: XL's linearisation of a
// seeded SR(2,2,2,4) instance (~3300 x 5100, a few ones per row, still
// sparse once reduced). Arg 1 runs the kernel, arg 0 plain Gauss-Jordan.
static void BM_Gf2RrefSparseSr(benchmark::State& state) {
    Rng rng(2024);
    const auto sr =
        crypto::SmallScaleAes({2, 2, 2, 4}).random_instance(rng).polys;
    core::XlConfig cfg;
    cfg.m_budget = 20;
    Rng xl_rng(7);
    const gf2::Matrix base = core::expand_xl(sr, cfg, xl_rng).matrix;
    for (auto _ : state) {
        gf2::Matrix m = base;
        if (state.range(0)) {
            benchmark::DoNotOptimize(m.rref_sparse());
        } else {
            std::vector<size_t> pivots;
            benchmark::DoNotOptimize(m.rref(&pivots));
        }
    }
}
BENCHMARK(BM_Gf2RrefSparseSr)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

static void BM_Gf2Nullspace(benchmark::State& state) {
    const size_t n = state.range(0);
    Rng rng(2);
    const gf2::Matrix base = gf2::Matrix::random(n / 2, n, rng);
    for (auto _ : state) {
        gf2::Matrix m = base;
        benchmark::DoNotOptimize(m.nullspace());
    }
}
BENCHMARK(BM_Gf2Nullspace)->Arg(64)->Arg(256);

static void BM_PolynomialMultiply(benchmark::State& state) {
    Rng rng(3);
    const unsigned terms = state.range(0);
    std::vector<anf::Monomial> ma, mb;
    for (unsigned i = 0; i < terms; ++i) {
        ma.push_back(anf::Monomial(std::vector<anf::Var>{
            static_cast<anf::Var>(rng.below(32)),
            static_cast<anf::Var>(rng.below(32))}));
        mb.push_back(anf::Monomial(std::vector<anf::Var>{
            static_cast<anf::Var>(rng.below(32))}));
    }
    const anf::Polynomial a(std::move(ma)), b(std::move(mb));
    for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_PolynomialMultiply)->Arg(4)->Arg(16)->Arg(64);

static void BM_PolynomialSubstitute(benchmark::State& state) {
    Rng rng(4);
    std::vector<anf::Monomial> ms;
    for (int i = 0; i < 32; ++i)
        ms.push_back(anf::Monomial(std::vector<anf::Var>{
            static_cast<anf::Var>(rng.below(16)),
            static_cast<anf::Var>(rng.below(16))}));
    const anf::Polynomial p(std::move(ms));
    const anf::Polynomial by = anf::Polynomial::variable(20) +
                               anf::Polynomial::variable(21) +
                               anf::Polynomial::constant(true);
    for (auto _ : state) benchmark::DoNotOptimize(p.substitute(3, by));
}
BENCHMARK(BM_PolynomialSubstitute);

static void BM_Linearize(benchmark::State& state) {
    const crypto::Simon32 simon(8);
    Rng rng(5);
    const auto inst = simon.encode(4, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::linearize(inst.polys));
}
BENCHMARK(BM_Linearize);

static void BM_QuineMccluskey(benchmark::State& state) {
    const unsigned k = state.range(0);
    Rng rng(6);
    std::vector<bool> on(1u << k);
    for (size_t i = 0; i < on.size(); ++i) on[i] = rng.coin();
    for (auto _ : state)
        benchmark::DoNotOptimize(minimize::minimize_sop(on, k));
}
BENCHMARK(BM_QuineMccluskey)->Arg(4)->Arg(6)->Arg(8);

static void BM_SolverPropagation(benchmark::State& state) {
    // Measure full solve on a medium random 3-SAT instance (propagation-
    // dominated); reported as conflicts/sec via counters.
    Rng rng(7);
    const sat::Cnf cnf = cnfgen::random_ksat(200, 840, 3, rng);
    for (auto _ : state) {
        sat::Solver solver;
        solver.load(cnf);
        benchmark::DoNotOptimize(solver.solve(/*conflict_budget=*/5000));
        state.counters["propagations"] = static_cast<double>(
            solver.stats().propagations);
    }
}
BENCHMARK(BM_SolverPropagation);

static void BM_XorEnginePropagation(benchmark::State& state) {
    Rng rng(8);
    const sat::Cnf cnf = cnfgen::xor_cycle(400, true, rng);
    for (auto _ : state) {
        sat::Solver::Config cfg;
        cfg.enable_xor = true;
        sat::Solver solver(cfg);
        sat::Cnf native = cnf;
        native.xors = sat::recover_xors(cnf);
        solver.load(native);
        benchmark::DoNotOptimize(solver.solve(5000));
    }
}
BENCHMARK(BM_XorEnginePropagation);

BENCHMARK_MAIN();
