// Shared brute-force oracles for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "anf/polynomial.h"
#include "sat/types.h"
#include "util/rng.h"

namespace bosphorus::testutil {

/// The base seed randomized tests derive their RNG streams from:
/// `fallback` unless the BOSPHORUS_TEST_SEED environment variable
/// overrides it. The chosen seed is announced on stderr the first time it
/// is read, so any failing log carries the line needed to reproduce the
/// run (`BOSPHORUS_TEST_SEED=<n> ./test_...`).
inline uint64_t test_seed(uint64_t fallback = 1) {
    static const uint64_t seed = [fallback] {
        uint64_t s = fallback;
        if (const char* v = std::getenv("BOSPHORUS_TEST_SEED"))
            s = std::strtoull(v, nullptr, 10);
        std::fprintf(stderr,
                     "c test seed: %llu (reproduce with "
                     "BOSPHORUS_TEST_SEED=%llu)\n",
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(s));
        return s;
    }();
    return seed;
}

/// All satisfying assignments of an ANF system (every polynomial == 0),
/// brute-forced over num_vars <= ~20 variables. Assignments encoded as
/// bitmasks (bit v = variable v).
inline std::vector<uint32_t> anf_models(
    const std::vector<anf::Polynomial>& polys, size_t num_vars) {
    std::vector<uint32_t> models;
    for (uint32_t m = 0; m < (1u << num_vars); ++m) {
        std::vector<bool> a(num_vars);
        for (size_t v = 0; v < num_vars; ++v) a[v] = (m >> v) & 1;
        bool ok = true;
        for (const auto& p : polys) {
            if (p.evaluate(a)) { ok = false; break; }
        }
        if (ok) models.push_back(m);
    }
    return models;
}

/// A random degree-<=2 polynomial over `nv` variables.
inline anf::Polynomial random_poly(Rng& rng, unsigned nv) {
    std::vector<anf::Monomial> monos;
    const size_t n = 1 + rng.below(4);
    for (size_t i = 0; i < n; ++i) {
        std::vector<anf::Var> vars;
        const size_t d = rng.below(3);  // constant, linear, or quadratic
        for (size_t j = 0; j < d; ++j)
            vars.push_back(static_cast<anf::Var>(rng.below(nv)));
        monos.emplace_back(vars);
    }
    return anf::Polynomial(std::move(monos));
}

/// A random tiny ANF system and its brute-force models.
struct RandomInstance {
    std::vector<anf::Polynomial> polys;
    unsigned num_vars = 0;
    std::vector<uint32_t> models;  // brute-force ground truth
};

/// 4..8 variables, num_vars..num_vars+5 equations of degree <= 2.
inline RandomInstance random_instance(Rng& rng) {
    RandomInstance inst;
    inst.num_vars = 4 + static_cast<unsigned>(rng.below(5));  // 4..8
    const size_t n_eqs = inst.num_vars + rng.below(6);
    for (size_t i = 0; i < n_eqs; ++i) {
        anf::Polynomial p = random_poly(rng, inst.num_vars);
        // Drop 0 = 0 (no information) and 1 = 0 (trivially UNSAT at
        // parse -- it would drown the draw in uninteresting instances).
        if (p.is_zero() || p == anf::Polynomial::constant(true)) continue;
        inst.polys.push_back(std::move(p));
    }
    if (inst.polys.empty())
        inst.polys.push_back(anf::Polynomial::variable(0));  // degenerate draw
    inst.models = anf_models(inst.polys, inst.num_vars);
    return inst;
}

/// All satisfying assignments of a CNF (clauses + xors).
inline std::vector<uint32_t> cnf_models(const sat::Cnf& cnf) {
    std::vector<uint32_t> models;
    for (uint32_t m = 0; m < (1u << cnf.num_vars); ++m) {
        bool ok = true;
        for (const auto& clause : cnf.clauses) {
            bool sat_clause = false;
            for (sat::Lit l : clause) {
                const bool val = (m >> l.var()) & 1;
                if (val != l.sign()) { sat_clause = true; break; }
            }
            if (!sat_clause) { ok = false; break; }
        }
        if (ok) {
            for (const auto& x : cnf.xors) {
                bool parity = false;
                for (sat::Var v : x.vars) parity ^= (m >> v) & 1;
                if (parity != x.rhs) { ok = false; break; }
            }
        }
        if (ok) models.push_back(m);
    }
    return models;
}

/// Project CNF models onto the first `keep` variables, deduplicated.
inline std::vector<uint32_t> project_models(std::vector<uint32_t> models,
                                            size_t keep) {
    const uint32_t mask = keep >= 32 ? 0xFFFFFFFFu : ((1u << keep) - 1);
    for (auto& m : models) m &= mask;
    std::sort(models.begin(), models.end());
    models.erase(std::unique(models.begin(), models.end()), models.end());
    return models;
}

}  // namespace bosphorus::testutil
