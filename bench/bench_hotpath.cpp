// Core-pipeline hot-path harness: terms/sec through a mirrored XL-expand /
// linearise / ElimLin loop, and four in-run kernel ratios measured on the
// systems, matrices and substitutions that loop produces.
//
// The tracked throughput is terms/sec: the count of monomial terms flowing
// through products, matrix fills and substitutions, divided by the
// pipeline's wall-clock (informational; absolute, so machine-dependent).
// The four ratios are machine-independent and gated in CI:
//  - `elim_kernel_over_plain`: plain Gauss-Jordan time over
//    Matrix::rref_sparse() time on the pipeline's linearised matrices
//    (both must reduce to the same matrix);
//  - `subst_kernel_over_reference`: the reference substitution (untouched
//    terms + quotient * by, canonicalised) time over the in-place
//    substitution kernel's (Polynomial::apply) on the substitutions the
//    pipeline's ElimLin loop performs (both must give the same
//    polynomial);
//  - `karnaugh_memo_over_direct`: the time to convert SR(2,2,2,4) systems
//    to CNF with every Karnaugh cover taken from the warm process-wide
//    memo, against the same conversion calling the minimiser for every
//    chunk (the clauses must match);
//  - `linearize_over_hashed`: a hashed-column reference linearisation's
//    time (a hash set to de-duplicate, a hash map from monomial to
//    column) over core::linearize()'s (the per-thread mark table) on the
//    systems the pipeline linearises (both must give the same columns and
//    matrix).
// The harness exits nonzero if any of the four pairs disagrees.
//
// Output: JSON to stdout and BENCH_hotpath.json (override with
// BENCH_JSON_OUT).
//
// Knobs (defaults tuned so the term algebra, not the shared GF(2)
// elimination, dominates the measurement): BENCH_HOT_INSTANCES (6),
// BENCH_HOT_VARS (24), BENCH_HOT_EQS (128), BENCH_HOT_QUAD_TERMS (6),
// BENCH_HOT_LIN_TERMS (4), BENCH_HOT_LINEAR_EQS (14, planted-consistent
// linear equations mixed in so the ElimLin substitution cascade actually
// runs), BENCH_HOT_XL_DEGREE (1, the paper's default),
// BENCH_HOT_ELIMLIN_ROUNDS (8), BENCH_HOT_REPS (3), BENCH_HOT_CAP
// (1<<18), BENCH_SEED (1).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "anf/monomial_store.h"
#include "anf/polynomial.h"
#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "core/anf_to_cnf.h"
#include "core/linearize.h"
#include "crypto/aes_small.h"
#include "gf2/gf2_matrix.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using bosphorus::Rng;
using bosphorus::Timer;
using Var = bosphorus::anf::Var;
using Mono = bosphorus::anf::Monomial;
using MonoHash = bosphorus::anf::MonomialHash;
using Poly = bosphorus::anf::Polynomial;

size_t env_or(const char* name, size_t fallback) {
    if (const char* v = std::getenv(name)) return std::strtoul(v, nullptr, 10);
    return fallback;
}

struct HotKnobs {
    unsigned xl_degree = 2;
    size_t expand_cap = size_t{1} << 21;  // rows * distinct monomials
    unsigned elimlin_rounds = 4;
};

struct HotOutcome {
    std::vector<std::string> facts;  // generation order, deterministic
    uint64_t terms = 0;
};

// The hashed-column reference linearisation the pipeline runs on: a hash
// set de-duplicates the terms, the distinct monomials are sorted
// descending deg-lex, and a hash map gives each term its column.
struct HashedLinearization {
    std::vector<Mono> cols;
    bosphorus::gf2::Matrix matrix;
};

HashedLinearization hashed_linearize(const std::vector<Poly>& polys) {
    HashedLinearization lin;
    std::unordered_set<Mono, MonoHash> seen;
    for (const Poly& p : polys) {
        for (const Mono& m : p.monomials()) {
            if (seen.insert(m).second) lin.cols.push_back(m);
        }
    }
    std::sort(lin.cols.begin(), lin.cols.end(),
              [](const Mono& a, const Mono& b) { return b < a; });
    std::unordered_map<Mono, size_t, MonoHash> col_of;
    col_of.reserve(lin.cols.size());
    for (size_t c = 0; c < lin.cols.size(); ++c)
        col_of.emplace(lin.cols[c], c);

    lin.matrix = bosphorus::gf2::Matrix(polys.size(), lin.cols.size());
    for (size_t r = 0; r < polys.size(); ++r)
        for (const Mono& m : polys[r].monomials())
            lin.matrix.flip(r, col_of.at(m));
    return lin;
}

// One ElimLin substitution q := q[v := by], as the pipeline met it.
struct SubstCase {
    Poly q, by;
    Var v = 0;
};

// The mirrored hot pipeline. No randomness, no id-value dependence, no
// unordered-container iteration leaks (sets are membership/size only, the
// column list is sorted before use), so its facts are deterministic.
// `systems`, if non-null, receives a copy of every system the pipeline
// linearises; `substs`, if non-null, receives every ElimLin substitution
// before it is applied.
HotOutcome run_hot_pipeline(
    const std::vector<Poly>& input, const HotKnobs& knobs,
    std::vector<std::vector<Poly>>* systems = nullptr,
    std::vector<SubstCase>* substs = nullptr) {
    HotOutcome out;

    std::vector<Poly> system;
    system.reserve(input.size());
    for (const Poly& p : input) {
        out.terms += p.size();
        if (!p.is_zero()) system.push_back(p);
    }

    // ---- linearise + reduce + split rows (shared by XL and ElimLin) ----
    struct Reduced {
        std::vector<Poly> linear, nonlinear;
        bool contradiction = false;
    };
    auto linear_pass = [&out, systems](const std::vector<Poly>& polys) {
        Reduced red;
        if (systems) systems->push_back(polys);
        HashedLinearization lin = hashed_linearize(polys);
        for (const Poly& p : polys) out.terms += p.size();
        const std::vector<Mono>& cols = lin.cols;
        bosphorus::gf2::Matrix& mat = lin.matrix;
        mat.rref_sparse();

        for (size_t r = 0; r < mat.rows(); ++r) {
            if (mat.row_is_zero(r)) continue;
            std::vector<Mono> monos;
            for (size_t c = 0; c < cols.size(); ++c) {
                if (mat.get(r, c)) monos.push_back(cols[c]);
            }
            Poly p(std::move(monos));
            out.terms += p.size();
            if (p.is_one()) {
                red.contradiction = true;
                return red;
            }
            if (p.degree() <= 1) {
                red.linear.push_back(std::move(p));
            } else {
                red.nonlinear.push_back(std::move(p));
            }
        }
        return red;
    };

    auto note_fact = [&out](const Poly& p) { out.facts.push_back(p.to_string()); };

    // ---- stage 1: XL expansion at fixed degree -------------------------
    {
        std::vector<Var> vars;
        {
            std::vector<Var> all;
            for (const Poly& p : system) {
                const auto pv = p.variables();
                all.insert(all.end(), pv.begin(), pv.end());
            }
            std::sort(all.begin(), all.end());
            all.erase(std::unique(all.begin(), all.end()), all.end());
            vars = std::move(all);
        }
        std::vector<Mono> muls;
        for (Var v : vars) muls.push_back(Mono(v));
        if (knobs.xl_degree >= 2) {
            for (size_t i = 0; i < vars.size(); ++i)
                for (size_t j = i + 1; j < vars.size(); ++j)
                    muls.push_back(Mono(std::vector<Var>{vars[i], vars[j]}));
        }

        std::vector<Poly> expanded = system;
        std::unordered_set<Mono, MonoHash> monos;
        for (const Poly& p : expanded)
            for (const Mono& m : p.monomials()) monos.insert(m);
        auto size_ok = [&]() {
            return expanded.size() * std::max<size_t>(monos.size(), 1) <
                   knobs.expand_cap;
        };
        for (const Poly& p : system) {
            if (!size_ok()) break;
            bool keep_going = true;
            for (const Mono& mul : muls) {
                Poly prod = p * mul;
                out.terms += prod.size();
                if (!prod.is_zero()) {
                    for (const Mono& m : prod.monomials()) monos.insert(m);
                    expanded.push_back(std::move(prod));
                }
                keep_going = size_ok();
                if (!keep_going) break;
            }
            if (!keep_going) break;
        }

        Reduced red = linear_pass(expanded);
        if (red.contradiction) {
            out.facts.assign(1, Poly::constant(true).to_string());
            return out;
        }
        for (const Poly& p : red.linear) note_fact(p);
    }

    // ---- stage 2: ElimLin rounds on the base system --------------------
    std::vector<Poly> work = system;
    for (unsigned round = 0; round < knobs.elimlin_rounds; ++round) {
        Reduced red = linear_pass(work);
        if (red.contradiction) {
            out.facts.assign(1, Poly::constant(true).to_string());
            return out;
        }
        if (red.linear.empty()) break;
        for (const Poly& l : red.linear) note_fact(l);

        work = std::move(red.nonlinear);
        std::vector<Poly> pending = red.linear;
        for (size_t li = 0; li < pending.size(); ++li) {
            const Poly l = pending[li];
            if (l.is_zero() || l.degree() < 1) continue;
            // Rarest-variable heuristic: same choice as core::run_elimlin
            // (which keeps the counts incrementally).
            const std::vector<Var> cand = l.variables();
            Var best = cand[0];
            size_t best_count = SIZE_MAX;
            for (Var v : cand) {
                size_t count = 0;
                for (const Poly& q : work) count += q.contains_var(v);
                for (size_t lj = li + 1; lj < pending.size(); ++lj)
                    count += pending[lj].contains_var(v);
                if (count < best_count) {
                    best = v;
                    best_count = count;
                }
            }
            const Poly rest = l + Poly::variable(best);
            bosphorus::anf::Substitution subst;
            subst.set(best, rest);
            auto record = [&](const Poly& q) {
                if (substs) substs->push_back({q, rest, best});
            };
            for (Poly& q : work) {
                if (q.contains_var(best)) {
                    out.terms += q.size();
                    record(q);
                    q.apply(subst);
                    out.terms += q.size();
                }
            }
            for (size_t lj = li + 1; lj < pending.size(); ++lj) {
                if (pending[lj].contains_var(best)) {
                    record(pending[lj]);
                    pending[lj].apply(subst);
                }
            }
        }
        work.erase(std::remove_if(work.begin(), work.end(),
                                  [](const Poly& p) { return p.is_zero(); }),
                   work.end());
        if (work.empty()) break;
    }
    return out;
}

}  // namespace

int main() {
    const size_t instances = env_or("BENCH_HOT_INSTANCES", 6);
    const size_t num_vars = env_or("BENCH_HOT_VARS", 24);
    const size_t num_eqs = env_or("BENCH_HOT_EQS", 128);
    const size_t num_linear = env_or("BENCH_HOT_LINEAR_EQS", 14);
    const size_t reps = std::max<size_t>(1, env_or("BENCH_HOT_REPS", 3));
    const auto seed = static_cast<uint64_t>(env_or("BENCH_SEED", 1));
    HotKnobs knobs;
    knobs.xl_degree =
        static_cast<unsigned>(env_or("BENCH_HOT_XL_DEGREE", 1));
    knobs.elimlin_rounds =
        static_cast<unsigned>(env_or("BENCH_HOT_ELIMLIN_ROUNDS", 8));
    knobs.expand_cap = env_or("BENCH_HOT_CAP", size_t{1} << 18);
    const char* json_path = std::getenv("BENCH_JSON_OUT");
    if (!json_path) json_path = "BENCH_hotpath.json";

    // Planted quadratic instances.
    Rng gen_rng(seed * 0x9E3779B9ULL + 7);
    std::vector<std::vector<Poly>> systems;
    std::vector<bosphorus::Problem> problems;
    for (size_t i = 0; i < instances; ++i) {
        bosphorus::cnfgen::PlantedAnf inst =
            bosphorus::cnfgen::planted_quadratic_anf(
                num_vars, num_eqs,
                static_cast<unsigned>(env_or("BENCH_HOT_QUAD_TERMS", 6)),
                static_cast<unsigned>(env_or("BENCH_HOT_LIN_TERMS", 4)),
                gen_rng);
        // Mix in planted-consistent linear equations: they surface as
        // linear rows after the first reduction, so ElimLin's
        // substitute-into-dense-quadratics cascade (the merge-heavy part
        // of the hot path) runs instead of fixpointing immediately.
        for (size_t l = 0; l < num_linear; ++l) {
            const size_t k = 3 + gen_rng.below(5);
            std::vector<Var> vs;
            for (size_t t = 0; t < k; ++t)
                vs.push_back(static_cast<Var>(gen_rng.below(num_vars)));
            std::sort(vs.begin(), vs.end());
            vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
            bool parity = false;
            for (Var v : vs) parity ^= inst.planted[v];
            std::vector<Mono> ms;
            for (Var v : vs) ms.push_back(Mono(v));
            if (parity) ms.push_back(Mono());
            inst.polys.push_back(Poly(std::move(ms)));
        }
        systems.push_back(inst.polys);
        problems.push_back(bosphorus::Problem::from_anf(std::move(inst.polys),
                                                        inst.num_vars));
    }

    double pipeline_s = 0.0;
    uint64_t pipeline_terms = 0;
    size_t pipeline_facts = 0;
    for (size_t rep = 0; rep < reps; ++rep) {
        Timer t;
        for (size_t i = 0; i < instances; ++i) {
            const HotOutcome o = run_hot_pipeline(systems[i], knobs);
            pipeline_terms += o.terms;
            if (rep == 0) pipeline_facts += o.facts.size();
        }
        pipeline_s += t.seconds();
    }
    const double terms_per_sec =
        pipeline_s > 0 ? static_cast<double>(pipeline_terms) / pipeline_s
                       : 0.0;

    // The systems the pipeline linearises, collected by one extra,
    // untimed pass.
    std::vector<std::vector<Poly>> linearised;
    for (size_t i = 0; i < instances; ++i)
        run_hot_pipeline(systems[i], knobs, &linearised);

    // ---- the elimination kernel vs plain Gauss-Jordan on the pipeline's
    // linearised matrices, alternating per matrix, 10 passes per
    // repetition (one pass takes about a millisecond). Both must reduce to
    // the same matrix.
    double kernel_s = 0.0, plain_s = 0.0;
    bool elim_identical = true;
    {
        std::vector<bosphorus::gf2::Matrix> matrices;
        for (const auto& sys : linearised)
            matrices.push_back(hashed_linearize(sys).matrix);
        for (size_t rep = 0; rep < 10 * reps; ++rep) {
            for (const auto& base : matrices) {
                bosphorus::gf2::Matrix kernel = base, plain = base;
                Timer tk;
                kernel.rref_sparse();
                kernel_s += tk.seconds();
                std::vector<size_t> pivots;
                Timer tp;
                plain.rref(&pivots);
                plain_s += tp.seconds();
                elim_identical = elim_identical && kernel == plain;
            }
        }
        if (!elim_identical)
            std::fprintf(stderr, "kernel and plain rref reduced differently\n");
    }
    const double kernel_over_plain = kernel_s > 0 ? plain_s / kernel_s : 0.0;

    // ---- core::linearize vs the hashed-column reference on the same
    // systems, alternating per system, 10 passes per repetition. Both must
    // give the same columns and matrix.
    double marks_s = 0.0, hashed_s = 0.0;
    bool lin_identical = true;
    for (size_t rep = 0; rep < 10 * reps; ++rep) {
        for (const auto& sys : linearised) {
            Timer tm;
            const auto lin = bosphorus::core::linearize(sys);
            marks_s += tm.seconds();
            Timer th;
            const auto ref = hashed_linearize(sys);
            hashed_s += th.seconds();
            lin_identical = lin_identical && lin.col_monomial == ref.cols &&
                            lin.matrix == ref.matrix;
        }
    }
    if (!lin_identical)
        std::fprintf(stderr,
                     "core::linearize and the hashed reference disagree\n");
    const double linearize_over_hashed =
        marks_s > 0 ? hashed_s / marks_s : 0.0;

    // ---- the substitution kernel vs the reference composition on the
    // pipeline's ElimLin substitutions (collected by one extra, untimed
    // pass), alternating per pass, 10 passes per repetition. Both must
    // give the same polynomial.
    double subst_kernel_s = 0.0, subst_reference_s = 0.0;
    bool subst_identical = true;
    size_t subst_cases = 0;
    {
        std::vector<SubstCase> cases;
        for (size_t i = 0; i < instances; ++i)
            run_hot_pipeline(systems[i], knobs, nullptr, &cases);
        subst_cases = cases.size();
        std::vector<bosphorus::anf::Substitution> maps(cases.size());
        for (size_t c = 0; c < cases.size(); ++c)
            maps[c].set(cases[c].v, cases[c].by);
        std::vector<Poly> kernel_out(cases.size()), reference_out(cases.size());
        for (size_t rep = 0; rep < 10 * reps; ++rep) {
            Timer tk;
            for (size_t c = 0; c < cases.size(); ++c) {
                kernel_out[c] = cases[c].q;
                kernel_out[c].apply(maps[c]);
            }
            subst_kernel_s += tk.seconds();
            Timer tr;
            for (size_t c = 0; c < cases.size(); ++c) {
                std::vector<Mono> untouched, quotients;
                for (const Mono& m : cases[c].q.monomials()) {
                    if (m.contains(cases[c].v)) {
                        quotients.push_back(m.without(cases[c].v));
                    } else {
                        untouched.push_back(m);
                    }
                }
                reference_out[c] = Poly(std::move(untouched)) +
                                   Poly(std::move(quotients)) * cases[c].by;
            }
            subst_reference_s += tr.seconds();
            subst_identical = subst_identical && kernel_out == reference_out;
        }
        if (!subst_identical)
            std::fprintf(stderr,
                         "substitution kernel and reference composition "
                         "disagree\n");
    }
    const double subst_over_reference =
        subst_kernel_s > 0 ? subst_reference_s / subst_kernel_s : 0.0;

    // ---- ANF -> CNF conversion of SR(2,2,2,4) systems with the warm
    // Karnaugh memo vs a memo that holds nothing (every chunk calls the
    // minimiser), alternating per pass, 10 passes per repetition. Both
    // must emit the same clauses.
    double memo_s = 0.0, direct_s = 0.0;
    bool conv_identical = true;
    size_t karnaugh_chunks = 0;
    {
        std::vector<std::vector<Poly>> sr_systems;
        std::vector<size_t> sr_vars;
        Rng sr_rng(seed * 0x9E3779B9ULL + 11);
        for (size_t i = 0; i < instances; ++i) {
            auto inst = bosphorus::crypto::SmallScaleAes({2, 2, 2, 4})
                            .random_instance(sr_rng);
            sr_vars.push_back(inst.witness.size());
            sr_systems.push_back(std::move(inst.polys));
        }
        bosphorus::core::KarnaughMemo direct(0);
        auto& memo = bosphorus::core::KarnaughMemo::shared();
        const bosphorus::core::Anf2CnfConfig conv;
        for (size_t i = 0; i < sr_systems.size(); ++i) {  // warm the memo
            karnaugh_chunks +=
                bosphorus::core::anf_to_cnf(sr_systems[i], sr_vars[i], conv,
                                            memo)
                    .karnaugh_polys;
        }
        for (size_t rep = 0; rep < 10 * reps; ++rep) {
            for (size_t i = 0; i < sr_systems.size(); ++i) {
                Timer tm;
                const auto warm = bosphorus::core::anf_to_cnf(
                    sr_systems[i], sr_vars[i], conv, memo);
                memo_s += tm.seconds();
                Timer td;
                const auto cold = bosphorus::core::anf_to_cnf(
                    sr_systems[i], sr_vars[i], conv, direct);
                direct_s += td.seconds();
                conv_identical = conv_identical &&
                                 warm.cnf.num_vars == cold.cnf.num_vars &&
                                 warm.cnf.clauses == cold.cnf.clauses;
            }
        }
        if (!conv_identical)
            std::fprintf(stderr,
                         "memoised and direct conversion emitted different "
                         "clauses\n");
    }
    const double memo_over_direct = memo_s > 0 ? direct_s / memo_s : 0.0;

    // ---- the real engine over the same instances (tracked wall-clock).
    size_t n_sat = 0, n_unsat = 0, n_unknown = 0;
    double engine_s = 0.0;
    {
        bosphorus::EngineConfig cfg;
        cfg.xl.m_budget = 16;
        cfg.elimlin.m_budget = 16;
        cfg.max_iterations = 6;
        cfg.time_budget_s = 20.0;
        cfg.seed = seed;
        Timer t;
        for (const auto& p : problems) {
            bosphorus::Engine engine(cfg);
            auto r = engine.run(p);
            if (!r.ok()) {
                ++n_unknown;
                continue;
            }
            switch (r->verdict) {
                case bosphorus::sat::Result::kSat: ++n_sat; break;
                case bosphorus::sat::Result::kUnsat: ++n_unsat; break;
                default: ++n_unknown; break;
            }
        }
        engine_s = t.seconds();
    }

    const auto& store = bosphorus::anf::MonomialStore::global();

    std::string json = "{\n";
    char buf[512];
    auto add = [&](const char* fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        json += buf;
    };
    add("  \"bench\": \"hotpath\",\n");
    add("  \"instances\": %zu,\n  \"vars\": %zu,\n  \"equations\": %zu,\n"
        "  \"linear_equations\": %zu,\n",
        instances, num_vars, num_eqs, num_linear);
    add("  \"seed\": %llu,\n  \"reps\": %zu,\n",
        static_cast<unsigned long long>(seed), reps);
    add("  \"xl_degree\": %u,\n  \"elimlin_rounds\": %u,\n  \"expand_cap\": %zu,\n",
        knobs.xl_degree, knobs.elimlin_rounds, knobs.expand_cap);
    add("  \"pipeline\": {\"seconds\": %.4f, \"terms\": %llu, "
        "\"terms_per_sec\": %.0f, \"facts\": %zu},\n",
        pipeline_s, static_cast<unsigned long long>(pipeline_terms),
        terms_per_sec, pipeline_facts);
    add("  \"elim\": {\"kernel_seconds\": %.4f, \"plain_seconds\": %.4f, "
        "\"identical\": %s},\n",
        kernel_s, plain_s, elim_identical ? "true" : "false");
    add("  \"elim_kernel_over_plain\": %.3f,\n", kernel_over_plain);
    add("  \"subst\": {\"cases\": %zu, \"kernel_seconds\": %.4f, "
        "\"reference_seconds\": %.4f, \"identical\": %s},\n",
        subst_cases, subst_kernel_s, subst_reference_s,
        subst_identical ? "true" : "false");
    add("  \"subst_kernel_over_reference\": %.3f,\n", subst_over_reference);
    add("  \"karnaugh\": {\"chunks\": %zu, \"memo_seconds\": %.4f, "
        "\"direct_seconds\": %.4f, \"identical\": %s},\n",
        karnaugh_chunks, memo_s, direct_s,
        conv_identical ? "true" : "false");
    add("  \"karnaugh_memo_over_direct\": %.3f,\n", memo_over_direct);
    add("  \"linearize\": {\"systems\": %zu, \"marks_seconds\": %.4f, "
        "\"hashed_seconds\": %.4f, \"identical\": %s},\n",
        linearised.size(), marks_s, hashed_s,
        lin_identical ? "true" : "false");
    add("  \"linearize_over_hashed\": %.3f,\n", linearize_over_hashed);
    add("  \"engine\": {\"seconds\": %.4f, \"sat\": %zu, \"unsat\": %zu, "
        "\"unknown\": %zu},\n",
        engine_s, n_sat, n_unsat, n_unknown);
    add("  \"store\": {\"monomials\": %zu, \"mul_memo_hits\": %zu, "
        "\"mul_memo_misses\": %zu}\n}\n",
        store.size(), store.mul_memo_hits(), store.mul_memo_misses());

    std::fputs(json.c_str(), stdout);
    if (std::ofstream out{json_path}) out << json;
    else std::fprintf(stderr, "warning: cannot write %s\n", json_path);

    return (elim_identical && subst_identical && conv_identical &&
            lin_identical)
               ? 0
               : 1;
}
