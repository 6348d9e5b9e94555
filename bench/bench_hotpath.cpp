// Core-pipeline hot-path harness: terms/sec through the XL-expand /
// linearise / ElimLin loop, before vs after the interned-monomial rewrite.
//
// The same pipeline code runs twice, templated on the term representation:
//  - interned  : anf::Monomial / anf::Polynomial (hash-consed MonoIds);
//  - legacy    : anf::legacy::* (heap vector<Var> per monomial -- the
//                pre-interning snapshot, compiled in when the CMake option
//                BOSPHORUS_LEGACY_TERMS is ON).
// Both arms execute bit-identical algebra (no RNG inside the pipeline), so
// their extracted facts and derived verdicts must match exactly -- the
// harness exits nonzero otherwise. The tracked number is terms/sec: the
// count of monomial terms flowing through products, matrix fills and
// substitutions, divided by the arm's wall-clock. Timing alternates
// legacy/interned per repetition so drift cancels.
//
// Output: JSON to stdout and BENCH_hotpath.json (override with
// BENCH_JSON_OUT). `speedup_terms_per_sec` (interned vs legacy) is a
// machine-independent number the CI bench smoke job guards against
// regression. The other is `elim_kernel_over_plain`: plain Gauss-Jordan
// time over Matrix::rref_m4r() time on the interned arm's linearised
// matrices (both must reduce to the same matrix, or the harness exits
// nonzero). The third is `subst_kernel_over_reference`: the reference
// substitution (untouched terms + quotient * by, canonicalised) time over
// the in-place substitution kernel's (Polynomial::apply) on the
// substitutions the interned arm's ElimLin loop performs (both must give
// the same polynomial, or the harness exits nonzero). The fourth is
// `karnaugh_memo_over_direct`: the time to convert SR(2,2,2,4) systems to
// CNF with every Karnaugh cover taken from the warm process-wide memo,
// against the same conversion calling the minimiser for every chunk (the
// clauses must match, or the harness exits nonzero). Pass --legacy-terms
// to time only the legacy arm.
//
// Knobs (defaults tuned so the term algebra, not the shared GF(2)
// elimination, dominates the measurement): BENCH_HOT_INSTANCES (6),
// BENCH_HOT_VARS (24), BENCH_HOT_EQS (128), BENCH_HOT_QUAD_TERMS (8),
// BENCH_HOT_LIN_TERMS (6), BENCH_HOT_LINEAR_EQS (14, planted-consistent
// linear equations mixed in so the ElimLin substitution cascade actually
// runs), BENCH_HOT_XL_DEGREE (1, the paper's default),
// BENCH_HOT_ELIMLIN_ROUNDS (8), BENCH_HOT_REPS (3), BENCH_HOT_CAP
// (1<<18), BENCH_SEED (1).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "anf/monomial_store.h"
#include "anf/polynomial.h"
#include "bosphorus/bosphorus.h"
#include "cnfgen/generators.h"
#include "core/anf_to_cnf.h"
#include "crypto/aes_small.h"
#include "gf2/gf2_matrix.h"
#include "util/rng.h"
#include "util/timer.h"

#ifdef BOSPHORUS_LEGACY_TERMS
#include "anf/legacy_terms.h"
#endif

namespace {

using bosphorus::Rng;
using bosphorus::Timer;
using Var = bosphorus::anf::Var;

size_t env_or(const char* name, size_t fallback) {
    if (const char* v = std::getenv(name)) return std::strtoul(v, nullptr, 10);
    return fallback;
}

// Representation-neutral instance description: polynomial -> monomial ->
// sorted variable list. Both arms build their own terms from this.
using MonoDesc = std::vector<Var>;
using PolyDesc = std::vector<MonoDesc>;
using SystemDesc = std::vector<PolyDesc>;

struct HotKnobs {
    unsigned xl_degree = 2;
    size_t expand_cap = size_t{1} << 21;  // rows * distinct monomials
    unsigned elimlin_rounds = 4;
};

struct HotOutcome {
    std::vector<std::string> facts;  // generation order, deterministic
    bool contradiction = false;
    uint64_t terms = 0;
};

template <class Mono>
struct MonoHashOf {
    size_t operator()(const Mono& m) const { return m.hash(); }
};

// One ElimLin substitution q := q[v := by], as the interned arm met it.
struct SubstCase {
    bosphorus::anf::Polynomial q, by;
    Var v = 0;
};

// The mirrored ElimLin loop's substitution step: the legacy arm calls its
// own substitute(); the interned arm runs the in-place kernel.
template <class Poly>
struct Substituter {
    Var v = 0;
    Poly by;
    void set(Var var, const Poly& image) {
        v = var;
        by = image;
    }
    void operator()(Poly& q) const { q = q.substitute(v, by); }
};

template <>
struct Substituter<bosphorus::anf::Polynomial> {
    bosphorus::anf::Substitution s;
    void set(Var var, const bosphorus::anf::Polynomial& image) {
        s.clear();
        s.set(var, image);
    }
    void operator()(bosphorus::anf::Polynomial& q) const { q.apply(s); }
};

// The mirrored hot pipeline. No randomness, no id-value dependence, no
// unordered-container iteration leaks (sets are membership/size only, the
// column list is sorted before use) -- so the two instantiations must
// produce identical facts.
// `matrices`, if non-null, receives a copy of every linearised matrix
// before its reduction; `substs`, if non-null (interned arm only),
// receives every ElimLin substitution before it is applied.
template <class Poly, class Mono>
HotOutcome run_hot_pipeline(
    const SystemDesc& desc, const HotKnobs& knobs,
    std::vector<bosphorus::gf2::Matrix>* matrices = nullptr,
    std::vector<SubstCase>* substs = nullptr) {
    HotOutcome out;

    std::vector<Poly> system;
    system.reserve(desc.size());
    for (const PolyDesc& pd : desc) {
        std::vector<Mono> monos;
        monos.reserve(pd.size());
        for (const MonoDesc& md : pd) monos.push_back(Mono(md));
        Poly p(std::move(monos));
        out.terms += p.size();
        if (!p.is_zero()) system.push_back(std::move(p));
    }

    // ---- linearise + reduce + split rows (shared by XL and ElimLin) ----
    struct Reduced {
        std::vector<Poly> linear, nonlinear;
        bool contradiction = false;
    };
    auto linear_pass = [&out, matrices](const std::vector<Poly>& polys) {
        Reduced red;
        std::unordered_set<Mono, MonoHashOf<Mono>> seen;
        std::vector<Mono> cols;
        for (const Poly& p : polys) {
            for (const Mono& m : p.monomials()) {
                if (seen.insert(m).second) cols.push_back(m);
            }
        }
        std::sort(cols.begin(), cols.end(),
                  [](const Mono& a, const Mono& b) { return b < a; });
        std::unordered_map<Mono, size_t, MonoHashOf<Mono>> col_of;
        col_of.reserve(cols.size());
        for (size_t c = 0; c < cols.size(); ++c) col_of.emplace(cols[c], c);

        bosphorus::gf2::Matrix mat(polys.size(), cols.size());
        for (size_t r = 0; r < polys.size(); ++r) {
            for (const Mono& m : polys[r].monomials()) {
                mat.flip(r, col_of.at(m));
                ++out.terms;
            }
        }
        if (matrices) matrices->push_back(mat);
        mat.rref_m4r();

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
        std::unordered_set<Mono, MonoHashOf<Mono>> monos;
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
            out.contradiction = true;
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
            out.contradiction = true;
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
            Substituter<Poly> subst;
            subst.set(best, rest);
            auto record = [&](const Poly& q) {
                if constexpr (std::is_same_v<Poly, bosphorus::anf::Polynomial>) {
                    if (substs) substs->push_back({q, rest, best});
                }
            };
            for (Poly& q : work) {
                if (q.contains_var(best)) {
                    out.terms += q.size();
                    record(q);
                    subst(q);
                    out.terms += q.size();
                }
            }
            for (size_t lj = li + 1; lj < pending.size(); ++lj) {
                if (pending[lj].contains_var(best)) {
                    record(pending[lj]);
                    subst(pending[lj]);
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

struct ArmTotals {
    double seconds = 0.0;
    uint64_t terms = 0;
    size_t facts = 0;
    double terms_per_sec() const {
        return seconds > 0 ? static_cast<double>(terms) / seconds : 0.0;
    }
};

}  // namespace

int main(int argc, char** argv) {
    bool legacy_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--legacy-terms") == 0) legacy_only = true;
    }
#ifndef BOSPHORUS_LEGACY_TERMS
    if (legacy_only) {
        std::fprintf(stderr,
                     "--legacy-terms requires a build with "
                     "-DBOSPHORUS_LEGACY_TERMS=ON\n");
        return 2;
    }
#endif

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

    // Planted quadratic instances, described representation-neutrally.
    Rng gen_rng(seed * 0x9E3779B9ULL + 7);
    std::vector<SystemDesc> descs;
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
            std::vector<bosphorus::anf::Monomial> ms;
            for (Var v : vs) ms.push_back(bosphorus::anf::Monomial(v));
            if (parity) ms.push_back(bosphorus::anf::Monomial());
            inst.polys.push_back(
                bosphorus::anf::Polynomial(std::move(ms)));
        }
        SystemDesc desc;
        for (const auto& p : inst.polys) {
            PolyDesc pd;
            for (const auto& m : p.monomials()) {
                const auto vs = m.vars();
                pd.emplace_back(vs.begin(), vs.end());
            }
            desc.push_back(std::move(pd));
        }
        descs.push_back(std::move(desc));
        problems.push_back(bosphorus::Problem::from_anf(std::move(inst.polys),
                                                        inst.num_vars));
    }

    using IMono = bosphorus::anf::Monomial;
    using IPoly = bosphorus::anf::Polynomial;

    ArmTotals interned, legacy;
    std::vector<HotOutcome> interned_ref(instances), legacy_ref(instances);
    bool have_legacy = false;

    for (size_t rep = 0; rep < reps; ++rep) {
#ifdef BOSPHORUS_LEGACY_TERMS
        {
            using LMono = bosphorus::anf::legacy::Monomial;
            using LPoly = bosphorus::anf::legacy::Polynomial;
            Timer t;
            for (size_t i = 0; i < instances; ++i) {
                HotOutcome o = run_hot_pipeline<LPoly, LMono>(descs[i], knobs);
                legacy.terms += o.terms;
                if (rep == 0) legacy_ref[i] = std::move(o);
            }
            legacy.seconds += t.seconds();
            have_legacy = true;
        }
#endif
        if (!legacy_only) {
            Timer t;
            for (size_t i = 0; i < instances; ++i) {
                HotOutcome o = run_hot_pipeline<IPoly, IMono>(descs[i], knobs);
                interned.terms += o.terms;
                if (rep == 0) interned_ref[i] = std::move(o);
            }
            interned.seconds += t.seconds();
        }
    }
    for (const auto& o : interned_ref) interned.facts += o.facts.size();
    for (const auto& o : legacy_ref) legacy.facts += o.facts.size();

    // ---- the elimination kernel vs plain Gauss-Jordan on the interned
    // arm's linearised matrices (collected by one extra, untimed pass),
    // alternating per matrix, 10 passes per repetition (one pass takes
    // about a millisecond). Both must reduce to the same matrix.
    double kernel_s = 0.0, plain_s = 0.0;
    bool elim_identical = true;
    if (!legacy_only) {
        std::vector<bosphorus::gf2::Matrix> matrices;
        for (size_t i = 0; i < instances; ++i)
            run_hot_pipeline<IPoly, IMono>(descs[i], knobs, &matrices);
        for (size_t rep = 0; rep < 10 * reps; ++rep) {
            for (const auto& base : matrices) {
                bosphorus::gf2::Matrix kernel = base, plain = base;
                Timer tk;
                kernel.rref_m4r();
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

    // ---- the substitution kernel vs the reference composition on the
    // interned arm's ElimLin substitutions (collected by one extra,
    // untimed pass), alternating per pass, 10 passes per repetition.
    // Both must give the same polynomial.
    double subst_kernel_s = 0.0, subst_reference_s = 0.0;
    bool subst_identical = true;
    size_t subst_cases = 0;
    if (!legacy_only) {
        std::vector<SubstCase> cases;
        for (size_t i = 0; i < instances; ++i)
            run_hot_pipeline<IPoly, IMono>(descs[i], knobs, nullptr, &cases);
        subst_cases = cases.size();
        std::vector<bosphorus::anf::Substitution> maps(cases.size());
        for (size_t c = 0; c < cases.size(); ++c)
            maps[c].set(cases[c].v, cases[c].by);
        std::vector<IPoly> kernel_out(cases.size()), reference_out(cases.size());
        for (size_t rep = 0; rep < 10 * reps; ++rep) {
            Timer tk;
            for (size_t c = 0; c < cases.size(); ++c) {
                kernel_out[c] = cases[c].q;
                kernel_out[c].apply(maps[c]);
            }
            subst_kernel_s += tk.seconds();
            Timer tr;
            for (size_t c = 0; c < cases.size(); ++c) {
                std::vector<IMono> untouched, quotients;
                for (const IMono& m : cases[c].q.monomials()) {
                    if (m.contains(cases[c].v)) {
                        quotients.push_back(m.without(cases[c].v));
                    } else {
                        untouched.push_back(m);
                    }
                }
                reference_out[c] = IPoly(std::move(untouched)) +
                                   IPoly(std::move(quotients)) * cases[c].by;
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
    if (!legacy_only) {
        std::vector<std::vector<IPoly>> sr_systems;
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

    // ---- equivalence: facts and derived verdicts must be bit-identical.
    bool facts_identical = true;
    bool verdicts_identical = true;
    if (have_legacy && !legacy_only) {
        for (size_t i = 0; i < instances; ++i) {
            if (interned_ref[i].facts != legacy_ref[i].facts) {
                facts_identical = false;
                std::fprintf(stderr,
                             "instance %zu: facts diverge between interned "
                             "and legacy terms\n",
                             i);
            }
            if (interned_ref[i].contradiction != legacy_ref[i].contradiction)
                verdicts_identical = false;
        }
    }

    // ---- the real engine over the same instances (tracked wall-clock,
    // interned path only -- this is what production runs).
    size_t n_sat = 0, n_unsat = 0, n_unknown = 0;
    double engine_s = 0.0;
    if (!legacy_only) {
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

    const double speedup =
        (have_legacy && !legacy_only && legacy.terms_per_sec() > 0)
            ? interned.terms_per_sec() / legacy.terms_per_sec()
            : 0.0;
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
    if (!legacy_only) {
        add("  \"interned\": {\"seconds\": %.4f, \"terms\": %llu, "
            "\"terms_per_sec\": %.0f, \"facts\": %zu},\n",
            interned.seconds, static_cast<unsigned long long>(interned.terms),
            interned.terms_per_sec(), interned.facts);
    }
    if (have_legacy) {
        add("  \"legacy\": {\"seconds\": %.4f, \"terms\": %llu, "
            "\"terms_per_sec\": %.0f, \"facts\": %zu},\n",
            legacy.seconds, static_cast<unsigned long long>(legacy.terms),
            legacy.terms_per_sec(), legacy.facts);
    }
    add("  \"speedup_terms_per_sec\": %.3f,\n", speedup);
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
    add("  \"facts_identical\": %s,\n  \"verdicts_identical\": %s,\n",
        facts_identical ? "true" : "false",
        verdicts_identical ? "true" : "false");
    add("  \"engine\": {\"seconds\": %.4f, \"sat\": %zu, \"unsat\": %zu, "
        "\"unknown\": %zu},\n",
        engine_s, n_sat, n_unsat, n_unknown);
    add("  \"store\": {\"monomials\": %zu, \"mul_memo_hits\": %zu, "
        "\"mul_memo_misses\": %zu}\n}\n",
        store.size(), store.mul_memo_hits(), store.mul_memo_misses());

    std::fputs(json.c_str(), stdout);
    if (std::ofstream out{json_path}) out << json;
    else std::fprintf(stderr, "warning: cannot write %s\n", json_path);

    return (facts_identical && verdicts_identical && elim_identical &&
            subst_identical && conv_identical)
               ? 0
               : 1;
}
