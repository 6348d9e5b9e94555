#include "bosphorus/solve.h"

#include <algorithm>
#include <utility>

#include "core/anf_to_cnf.h"
#include "core/cnf_to_anf.h"
#include "util/timer.h"

namespace bosphorus {

using anf::Polynomial;

namespace {

/// Check a CNF model against the original ANF equations.
bool verify_anf_model(const std::vector<Polynomial>& polys, size_t num_vars,
                      const std::vector<sat::LBool>& model) {
    std::vector<bool> assignment(num_vars, false);
    for (size_t v = 0; v < num_vars && v < model.size(); ++v)
        assignment[v] = model[v] == sat::LBool::kTrue;
    for (const auto& p : polys) {
        if (p.evaluate(assignment)) return false;
    }
    return true;
}

/// Run the learning loop with its share of the budget. On success sets
/// *decided when the engine settled the instance (outcome is final);
/// a non-OK status propagates out of solve().
Status preprocess(const Problem& problem, const SolveConfig& cfg, Report* rep,
                  SolveOutcome* out, bool* decided) {
    *decided = false;
    EngineConfig ecfg = cfg.engine;
    ecfg.time_budget_s = std::min(cfg.engine_budget_s, cfg.timeout_s);
    Engine engine(ecfg);
    auto run = engine.run(problem);
    if (!run.ok()) return run.status();
    *rep = std::move(*run);
    out->engine_seconds = rep->seconds;
    if (rep->verdict == sat::Result::kUnsat) {
        out->result = sat::Result::kUnsat;
        out->solved_in_loop = true;
        *decided = true;
    } else if (rep->verdict == sat::Result::kSat) {
        out->result = sat::Result::kSat;
        out->solved_in_loop = true;
        out->model_verified = true;  // checked inside the loop
        *decided = true;
    }
    return Status();
}

Result<SolveOutcome> solve_anf(const std::vector<Polynomial>& polys,
                               size_t num_vars, const SolveConfig& cfg,
                               const Problem& problem) {
    Timer timer;
    SolveOutcome out;

    // Back-end solvers receive plain CNF.
    core::Anf2CnfResult conv;
    if (cfg.preprocess) {
        Report rep;
        bool decided = false;
        const Status st = preprocess(problem, cfg, &rep, &out, &decided);
        if (!st.ok()) return st;
        if (decided) {
            out.seconds = timer.seconds();
            return out;
        }
        conv = rep.to_cnf(cfg.engine.conv);
    } else {
        conv = core::anf_to_cnf(polys, num_vars);
    }

    const double remaining = std::max(0.1, cfg.timeout_s - timer.seconds());
    const Result<sat::CnfSolveOutcome> so =
        sat::solve_cnf_with(conv.cnf, cfg.solver, remaining);
    if (!so.ok()) return so.status();
    out.result = so->result;
    out.solver_stats = so->stats;
    if (so->result == sat::Result::kSat) {
        out.model_verified = verify_anf_model(polys, num_vars, so->model);
        if (!out.model_verified) out.result = sat::Result::kUnknown;
    }
    out.seconds = timer.seconds();
    return out;
}

Result<SolveOutcome> solve_cnf_problem(const sat::Cnf& cnf,
                                       const SolveConfig& cfg,
                                       const Problem& problem) {
    Timer timer;
    SolveOutcome out;

    sat::Cnf work = cnf;
    if (cfg.preprocess) {
        Report rep;
        bool decided = false;
        const Status st = preprocess(problem, cfg, &rep, &out, &decided);
        if (!st.ok()) return st;
        if (decided) {
            out.seconds = timer.seconds();
            return out;
        }
        // Per section III-D the tool returns the original CNF augmented
        // with the learnt facts (re-encoding CNF -> ANF -> CNF would be a
        // suboptimal description): append the learnt units/equivalences
        // over original variables.
        for (const auto& p : rep.processed_anf) {
            if (p.degree() > 1 || p.size() > 3) continue;
            const auto vars = p.variables();
            if (vars.empty()) continue;
            if (std::any_of(vars.begin(), vars.end(), [&](anf::Var v) {
                    return v >= cnf.num_vars;
                }))
                continue;
            if (vars.size() == 1 && p.size() <= 2) {
                // x (+1) = 0: a unit clause.
                const bool value = p.has_constant_term();
                work.add_clause({sat::mk_lit(vars[0], !value)});
            } else if (vars.size() == 2 && p.size() <= 3) {
                // x + y (+1) = 0: an (anti-)equivalence, two binaries.
                const bool anti = p.has_constant_term();
                work.add_clause({sat::mk_lit(vars[0], false),
                                 sat::mk_lit(vars[1], !anti)});
                work.add_clause({sat::mk_lit(vars[0], true),
                                 sat::mk_lit(vars[1], anti)});
            }
        }
    }

    const double remaining = std::max(0.1, cfg.timeout_s - timer.seconds());
    const Result<sat::CnfSolveOutcome> so =
        sat::solve_cnf_with(work, cfg.solver, remaining);
    if (!so.ok()) return so.status();
    out.result = so->result;
    out.solver_stats = so->stats;
    if (so->result == sat::Result::kSat) {
        out.model_verified = sat::model_satisfies(cnf, so->model);
        if (!out.model_verified) out.result = sat::Result::kUnknown;
    }
    out.seconds = timer.seconds();
    return out;
}

}  // namespace

Result<SolveOutcome> solve(const Problem& problem, const SolveConfig& cfg) {
    if (problem.kind() == Problem::Kind::kCnf)
        return solve_cnf_problem(problem.cnf(), cfg, problem);
    return solve_anf(problem.polynomials(), problem.num_vars(), cfg, problem);
}

double par2_score(const std::vector<SolveOutcome>& outcomes,
                  double timeout_s) {
    double score = 0.0;
    for (const auto& o : outcomes) {
        if (o.result == sat::Result::kUnknown) {
            score += 2.0 * timeout_s;
        } else {
            score += o.seconds;
        }
    }
    return score;
}

}  // namespace bosphorus
