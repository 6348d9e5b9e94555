#include "sat/inprocess/features.h"

#include "sat/solver.h"
#include "sat/xor_engine.h"

namespace bosphorus::sat::inprocess {

namespace {

// Shared accumulation over clause sizes, so extract() and from_cnf()
// cannot drift apart.
struct SizeAccum {
    size_t clauses = 0;
    size_t total_lits = 0;
    size_t binary = 0;
    size_t ternary = 0;
    size_t long_ = 0;  // size >= 7

    void add(size_t size) {
        ++clauses;
        total_lits += size;
        if (size == 2) ++binary;
        else if (size == 3) ++ternary;
        if (size >= 7) ++long_;
    }

    void finish(InstanceFeatures& f, size_t num_vars, size_t num_xors) const {
        f.num_vars = num_vars;
        f.num_clauses = clauses;
        f.num_xors = num_xors;
        const double constraints = static_cast<double>(clauses + num_xors);
        f.clause_var_ratio =
            num_vars ? constraints / static_cast<double>(num_vars) : 0.0;
        f.xor_density =
            constraints > 0 ? static_cast<double>(num_xors) / constraints : 0.0;
        if (clauses > 0) {
            const double n = static_cast<double>(clauses);
            f.mean_clause_size = static_cast<double>(total_lits) / n;
            f.frac_binary = static_cast<double>(binary) / n;
            f.frac_ternary = static_cast<double>(ternary) / n;
            f.frac_long = static_cast<double>(long_) / n;
        }
    }
};

}  // namespace

InstanceFeatures InstanceFeatures::extract(const Solver& s) {
    InstanceFeatures f;
    SizeAccum acc;
    for (const auto cr : s.problem_clauses_) {
        const auto& c = s.clause(cr);
        if (c.deleted) continue;
        acc.add(c.size());
    }
    const size_t xors = s.xor_engine_ ? s.xor_engine_->num_rows() : 0;
    acc.finish(f, s.num_vars(), xors);
    return f;
}

InstanceFeatures InstanceFeatures::from_cnf(const Cnf& cnf) {
    InstanceFeatures f;
    SizeAccum acc;
    for (const auto& lits : cnf.clauses) acc.add(lits.size());
    acc.finish(f, cnf.num_vars, cnf.xors.size());
    return f;
}

}  // namespace bosphorus::sat::inprocess
