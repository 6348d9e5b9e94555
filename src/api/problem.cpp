#include "bosphorus/problem.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "anf/anf_parser.h"
#include "sat/dimacs.h"

namespace bosphorus {

Problem Problem::from_anf(std::vector<anf::Polynomial> polys,
                          size_t num_vars) {
    Problem p;
    p.kind_ = Kind::kAnf;
    p.polys_ = std::move(polys);
    p.num_vars_ = num_vars;
    for (const auto& poly : p.polys_)
        p.num_vars_ = std::max(p.num_vars_, poly.var_bound());
    return p;
}

Problem Problem::from_cnf(sat::Cnf cnf) {
    Problem p;
    p.kind_ = Kind::kCnf;
    p.num_vars_ = cnf.num_vars;
    p.cnf_ = std::move(cnf);
    return p;
}

Result<Problem> Problem::from_anf_text(const std::string& text) {
    auto parsed = anf::try_parse_system_from_string(text);
    if (!parsed.ok()) return parsed.status();
    return from_anf(std::move(parsed->polynomials), parsed->num_vars);
}

Result<Problem> Problem::from_cnf_text(const std::string& text) {
    auto parsed = sat::try_read_dimacs_from_string(text);
    if (!parsed.ok()) return parsed.status();
    return from_cnf(std::move(*parsed));
}

Result<Problem> Problem::from_anf_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::io_error("cannot open " + path);
    auto parsed = anf::try_parse_system(in);
    if (!parsed.ok())
        return Status::parse_error(path + ": " + parsed.status().message());
    return from_anf(std::move(parsed->polynomials), parsed->num_vars);
}

Result<Problem> Problem::from_cnf_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::io_error("cannot open " + path);
    auto parsed = sat::try_read_dimacs(in);
    if (!parsed.ok())
        return Status::parse_error(path + ": " + parsed.status().message());
    return from_cnf(std::move(*parsed));
}

Status Problem::add_polynomial(const anf::Polynomial& p) {
    if (kind_ == Kind::kCnf)
        return Status::invalid_argument(
            "add_polynomial on a CNF problem (use add_clause)");
    kind_ = Kind::kAnf;
    num_vars_ = std::max(num_vars_, p.var_bound());
    polys_.push_back(p);
    return Status();
}

Status Problem::add_clause(std::vector<sat::Lit> lits) {
    if (kind_ == Kind::kAnf)
        return Status::invalid_argument(
            "add_clause on an ANF problem (use add_polynomial)");
    kind_ = Kind::kCnf;
    for (sat::Lit l : lits)
        num_vars_ = std::max(num_vars_, static_cast<size_t>(l.var()) + 1);
    cnf_.num_vars = num_vars_;
    cnf_.add_clause(std::move(lits));
    return Status();
}

Status Problem::add_xor_clause(std::vector<sat::Var> vars, bool rhs) {
    if (kind_ == Kind::kAnf)
        return Status::invalid_argument(
            "add_xor_clause on an ANF problem (use add_polynomial)");
    kind_ = Kind::kCnf;
    for (sat::Var v : vars)
        num_vars_ = std::max(num_vars_, static_cast<size_t>(v) + 1);
    cnf_.num_vars = num_vars_;
    cnf_.xors.push_back({std::move(vars), rhs});
    return Status();
}

anf::Var Problem::new_var() {
    const auto v = static_cast<anf::Var>(num_vars_++);
    cnf_.num_vars = num_vars_;
    return v;
}

void Problem::reserve_vars(size_t n) {
    num_vars_ = std::max(num_vars_, n);
    cnf_.num_vars = std::max(cnf_.num_vars, num_vars_);
}

bool Problem::empty() const { return num_constraints() == 0; }

size_t Problem::num_vars() const { return num_vars_; }

size_t Problem::num_constraints() const {
    return kind_ == Kind::kCnf ? cnf_.clauses.size() + cnf_.xors.size()
                               : polys_.size();
}

}  // namespace bosphorus
