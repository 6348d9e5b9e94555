#include "core/anf_to_cnf.h"

#include <algorithm>
#include <cassert>

#include "minimize/quine_mccluskey.h"

namespace bosphorus::core {

using anf::Monomial;
using anf::Polynomial;

namespace {

class Converter {
public:
    Converter(size_t num_vars, const Anf2CnfConfig& cfg) : cfg_(cfg) {
        res_.num_anf_vars = num_vars;
        res_.cnf.num_vars = num_vars;
    }

    Anf2CnfResult take() { return std::move(res_); }

    void convert(const Polynomial& p) {
        if (p.is_zero()) return;
        if (p.is_one()) {
            res_.cnf.add_clause({});  // 1 = 0: immediately unsatisfiable
            return;
        }
        for (const Polynomial& chunk : cut(p)) {
            const std::vector<anf::Var> vars = chunk.variables();
            if (vars.size() <= cfg_.karnaugh_k && vars.size() <= 20) {
                karnaugh(chunk, vars);
                ++res_.karnaugh_polys;
            } else {
                tseitin(chunk);
                ++res_.tseitin_polys;
            }
        }
    }

private:
    /// Cut p into chunks of <= L monomials chained by fresh aux variables:
    /// m1+...+m_{L-1} + t1,  t1+m_L+...+m_{2L-3} + t2,  ...
    std::vector<Polynomial> cut(const Polynomial& p) {
        const size_t L = std::max<unsigned>(cfg_.xor_cut, 3);
        if (p.size() <= L) return {p};
        std::vector<Polynomial> chunks;
        const auto& monos = p.monomials();
        size_t i = 0;
        Polynomial carry;  // empty = no carry yet
        bool have_carry = false;
        while (i < monos.size()) {
            const size_t room = L - (have_carry ? 1 : 0) - 1;
            const size_t remaining = monos.size() - i;
            std::vector<Monomial> part(monos.begin() + i,
                                       monos.begin() + i +
                                           std::min(room + 1, remaining));
            if (remaining <= room + 1) {
                // Last chunk: no new aux needed.
                Polynomial chunk{std::move(part)};
                if (have_carry) chunk += carry;
                chunks.push_back(std::move(chunk));
                i = monos.size();
            } else {
                part.resize(room);
                i += room;
                const sat::Var t = new_aux(Monomial{});
                Polynomial chunk{std::move(part)};
                if (have_carry) chunk += carry;
                chunk += Polynomial::variable(t);
                chunks.push_back(std::move(chunk));
                carry = Polynomial::variable(t);
                have_carry = true;
            }
            ++res_.cut_chunks;
        }
        return chunks;
    }

    /// Karnaugh-map path: truth-table the chunk over its own variables and
    /// emit a minimal prime-implicant clause cover. `vars` is
    /// p.variables().
    void karnaugh(const Polynomial& p, const std::vector<anf::Var>& vars) {
        const unsigned k = static_cast<unsigned>(vars.size());
        if (k == 0) {
            // Constant chunk: p = 1 is an empty clause; p = 0 is a no-op.
            if (p.is_one()) res_.cnf.add_clause({});
            return;
        }
        // Local index of each variable.
        // Evaluate every monomial as a bitmask test over the minterm.
        std::vector<uint32_t> masks;
        bool constant = p.has_constant_term();
        for (const auto& m : p.monomials()) {
            if (m.is_one()) continue;
            uint32_t mask = 0;
            for (anf::Var v : m.vars()) {
                const size_t pos =
                    std::lower_bound(vars.begin(), vars.end(), v) -
                    vars.begin();
                mask |= 1u << pos;
            }
            masks.push_back(mask);
        }
        std::vector<bool> on_set(size_t{1} << k, false);
        for (uint32_t minterm = 0; minterm < on_set.size(); ++minterm) {
            bool val = constant;
            for (uint32_t mask : masks)
                val ^= ((minterm & mask) == mask);
            on_set[minterm] = val;  // equation violated when p evaluates to 1
        }
        const auto cover = minimize::minimize_sop(on_set, k);
        for (const auto& cl :
             minimize::cover_to_clauses(cover, k)) {
            std::vector<sat::Lit> lits;
            lits.reserve(cl.literals.size());
            for (const auto& [local, negated] : cl.literals)
                lits.push_back(sat::mk_lit(vars[local], negated));
            res_.cnf.add_clause(std::move(lits));
        }
    }

    /// Tseitin path: monomials become AND-aux variables; the chunk becomes
    /// an XOR over CNF literals.
    void tseitin(const Polynomial& p) {
        sat::XorConstraint x;
        x.rhs = p.has_constant_term();  // sum of terms = constant
        for (const auto& m : p.monomials()) {
            if (m.is_one()) continue;
            if (m.degree() == 1) {
                x.vars.push_back(m.vars()[0]);
            } else {
                x.vars.push_back(monomial_var(m));
            }
        }
        emit_xor(std::move(x));
    }

    /// Auxiliary variable defined as the conjunction of the monomial's
    /// variables (three or more clauses a` la Tseitin encoding). The
    /// mono->aux map is keyed by the interned Monomial (O(1) cached hash,
    /// id equality); aux numbering depends only on conversion order, never
    /// on id values, so emitted CNF is independent of store history.
    sat::Var monomial_var(const Monomial& m) {
        auto it = res_.var_of_mono.find(m);
        if (it != res_.var_of_mono.end()) return it->second;
        const sat::Var t = new_aux(m);
        res_.var_of_mono.emplace(m, t);
        // t -> v_i for each i, and (v_1 & ... & v_k) -> t.
        std::vector<sat::Lit> big;
        big.push_back(sat::mk_lit(t, false));
        for (anf::Var v : m.vars()) {
            res_.cnf.add_clause({sat::mk_lit(t, true), sat::mk_lit(v, false)});
            big.push_back(sat::mk_lit(v, true));
        }
        res_.cnf.add_clause(std::move(big));
        return t;
    }

    void emit_xor(sat::XorConstraint x) {
        if (x.vars.empty()) {
            if (x.rhs) res_.cnf.add_clause({});
            return;
        }
        if (cfg_.native_xor) {
            res_.cnf.xors.push_back(std::move(x));
            return;
        }
        // Plain-CNF XOR: forbid every assignment of the wrong parity.
        const size_t l = x.vars.size();
        assert(l <= 24 && "xor chunk too long; check xor_cut");
        for (uint32_t bits = 0; bits < (1u << l); ++bits) {
            bool parity = false;
            for (size_t i = 0; i < l; ++i) parity ^= (bits >> i) & 1;
            if (parity == x.rhs) continue;
            std::vector<sat::Lit> clause;
            clause.reserve(l);
            for (size_t i = 0; i < l; ++i)
                clause.push_back(sat::mk_lit(x.vars[i], (bits >> i) & 1));
            res_.cnf.add_clause(std::move(clause));
        }
    }

    sat::Var new_aux(const Monomial& origin) {
        const sat::Var t = res_.cnf.new_var();
        res_.mono_of_var.push_back(origin);
        return t;
    }

    Anf2CnfConfig cfg_;
    Anf2CnfResult res_;
};

}  // namespace

Anf2CnfResult anf_to_cnf(const std::vector<Polynomial>& polys, size_t num_vars,
                         const Anf2CnfConfig& cfg) {
    Converter conv(num_vars, cfg);
    for (const auto& p : polys) conv.convert(p);
    return conv.take();
}

}  // namespace bosphorus::core
