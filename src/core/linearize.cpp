#include "core/linearize.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace bosphorus::core {

using anf::MonoId;
using anf::Monomial;
using anf::Polynomial;

Linearization linearize(const std::vector<Polynomial>& polys) {
    Linearization lin;

    // Gather every term and de-duplicate by 4-byte id; then sort only the
    // distinct monomials by content, descending deg-lex (highest-degree
    // monomials in the leftmost columns). Memory stays O(system terms)
    // however large the global interned vocabulary has grown.
    std::vector<Monomial>& cols = lin.col_monomial;
    size_t total_terms = 0;
    for (const auto& p : polys) total_terms += p.size();
    cols.reserve(total_terms);
    for (const auto& p : polys)
        cols.insert(cols.end(), p.monomials().begin(), p.monomials().end());
    std::sort(cols.begin(), cols.end(),
              [](const Monomial& a, const Monomial& b) {
                  return a.id() < b.id();
              });
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    std::sort(cols.begin(), cols.end(),
              [](const Monomial& a, const Monomial& b) { return b < a; });

    lin.col_index.reserve(cols.size());
    for (size_t c = 0; c < cols.size(); ++c)
        lin.col_index.emplace(cols[c].id(), static_cast<uint32_t>(c));

    lin.matrix = gf2::Matrix(polys.size(), cols.size());
    for (size_t r = 0; r < polys.size(); ++r) {
        for (const auto& m : polys[r].monomials())
            lin.matrix.flip(r, lin.col_index.find(m.id())->second);
    }
    return lin;
}

size_t reduce(Linearization& lin) { return lin.matrix.rref_m4r(); }

Polynomial row_to_polynomial(const Linearization& lin, size_t row) {
    // Columns run in descending deg-lex order, so the set bits read from
    // the last column down are already in canonical (ascending) order.
    const uint64_t* words = lin.matrix.row_words(row);
    std::vector<Monomial> monos;
    monos.reserve(lin.matrix.row_popcount(row));
    for (size_t w = lin.matrix.words_per_row(); w-- > 0;) {
        for (uint64_t x = words[w]; x != 0;) {
            const int b = 63 - std::countl_zero(x);
            monos.push_back(lin.col_monomial[w * 64 + b]);
            x ^= uint64_t{1} << b;
        }
    }
    return Polynomial::from_sorted(std::move(monos));
}

std::vector<Polynomial> extract_facts(const Linearization& lin) {
    // Classify each row before building it: its first set column holds
    // the leading (highest) monomial, which gives the degree.
    const size_t n = lin.cols();
    const bool const_col = n > 0 && lin.col_monomial.back().is_one();
    std::vector<Polynomial> facts;
    for (size_t r = 0; r < lin.rows(); ++r) {
        const long lead = lin.matrix.first_set_in_row(r);
        if (lead < 0) continue;
        const size_t degree = lin.col_monomial[lead].degree();
        if (degree == 0) {
            // The row is the constant 1: 1 = 0 dominates everything else.
            return {Polynomial::constant(true)};
        }
        // Beyond linear rows, keep only monomial + 1.
        if (degree >= 2 && !(const_col && lin.matrix.get(r, n - 1) &&
                             lin.matrix.row_popcount(r) == 2))
            continue;
        facts.push_back(row_to_polynomial(lin, r));
    }
    return facts;
}

size_t linearized_size(const std::vector<Polynomial>& polys) {
    std::unordered_set<MonoId> monos;
    for (const auto& p : polys)
        for (const auto& m : p.monomials()) monos.insert(m.id());
    return polys.size() * monos.size();
}

std::vector<size_t> subsample(const std::vector<Polynomial>& polys,
                              size_t budget, Rng& rng) {
    std::vector<size_t> order(polys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);

    std::unordered_set<MonoId> monos;
    std::vector<size_t> chosen;
    for (size_t idx : order) {
        chosen.push_back(idx);
        for (const auto& m : polys[idx].monomials()) monos.insert(m.id());
        if (chosen.size() * monos.size() >= budget) break;
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

}  // namespace bosphorus::core
