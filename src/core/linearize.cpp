#include "core/linearize.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace bosphorus::core {

using anf::MonoId;
using anf::Monomial;
using anf::Polynomial;

MonoMarks::MonoMarks()
    : table_([]() -> Table& {
          thread_local Table table;
          return table;
      }()) {
    if (table_.open) throw std::logic_error("nested MonoMarks scope");
    const uint64_t serial = anf::MonomialStore::global().serial();
    if (table_.serial != serial) table_ = {{}, {}, serial, false};
    table_.open = true;
}

MonoMarks::~MonoMarks() {
    for (MonoId id : table_.touched) table_.marks[id] = 0;
    table_.touched.clear();
    table_.open = false;
}

void MonoMarks::grow(MonoId id) {
    // Cover every id interned so far, allocated in the store's own
    // 8192-entry block steps: at most 1/8 of its entry bytes.
    const size_t need = std::max<size_t>(size_t{id} + 1,
                                         anf::MonomialStore::global().size());
    table_.marks.reserve((need + 8191) / 8192 * 8192);
    table_.marks.resize(need, 0);
}

Linearization linearize(const TermRows& rows) {
    // Mark each term on first sight and content-sort only the distinct
    // monomials, descending deg-lex (highest-degree monomials in the
    // leftmost columns); then each mark holds its column + 1 while the
    // bits are set.
    Linearization lin;
    MonoMarks marks;
    std::vector<Monomial>& cols = lin.col_monomial;
    for (MonoId id : rows.terms) {
        uint32_t& m = marks[id];
        if (m == 0) cols.push_back(Monomial::from_id(id));
        m = 1;
    }
    std::sort(cols.begin(), cols.end(),
              [](const Monomial& a, const Monomial& b) { return b < a; });
    for (size_t c = 0; c < cols.size(); ++c)
        marks[cols[c].id()] = static_cast<uint32_t>(c + 1);

    lin.matrix = gf2::Matrix(rows.size(), cols.size());
    for (size_t r = 0; r < rows.size(); ++r)
        for (size_t i = rows.offsets[r]; i < rows.offsets[r + 1]; ++i)
            lin.matrix.flip(r, marks[rows.terms[i]] - 1);
    return lin;
}

Linearization linearize(const std::vector<Polynomial>& polys) {
    TermRows rows;
    for (const auto& p : polys) rows.push(p);
    return linearize(rows);
}

size_t reduce(Linearization& lin) { return lin.matrix.rref_sparse(); }

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

namespace {

// Mark p's terms; returns how many were not marked yet.
size_t mark_new_terms(MonoMarks& marks, const Polynomial& p) {
    size_t fresh = 0;
    for (const Monomial& t : p.monomials()) {
        uint32_t& m = marks[t.id()];
        fresh += m == 0;
        m = 1;
    }
    return fresh;
}

}  // namespace

size_t linearized_size(const std::vector<Polynomial>& polys) {
    MonoMarks marks;
    size_t distinct = 0;
    for (const auto& p : polys) distinct += mark_new_terms(marks, p);
    return polys.size() * distinct;
}

std::vector<size_t> subsample(const std::vector<Polynomial>& polys,
                              size_t budget, Rng& rng) {
    std::vector<size_t> order(polys.size());
    std::iota(order.begin(), order.end(), size_t{0});
    rng.shuffle(order);

    MonoMarks marks;
    size_t distinct = 0;
    std::vector<size_t> chosen;
    for (size_t idx : order) {
        chosen.push_back(idx);
        distinct += mark_new_terms(marks, polys[idx]);
        if (chosen.size() * distinct >= budget) break;
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

}  // namespace bosphorus::core
