// Linearisation: treating each monomial as an independent GF(2) variable.
//
// Both XL and ElimLin work on the linearised system (paper sections II-B,
// II-C): each distinct monomial maps to one matrix column and each
// polynomial to one row; Gauss-Jordan elimination then runs on the gf2
// matrix substrate.
//
// Columns are ordered *descending* in degree-lexicographic order (constant
// term last), so elimination removes high-degree monomials first and the
// fully-reduced rows end with low-degree tails -- this is what makes the
// retained rows of Table I come out as linear and monomial facts.
//
// The monomial -> column map is keyed by the interned 4-byte MonoId (the
// old map hashed whole variable vectors per term). The terms are
// de-duplicated by id first, so the deg-lex content sort runs only over the
// distinct monomials. All structures are sized by the system's own term
// count, never by the global store -- a long-lived Session can intern
// millions of monomials without inflating later linearisations.
//
// The reduced matrices are sparse, so reading them back is proportional to
// their set bits: a row becomes a polynomial by walking its set bits from
// the last column down (which is canonical order already), and
// extract_facts() decides from a row's leading column and bit count
// whether it is a fact before building it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "anf/polynomial.h"
#include "gf2/gf2_matrix.h"

namespace bosphorus::core {

struct Linearization {
    std::vector<anf::Monomial> col_monomial;  // column -> monomial
    /// MonoId -> column index, for the monomials that occur in the system.
    std::unordered_map<anf::MonoId, uint32_t> col_index;
    gf2::Matrix matrix;

    size_t rows() const { return matrix.rows(); }
    size_t cols() const { return matrix.cols(); }

    /// Column of a monomial; throws std::out_of_range if it does not
    /// occur in the linearised system.
    size_t col_of(const anf::Monomial& m) const {
        return col_index.at(m.id());
    }
};

/// Build the linearised matrix of a polynomial system.
Linearization linearize(const std::vector<anf::Polynomial>& polys);

/// Reduce the linearised matrix to RREF (gf2::Matrix::rref_m4r) and return
/// its rank. The one elimination entry point of XL, ElimLin and Groebner.
size_t reduce(Linearization& lin);

/// Reconstruct the polynomial encoded by a matrix row.
anf::Polynomial row_to_polynomial(const Linearization& lin, size_t row);

/// After RREF: collect the learnt facts Bosphorus retains -- rows that are
/// linear equations, and rows of the form (monomial + 1), in row order. A
/// row equal to the constant 1 (i.e. 1 = 0) makes the result the single
/// constant-one polynomial. Only the rows kept are built.
std::vector<anf::Polynomial> extract_facts(const Linearization& lin);

/// Linearised size m * n of a system: rows x distinct monomials. Used for
/// the paper's 2^M subsampling budget.
size_t linearized_size(const std::vector<anf::Polynomial>& polys);

/// Uniformly subsample polynomials until the linearised size m'*n' reaches
/// `budget` (~2^M), per paper sections II-B/II-C. Returns indices into
/// `polys`. If the whole system fits in the budget, all indices are
/// returned.
std::vector<size_t> subsample(const std::vector<anf::Polynomial>& polys,
                              size_t budget, Rng& rng);

}  // namespace bosphorus::core
