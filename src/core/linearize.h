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
// The monomial -> column map lives in one per-thread mark table indexed by
// MonoId (MonoMarks below): a term is marked on first sight, only the
// distinct monomials are content-sorted, and each one's mark then holds its
// column while the bits are set. Raw id values never reach the output.
// The table costs 4 bytes per entry of the global MonomialStore, per thread
// that linearises: at most 1/8 of the store's own entry bytes (32-byte
// entries, allocated in the same 8192-entry blocks).
//
// The reduced matrices are sparse, so reading them back is proportional to
// their set bits: a row becomes a polynomial by walking its set bits from
// the last column down (which is canonical order already), and
// extract_facts() decides from a row's leading column and bit count
// whether it is a fact before building it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anf/polynomial.h"
#include "gf2/gf2_matrix.h"

namespace bosphorus::core {

struct Linearization {
    std::vector<anf::Monomial> col_monomial;  // column -> monomial
    gf2::Matrix matrix;

    size_t rows() const { return matrix.rows(); }
    size_t cols() const { return matrix.cols(); }
};

/// Polynomials as one flat buffer of term ids: row r is
/// terms[offsets[r] .. offsets[r + 1]), each id at most once per row, in
/// any order. XL expands straight into one instead of building products.
struct TermRows {
    std::vector<anf::MonoId> terms;
    std::vector<size_t> offsets = {0};

    size_t size() const { return offsets.size() - 1; }
    void push(const anf::Polynomial& p) {
        for (const auto& m : p.monomials()) terms.push_back(m.id());
        offsets.push_back(terms.size());
    }
};

/// Build the linearised matrix of a polynomial system, one row per
/// polynomial (or per TermRows row), in order.
Linearization linearize(const std::vector<anf::Polynomial>& polys);
Linearization linearize(const TermRows& rows);

/// A scope over this thread's mark table: one uint32_t per entry of the
/// global MonomialStore, zero outside every scope, grown lazily as ids
/// are marked. The scope records each id whose mark it hands out while
/// zero (an id may be recorded more than once) and zeroes exactly those
/// on exit, also when an exception unwinds. At most one scope per thread
/// is open at a time; opening a second throws std::logic_error. The
/// table is keyed by the store serial, so a compaction of the store (a
/// new vocabulary under old id values) must bump the serial.
class MonoMarks {
public:
    MonoMarks();
    ~MonoMarks();
    MonoMarks(const MonoMarks&) = delete;
    MonoMarks& operator=(const MonoMarks&) = delete;

    /// The mark of `id`; zero until set in this scope. The reference is
    /// valid until the next call.
    uint32_t& operator[](anf::MonoId id) {
        if (id >= table_.marks.size()) grow(id);
        uint32_t& m = table_.marks[id];
        if (m == 0) table_.touched.push_back(id);
        return m;
    }

private:
    struct Table {
        std::vector<uint32_t> marks;
        std::vector<anf::MonoId> touched;
        uint64_t serial = 0;  // the store the marks were sized for
        bool open = false;
    };
    void grow(anf::MonoId id);

    Table& table_;
};

/// Reduce the linearised matrix to RREF with gf2::Matrix::rref_sparse (the
/// sparsest-pivot Gauss-Jordan kernel) and return its rank. The one
/// elimination entry point of XL, ElimLin and Groebner.
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
