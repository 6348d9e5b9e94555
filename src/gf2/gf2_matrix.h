// Dense GF(2) matrices with bit-packed rows and Gauss-Jordan elimination.
//
// This module substitutes for M4RI in the original Bosphorus: it provides the
// dense Boolean linear algebra needed by eXtended Linearization (XL), ElimLin
// and the S-box implicit-quadratic derivation.  Rows are packed 64 bits per
// machine word, so row-XOR (the inner loop of elimination) runs word-parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace bosphorus::gf2 {

/// Dense matrix over GF(2). Rows are bit-packed into 64-bit words.
///
/// Two eliminations produce the (unique) reduced row echelon form:
/// rref_m4r(), the Method of Four Russians run window by window over 64
/// columns, and plain word-sliced Gauss-Jordan, kept for callers that need
/// the pivot columns (rref(&pivots), nullspace()). The linearisations XL
/// and ElimLin build are very sparse and stay sparse when reduced; there a
/// dense M4R that probes every row for every pivot is slower than plain
/// Gauss-Jordan, so rref_m4r() touches only the rows and words that are
/// nonzero in the window it is working on.
class Matrix {
public:
    Matrix() = default;
    Matrix(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), words_per_row_((cols + 63) / 64),
          data_(rows * words_per_row_, 0) {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t words_per_row() const { return words_per_row_; }

    /// The packed words of row r: column c is bit c % 64 of word c / 64;
    /// bits past cols() are zero.
    const uint64_t* row_words(size_t r) const { return row_ptr(r); }

    bool get(size_t r, size_t c) const {
        return (word(r, c / 64) >> (c % 64)) & 1ULL;
    }

    void set(size_t r, size_t c, bool v) {
        uint64_t& w = word(r, c / 64);
        const uint64_t mask = 1ULL << (c % 64);
        if (v) w |= mask; else w &= ~mask;
    }

    void flip(size_t r, size_t c) { word(r, c / 64) ^= 1ULL << (c % 64); }

    /// rows_[dst] ^= rows_[src]
    void xor_row(size_t dst, size_t src) {
        uint64_t* d = row_ptr(dst);
        const uint64_t* s = row_ptr(src);
        for (size_t w = 0; w < words_per_row_; ++w) d[w] ^= s[w];
    }

    void swap_rows(size_t a, size_t b) {
        if (a == b) return;
        uint64_t* pa = row_ptr(a);
        uint64_t* pb = row_ptr(b);
        for (size_t w = 0; w < words_per_row_; ++w) std::swap(pa[w], pb[w]);
    }

    bool row_is_zero(size_t r) const {
        const uint64_t* p = row_ptr(r);
        for (size_t w = 0; w < words_per_row_; ++w)
            if (p[w] != 0) return false;
        return true;
    }

    /// Column index of the first set bit in row r, or -1 if the row is zero.
    long first_set_in_row(size_t r) const;

    /// Number of set bits in row r.
    size_t row_popcount(size_t r) const;

    /// Append a zero row and return its index.
    size_t add_row();

    /// In-place reduced row echelon form (Gauss-Jordan elimination).
    /// Returns the rank. `pivot_cols`, if non-null, receives the pivot column
    /// of row i for i < rank, in increasing order. Large matrices without a
    /// pivot-column request are dispatched to rref_m4r().
    size_t rref(std::vector<size_t>* pivot_cols = nullptr);

    /// Method of Four Russians RREF (the M4RI algorithm), one 64-column
    /// window at a time. The window's pivots are found on the window words
    /// of the rows that are nonzero there; they are applied k at a time
    /// through a table of pivot-row combinations whose entries are built on
    /// first use, and each row is cleared with one lookup + one row XOR
    /// that starts at the window. Rows and windows with no bits cost
    /// nothing. Word-for-word the same result as plain rref(&pivots).
    size_t rref_m4r(unsigned k = 8);

    /// Row echelon form only (no back-substitution). Returns rank.
    size_t row_echelon();

    /// Basis of the right nullspace: each returned row vector v satisfies
    /// M v = 0. The matrix is left in RREF.
    std::vector<std::vector<bool>> nullspace();

    /// C = A * B over GF(2). Requires A.cols() == B.rows().
    static Matrix multiply(const Matrix& a, const Matrix& b);

    static Matrix identity(size_t n);

    static Matrix random(size_t rows, size_t cols, Rng& rng);

    bool operator==(const Matrix& o) const {
        return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
    }

private:
    uint64_t& word(size_t r, size_t w) { return data_[r * words_per_row_ + w]; }
    const uint64_t& word(size_t r, size_t w) const {
        return data_[r * words_per_row_ + w];
    }
    uint64_t* row_ptr(size_t r) { return data_.data() + r * words_per_row_; }
    const uint64_t* row_ptr(size_t r) const {
        return data_.data() + r * words_per_row_;
    }

    /// rows_[dst] ^= rows_[src] over words [from, words_per_row_): for a
    /// src that is zero before word `from`.
    void xor_row_from(size_t dst, size_t src, size_t from) {
        uint64_t* d = row_ptr(dst);
        const uint64_t* s = row_ptr(src);
        for (size_t w = from; w < words_per_row_; ++w) d[w] ^= s[w];
    }

    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t words_per_row_ = 0;
    std::vector<uint64_t> data_;
};

}  // namespace bosphorus::gf2
