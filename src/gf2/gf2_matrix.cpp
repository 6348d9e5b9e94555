#include "gf2/gf2_matrix.h"

#include <bit>
#include <utility>

namespace bosphorus::gf2 {

long Matrix::first_set_in_row(size_t r) const {
    const uint64_t* p = row_ptr(r);
    for (size_t w = 0; w < words_per_row_; ++w) {
        if (p[w] != 0) {
            const long c = static_cast<long>(w * 64 + std::countr_zero(p[w]));
            return c < static_cast<long>(cols_) ? c : -1;
        }
    }
    return -1;
}

size_t Matrix::row_popcount(size_t r) const {
    const uint64_t* p = row_ptr(r);
    size_t n = 0;
    for (size_t w = 0; w < words_per_row_; ++w) n += std::popcount(p[w]);
    return n;
}

size_t Matrix::add_row() {
    data_.resize(data_.size() + words_per_row_, 0);
    return rows_++;
}

size_t Matrix::rref(std::vector<size_t>* pivot_cols) {
    // Big eliminations without a pivot-column request go through the
    // sparse kernel; it produces the identical reduced matrix.
    if (!pivot_cols && rows_ >= 128 && cols_ >= 128) return rref_sparse();
    if (pivot_cols) pivot_cols->clear();
    size_t rank = 0;
    for (size_t col = 0; col < cols_ && rank < rows_; ++col) {
        // Find a pivot row at or below `rank` with a 1 in this column.
        size_t pivot = rows_;
        for (size_t r = rank; r < rows_; ++r) {
            if (get(r, col)) { pivot = r; break; }
        }
        if (pivot == rows_) continue;
        swap_rows(rank, pivot);
        // Eliminate the column from every other row (full Gauss-Jordan).
        // The pivot row is zero left of `col`, so each XOR starts at the
        // column's word.
        for (size_t r = 0; r < rows_; ++r) {
            if (r != rank && get(r, col)) xor_row_from(r, rank, col / 64);
        }
        if (pivot_cols) pivot_cols->push_back(col);
        ++rank;
    }
    return rank;
}

size_t Matrix::rref_sparse() {
    const size_t n_words = words_per_row_;
    constexpr uint32_t kNone = UINT32_MAX;

    // Every nonzero row waits in the bucket of its leading column, with
    // the number of its nonzero words: the columns left of the leading
    // one are zero, so that is its fill from the column's word on.
    std::vector<uint32_t> head(cols_, kNone), next(rows_, kNone), fill(rows_);
    auto file = [&](uint32_t r, size_t from) {
        const uint64_t* p = row_ptr(r);
        while (from < n_words && p[from] == 0) ++from;
        if (from == n_words) return;
        const size_t c = from * 64 + std::countr_zero(p[from]);
        next[r] = head[c];
        head[c] = r;
    };
    for (size_t r = 0; r < rows_; ++r) {
        const uint64_t* p = row_ptr(r);
        uint32_t n = 0;
        for (size_t w = 0; w < n_words; ++w) n += p[w] != 0;
        fill[r] = n;
        file(static_cast<uint32_t>(r), 0);
    }

    // Forward: each column's pivot is its bucket's sparsest row, cleared
    // from the rest of the bucket, which then moves on to later columns.
    // Pivot rows stay where they are until the end; `order` lists them by
    // pivot column and `pivot_mask` marks the pivot columns.
    std::vector<uint32_t> order, pivot_row(cols_, kNone);
    std::vector<size_t> pivot_cols;
    std::vector<uint64_t> pivot_mask(n_words, 0);
    for (size_t c = 0; c < cols_; ++c) {
        if (head[c] == kNone) continue;
        uint32_t pivot = head[c];
        for (uint32_t r = next[pivot]; r != kNone; r = next[r])
            if (fill[r] < fill[pivot]) pivot = r;
        order.push_back(pivot);
        pivot_cols.push_back(c);
        pivot_row[c] = pivot;
        const size_t w = c / 64;
        pivot_mask[w] |= uint64_t{1} << (c % 64);
        const uint64_t* s = row_ptr(pivot);
        for (uint32_t r = head[c]; r != kNone;) {
            const uint32_t after = next[r];
            if (r != pivot) {
                uint64_t* d = row_ptr(r);
                uint32_t n = 0;
                for (size_t t = w; t < n_words; ++t) {
                    d[t] ^= s[t];
                    n += d[t] != 0;
                }
                fill[r] = n;
                file(r, w);
            }
            r = after;
        }
    }

    // Back-substitution, last pivot column first: the rows that clear a
    // pivot row's later pivot bits are already fully reduced, so they
    // carry no other pivot bit and the bits left to clear can be read one
    // word at a time.
    for (size_t i = order.size(); i-- > 0;) {
        const uint64_t* d = row_ptr(order[i]);
        const size_t lead = pivot_cols[i];
        for (size_t t = lead / 64; t < n_words; ++t) {
            uint64_t x = d[t] & pivot_mask[t];
            if (t == lead / 64) x &= ~uint64_t{0} << (lead % 64) << 1;
            for (; x != 0; x &= x - 1) {
                const size_t c = t * 64 + std::countr_zero(x);
                xor_row_from(order[i], pivot_row[c], t);
            }
        }
    }

    // Move the pivot rows to the top in pivot-column order. Every other
    // row is zero by now.
    const size_t rank = order.size();
    std::vector<uint32_t> at(rows_), where(rows_);  // position <-> row
    for (size_t i = 0; i < rows_; ++i)
        at[i] = where[i] = static_cast<uint32_t>(i);
    for (size_t i = 0; i < rank; ++i) {
        const uint32_t src = where[order[i]];
        if (src == i) continue;
        swap_rows(i, src);
        const uint32_t displaced = at[i];
        at[i] = order[i];
        where[order[i]] = static_cast<uint32_t>(i);
        at[src] = displaced;
        where[displaced] = src;
    }
    return rank;
}

size_t Matrix::row_echelon() {
    size_t rank = 0;
    for (size_t col = 0; col < cols_ && rank < rows_; ++col) {
        size_t pivot = rows_;
        for (size_t r = rank; r < rows_; ++r) {
            if (get(r, col)) { pivot = r; break; }
        }
        if (pivot == rows_) continue;
        swap_rows(rank, pivot);
        for (size_t r = rank + 1; r < rows_; ++r) {
            if (get(r, col)) xor_row(r, rank);
        }
        ++rank;
    }
    return rank;
}

std::vector<std::vector<bool>> Matrix::nullspace() {
    std::vector<size_t> pivots;
    const size_t rank = rref(&pivots);

    // Mark pivot columns; the rest are free.
    std::vector<long> pivot_row_of_col(cols_, -1);
    for (size_t i = 0; i < rank; ++i) pivot_row_of_col[pivots[i]] = (long)i;

    std::vector<std::vector<bool>> basis;
    for (size_t free_col = 0; free_col < cols_; ++free_col) {
        if (pivot_row_of_col[free_col] >= 0) continue;
        std::vector<bool> v(cols_, false);
        v[free_col] = true;
        // Each pivot variable equals the sum of the free variables appearing
        // in its (fully reduced) row.
        for (size_t i = 0; i < rank; ++i) {
            if (get(i, free_col)) v[pivots[i]] = true;
        }
        basis.push_back(std::move(v));
    }
    return basis;
}

Matrix Matrix::multiply(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        uint64_t* dst = c.row_ptr(i);
        for (size_t k = 0; k < a.cols(); ++k) {
            if (!a.get(i, k)) continue;
            const uint64_t* src = b.row_ptr(k);
            for (size_t w = 0; w < c.words_per_row_; ++w) dst[w] ^= src[w];
        }
    }
    return c;
}

Matrix Matrix::identity(size_t n) {
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) m.set(i, i, true);
    return m;
}

Matrix Matrix::random(size_t rows, size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (rng.coin()) m.set(r, c, true);
    return m;
}

}  // namespace bosphorus::gf2
