#include "gf2/gf2_matrix.h"

#include <algorithm>
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
    // Four-Russians path; it produces the identical reduced matrix.
    if (!pivot_cols && rows_ >= 128 && cols_ >= 128) return rref_m4r();
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

namespace {

/// The Four-Russians table of one group of pivot rows: entry `idx` is the
/// XOR of the group rows whose bit is set in idx, over the words from the
/// window on. An entry is built from the entry without idx's lowest bit,
/// the first time a row asks for it; a single-row entry is the pivot row
/// itself, read in place. One buffer serves every group.
class GroupTable {
public:
    /// Start a group of `size` rows whose words from the window on are
    /// `rows[0..size)`, each `len` words long, that will clear up to
    /// `clients` rows. When there are at least half as many of those as
    /// entries, most entries will be asked for, so all are built now, in
    /// one pass in index order: every lookup then finds its entry built,
    /// a branch the CPU predicts, where building on demand mispredicts at
    /// random.
    void reset(const uint64_t* const* rows, unsigned size, size_t len,
               size_t clients) {
        rows_ = rows;
        len_ = len;
        const uint32_t entries = uint32_t{1} << size;
        if (buf_.size() < size_t{entries} * len) buf_.resize(entries * len);
        if (built_.size() < entries) built_.resize(entries, 0);
        ++epoch_;
        if (2 * clients < entries) return;
        for (uint32_t idx = 3; idx < entries; ++idx) {
            const uint32_t low = idx & (idx - 1);
            if (low == 0) continue;
            const uint64_t* src = (low & (low - 1)) != 0
                                      ? buf_.data() + size_t{low} * len_
                                      : rows_[std::countr_zero(low)];
            const uint64_t* add = rows_[std::countr_zero(idx)];
            uint64_t* dst = buf_.data() + size_t{idx} * len_;
            for (size_t w = 0; w < len_; ++w) dst[w] = src[w] ^ add[w];
            built_[idx] = epoch_;
        }
    }

    const uint64_t* entry(uint32_t idx) {
        // Walk down to a built or single-row entry, then build back up.
        uint32_t chain[17];
        int depth = 0;
        uint32_t m = idx;
        while ((m & (m - 1)) != 0 && built_[m] != epoch_) {
            chain[depth++] = m;
            m &= m - 1;
        }
        const uint64_t* src = (m & (m - 1)) != 0
                                  ? buf_.data() + size_t{m} * len_
                                  : rows_[std::countr_zero(m)];
        while (depth > 0) {
            const uint32_t c = chain[--depth];
            uint64_t* dst = buf_.data() + size_t{c} * len_;
            const uint64_t* add = rows_[std::countr_zero(c)];
            for (size_t w = 0; w < len_; ++w) dst[w] = src[w] ^ add[w];
            built_[c] = epoch_;
            src = dst;
        }
        return src;
    }

private:
    const uint64_t* const* rows_ = nullptr;
    size_t len_ = 0;
    std::vector<uint64_t> buf_;
    std::vector<uint32_t> built_;  // == epoch_ once the entry is built
    uint32_t epoch_ = 0;
};

}  // namespace

size_t Matrix::rref_m4r(unsigned k) {
    k = std::clamp(k, 1u, 16u);
    const size_t n_words = words_per_row_;
    constexpr uint32_t kNone = UINT32_MAX;

    // Every row waits in the bucket of its first nonzero word past the
    // last window that touched it, so a window visits exactly the rows
    // that have bits in it. A row is only ever changed in a window where
    // it is nonzero, and only from that window's word on, so the buckets
    // stay exact. Rows whose remaining words are zero sit in no bucket.
    std::vector<uint32_t> head(n_words, kNone), next(rows_, kNone);
    auto file = [&](uint32_t r, size_t from) {
        const uint64_t* p = row_ptr(r);
        for (size_t w = from; w < n_words; ++w) {
            if (p[w] != 0) {
                next[r] = head[w];
                head[w] = r;
                return;
            }
        }
    };
    for (size_t r = rows_; r-- > 0;) file(static_cast<uint32_t>(r), 0);

    // Pivot rows stay where they are until the end; `order` lists them by
    // pivot column.
    std::vector<uint32_t> order;
    std::vector<uint8_t> is_pivot(rows_, 0);
    std::vector<uint32_t> in_group(rows_, 0);  // == group stamp while in it
    uint32_t group_stamp = 0;
    std::vector<uint32_t> hit;
    std::vector<std::pair<unsigned, uint32_t>> piv;  // (window bit, row)
    std::vector<const uint64_t*> group_rows(k);
    GroupTable table;

    for (size_t w = 0; w < n_words && order.size() < rows_; ++w) {
        hit.clear();
        for (uint32_t r = head[w]; r != kNone; r = next[r]) hit.push_back(r);
        if (hit.empty()) continue;

        // The window's pivots, on the window words alone: insert each
        // non-pivot row's word into an XOR basis keyed by lowest set bit.
        // The basis bits are the window's pivot columns (they depend only
        // on the row space) and the rows that entered it its pivot rows.
        piv.clear();
        uint64_t basis[64];
        uint64_t have = 0;
        for (const uint32_t r : hit) {
            if (is_pivot[r]) continue;
            for (uint64_t x = word(r, w); x != 0;) {
                const unsigned b = std::countr_zero(x);
                if (((have >> b) & 1) == 0) {
                    basis[b] = x;
                    have |= uint64_t{1} << b;
                    piv.emplace_back(b, r);
                    break;
                }
                x ^= basis[b];
            }
            if (have == ~uint64_t{0}) break;
        }
        std::sort(piv.begin(), piv.end());
        for (const auto& pr : piv) {
            is_pivot[pr.second] = 1;
            order.push_back(pr.second);
        }

        // Apply the pivots k at a time. Each group is first brought to
        // RREF on its own pivot columns (its rows are zero on the earlier
        // groups' columns by then), then cleared from every other row of
        // the window through the group's table.
        const size_t len = n_words - w;
        for (size_t g0 = 0; g0 < piv.size(); g0 += k) {
            const auto* grp = piv.data() + g0;
            const unsigned kk =
                static_cast<unsigned>(std::min<size_t>(k, piv.size() - g0));
            ++group_stamp;
            uint64_t gmask = 0;
            for (unsigned i = 0; i < kk; ++i) {
                in_group[grp[i].second] = group_stamp;
                gmask |= uint64_t{1} << grp[i].first;
            }
            auto has = [&](uint32_t r, unsigned b) {
                return ((word(r, w) >> b) & 1) != 0;
            };
            for (unsigned i = 1; i < kk; ++i)
                for (unsigned j = 0; j < i; ++j)
                    if (has(grp[i].second, grp[j].first))
                        xor_row_from(grp[i].second, grp[j].second, w);
            for (unsigned j = kk; j-- > 1;)
                for (unsigned i = 0; i < j; ++i)
                    if (has(grp[i].second, grp[j].first))
                        xor_row_from(grp[i].second, grp[j].second, w);

            for (unsigned i = 0; i < kk; ++i)
                group_rows[i] = row_ptr(grp[i].second) + w;
            table.reset(group_rows.data(), kk, len, hit.size() - kk);
            const unsigned lo = grp[0].first;
            const bool contiguous = grp[kk - 1].first - lo == kk - 1;
            const uint64_t low_mask = (uint64_t{1} << kk) - 1;
            for (const uint32_t r : hit) {
                if (in_group[r] == group_stamp) continue;
                const uint64_t x = word(r, w);
                if ((x & gmask) == 0) continue;
                uint32_t idx;
                if (contiguous) {
                    idx = static_cast<uint32_t>((x >> lo) & low_mask);
                } else {
                    idx = 0;
                    for (unsigned i = 0; i < kk; ++i)
                        idx |= static_cast<uint32_t>((x >> grp[i].first) & 1)
                               << i;
                }
                const uint64_t* src = table.entry(idx);
                uint64_t* dst = row_ptr(r) + w;
                for (size_t t = 0; t < len; ++t) dst[t] ^= src[t];
            }
        }
        for (const uint32_t r : hit) file(r, w + 1);
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
