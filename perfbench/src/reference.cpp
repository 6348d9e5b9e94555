#include "reference.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "metrics.h"

namespace perfbench {

namespace {

constexpr size_t kLists = 256;       // sorted lists of 64..320 entries
constexpr size_t kKeys = 1u << 14;   // hash-map keys per sample
constexpr size_t kRowWords = 6;      // 384 x 384 GF(2) matrix
constexpr size_t kRows = 64 * kRowWords;
constexpr size_t kWideWords = 128;   // 4096 x 8192 GF(2) matrix: 4 MiB
constexpr size_t kWideRows = 4096;
constexpr size_t kWidePivots = 8;    // row-XOR passes over it per sample
constexpr size_t kNodes = 1u << 20;  // pointer-walk nodes: 4 MiB, past L2
constexpr size_t kSteps = 1u << 14;  // pointer-walk steps per sample
constexpr size_t kWarmUp = 5;

/// splitmix64: the kernel's inputs never depend on --seed.
uint64_t mix(uint64_t& state) {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

volatile uint64_t g_sink;

}  // namespace

ReferenceClock::ReferenceClock() {
    uint64_t state = 0x5EED;
    for (size_t i = 0; i < kLists; ++i) {
        std::vector<uint32_t> list(64 + mix(state) % 257);
        for (uint32_t& x : list) x = uint32_t(mix(state) % 4096);
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
        lists_.push_back(std::move(list));
    }
    for (size_t i = 0; i < kKeys; ++i) keys_.push_back(mix(state) % (4 * kKeys));
    for (size_t i = 0; i < kRows * kRowWords; ++i) rows_.push_back(mix(state));
    for (size_t i = 0; i < kWideRows * kWideWords; ++i) wide_.push_back(mix(state));
    // One cycle through every node (Sattolo's shuffle), so a walk never
    // settles into a short loop that stays in cache.
    next_.resize(kNodes);
    for (size_t i = 0; i < kNodes; ++i) next_[i] = uint32_t(i);
    for (size_t i = kNodes - 1; i > 0; --i) std::swap(next_[i], next_[mix(state) % i]);
    for (size_t i = 0; i < kWarmUp; ++i) kernel();
    since_.restart();
}

uint64_t ReferenceClock::kernel() {
    uint64_t check = 0;
    // Polynomial additions: symmetric differences of sorted lists.
    std::vector<uint32_t> acc, tmp;
    for (size_t i = 0; i < kLists; ++i) {
        tmp.clear();
        std::set_symmetric_difference(acc.begin(), acc.end(), lists_[i].begin(),
                                      lists_[i].end(), std::back_inserter(tmp));
        acc.swap(tmp);
        if (acc.size() > 2048) acc.resize(acc.size() / 2);
    }
    check += acc.size();
    // Monomial-store traffic: inserts, then lookups that half miss.
    std::unordered_map<uint64_t, uint32_t> map;
    for (size_t i = 0; i < kKeys; ++i) map.emplace(keys_[i], uint32_t(i));
    for (size_t i = 0; i < kKeys; ++i) {
        auto it = map.find(keys_[i] ^ 1);
        check += it == map.end() ? 1 : it->second;
    }
    // Dense GF(2) elimination on a copy of the fixed matrix.
    std::vector<uint64_t> m = rows_;
    size_t rank = 0;
    for (size_t col = 0; col < kRows && rank < kRows; ++col) {
        const size_t w = col / 64;
        const uint64_t bit = 1ULL << (col % 64);
        size_t pivot = rank;
        while (pivot < kRows && !(m[pivot * kRowWords + w] & bit)) ++pivot;
        if (pivot == kRows) continue;
        for (size_t k = 0; k < kRowWords; ++k)
            std::swap(m[pivot * kRowWords + k], m[rank * kRowWords + k]);
        for (size_t r = 0; r < kRows; ++r) {
            if (r == rank || !(m[r * kRowWords + w] & bit)) continue;
            for (size_t k = w; k < kRowWords; ++k)
                m[r * kRowWords + k] ^= m[rank * kRowWords + k];
        }
        ++rank;
    }
    check += rank;
    // Row additions streamed over a matrix far larger than L2, as the
    // elimination of a big linearisation does. Each pass XORs one row
    // into every row that has its pivot bit: the matrix changes from
    // sample to sample but the work per sample stays the same in
    // expectation (half of the rows take each pass).
    for (size_t p = 0; p < kWidePivots; ++p) {
        const size_t pivot = (pivot_++ * 977) % kWideRows;
        const uint64_t* src = &wide_[pivot * kWideWords];
        const uint64_t bit = 1ULL << (p % 64);
        for (size_t r = 0; r < kWideRows; ++r) {
            uint64_t* row = &wide_[r * kWideWords];
            if (r == pivot || !(row[0] & bit)) continue;
            for (size_t k = 1; k < kWideWords; ++k) row[k] ^= src[k];
        }
    }
    check += wide_[pivot_ % wide_.size()];
    // Propagation-like pointer chasing, on from where the last sample
    // stopped.
    for (size_t i = 0; i < kSteps; ++i) walk_ = next_[walk_];
    check += walk_;
    return check;
}

double ReferenceClock::sample() {
    const bosphorus::Timer timer;
    g_sink = kernel();
    const double s = timer.seconds();
    times_.push_back(s);
    return s;
}

double ReferenceClock::catch_up(double every_s) {
    double spent = 0.0;
    for (int owed = int(since_.seconds() / every_s); owed > 0; --owed) spent += sample();
    if (spent > 0.0) since_.restart();
    return spent;
}

double ReferenceClock::median_s() const { return median(times_); }

double ReferenceClock::scale_since(size_t first) const {
    const double m = median(std::vector<double>(
        times_.begin() + std::ptrdiff_t(std::min(first, times_.size())), times_.end()));
    return m > 0.0 ? kReferenceSeconds / m : 1.0;
}

}  // namespace perfbench
