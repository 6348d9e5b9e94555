#include "anf/monomial_store.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bosphorus::anf {

namespace {

// Per-thread direct-mapped front caches for mul() and without(): answer
// repeat calls without touching the store mutex. Keyed by the store's
// process-unique serial (an address would be reusable by a later store,
// letting a stale slot answer for ids the new store never interned);
// within one store's lifetime invalidation is unnecessary because stores
// are append-only and ids are never reused. Every thread pays for both
// tables up front, so without()'s is small: the substitution kernel
// repeats a (term, variable) pair only within one substitution.
struct FrontCacheSlot {
    uint64_t serial = 0;  // 0 = empty (live serials start at 1)
    uint32_t a = 0, b = 0;
    MonoId r = 0;
};
constexpr unsigned kMulCacheBits = 13;
constexpr unsigned kWithoutCacheBits = 10;
thread_local FrontCacheSlot tl_mul_cache[1u << kMulCacheBits];
thread_local FrontCacheSlot tl_without_cache[1u << kWithoutCacheBits];

size_t front_cache_slot(uint64_t serial, uint32_t a, uint32_t b,
                        unsigned bits) {
    uint64_t h = (uint64_t{a} << 32) | b;
    h ^= serial * 0xD1B54A32D192ED03ULL;
    h *= 0x9E3779B97F4A7C15ULL;
    return (h >> 48) & ((1u << bits) - 1);
}

std::atomic<uint64_t> next_store_serial{1};

}  // namespace

MonomialStore::MonomialStore(size_t max_entries)
    : serial_(next_store_serial.fetch_add(1, std::memory_order_relaxed)),
      max_entries_(std::clamp<size_t>(max_entries, 1, kMaxEntries)) {
    blocks_.resize((max_entries_ + kBlockSize - 1) >> kBlockBits, nullptr);
    std::lock_guard<std::mutex> lk(mu_);
    const MonoId one = intern_sorted_locked(nullptr, 0);
    (void)one;
    assert(one == kMonoOne);
}

MonomialStore::~MonomialStore() {
    for (Entry* b : blocks_) delete[] b;
}

MonomialStore& MonomialStore::global() {
    static MonomialStore* store = new MonomialStore();  // never destroyed
    return *store;
}

uint64_t MonomialStore::hash_vars(const Var* vars, uint32_t n) {
    // The exact chain of the pre-interning Monomial::hash().
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (uint32_t i = 0; i < n; ++i) h = (h ^ vars[i]) * 0x100000001B3ULL;
    return h;
}

uint64_t MonomialStore::key_vars(const Var* vars, uint32_t n) {
    // [degree:8][first var:28][second var:28]. A field that saturates
    // zeroes every field after it, so keys stay monotone in deg-lex order
    // whatever the degree or variable range.
    constexpr uint64_t kDegMax = 255;
    constexpr uint64_t kVarMax = (uint64_t{1} << 28) - 1;
    if (n >= kDegMax) return kDegMax << 56;
    uint64_t key = uint64_t{n} << 56;
    for (uint32_t i = 0; i < n && i < 2; ++i) {
        const uint64_t v = std::min<uint64_t>(vars[i], kVarMax);
        key |= v << (28 * (1 - i));
        if (v == kVarMax) break;
    }
    return key;
}

MonoId MonomialStore::intern_sorted_locked(const Var* vars, uint32_t n) {
    const uint64_t h = hash_vars(vars, n);
    auto [it, end] = index_.equal_range(h);
    for (; it != end; ++it) {
        const Entry& e = entry(it->second);
        if (e.len == n && std::equal(vars, vars + n, e.vars)) return it->second;
    }

    // Fresh monomial. Refuse it before touching any state once the id
    // space is used up (in every build: a Release store must not write
    // past blocks_).
    const uint32_t id = count_.load(std::memory_order_relaxed);
    if (id >= max_entries_)
        throw std::length_error("monomial store id space exhausted");

    // Copy the variable list into the arena...
    const Var* stored = nullptr;
    if (n > 0) {
        if (n > kArenaChunk - arena_used_) {
            const size_t chunk = std::max<size_t>(kArenaChunk, n);
            arena_.push_back(std::make_unique<Var[]>(chunk));
            arena_used_ = 0;
            arena_bytes_ += chunk * sizeof(Var);
        }
        Var* dst = arena_.back().get() + arena_used_;
        std::copy(vars, vars + n, dst);
        arena_used_ += n;
        stored = dst;
    }

    // ...write the entry slot, then publish the id.
    const uint32_t block = id >> kBlockBits;
    if (blocks_[block] == nullptr) blocks_[block] = new Entry[kBlockSize];
    Entry& e = blocks_[block][id & (kBlockSize - 1)];
    e.vars = stored;
    e.len = n;
    e.hash = h;
    e.key = key_vars(vars, n);
    index_.emplace(h, id);
    count_.store(id + 1, std::memory_order_release);
    return id;
}

MonoId MonomialStore::intern_sorted(const Var* vars, uint32_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    return intern_sorted_locked(vars, n);
}

MonoId MonomialStore::intern(std::vector<Var> vars) {
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return intern_sorted(vars.data(), static_cast<uint32_t>(vars.size()));
}

int MonomialStore::compare(MonoId a, MonoId b) const {
    if (a == b) return 0;
    const Entry& ea = entry(a);
    const Entry& eb = entry(b);
    if (ea.key != eb.key) return ea.key < eb.key ? -1 : 1;
    if (ea.len != eb.len) return ea.len < eb.len ? -1 : 1;
    for (uint32_t i = 0; i < ea.len; ++i) {
        if (ea.vars[i] != eb.vars[i]) return ea.vars[i] < eb.vars[i] ? -1 : 1;
    }
    return 0;
}

bool MonomialStore::contains(MonoId id, Var v) const {
    const Entry& e = entry(id);
    return std::binary_search(e.vars, e.vars + e.len, v);
}

bool MonomialStore::divides(MonoId a, MonoId b) const {
    const Entry& ea = entry(a);
    const Entry& eb = entry(b);
    return std::includes(eb.vars, eb.vars + eb.len, ea.vars,
                         ea.vars + ea.len);
}

MonoId MonomialStore::mul(MonoId a, MonoId b) {
    if (a == kMonoOne) return b;
    if (b == kMonoOne) return a;
    if (a == b) return a;  // idempotent: m * m = m over GF(2)
    if (a > b) std::swap(a, b);  // commutative: canonicalise the key

    FrontCacheSlot& slot =
        tl_mul_cache[front_cache_slot(serial_, a, b, kMulCacheBits)];
    if (slot.serial == serial_ && slot.a == a && slot.b == b) {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        return slot.r;
    }

    const uint64_t key = (uint64_t{a} << 32) | b;
    MonoId r;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = mul_memo_.find(key);
        if (it != mul_memo_.end()) {
            memo_hits_.fetch_add(1, std::memory_order_relaxed);
            r = it->second;
        } else {
            memo_misses_.fetch_add(1, std::memory_order_relaxed);
            const Entry& ea = entry(a);
            const Entry& eb = entry(b);
            scratch_.clear();
            scratch_.reserve(ea.len + eb.len);
            std::set_union(ea.vars, ea.vars + ea.len, eb.vars,
                           eb.vars + eb.len, std::back_inserter(scratch_));
            r = intern_sorted_locked(scratch_.data(),
                                     static_cast<uint32_t>(scratch_.size()));
            if (mul_memo_.size() >= kMulMemoCap) mul_memo_.clear();
            mul_memo_.emplace(key, r);
        }
    }
    slot = {serial_, a, b, r};
    return r;
}

MonoId MonomialStore::quotient(MonoId target, MonoId m) {
    if (m == kMonoOne) return target;
    if (m == target) return kMonoOne;
    std::lock_guard<std::mutex> lk(mu_);
    const Entry& et = entry(target);
    const Entry& em = entry(m);
    scratch_.clear();
    scratch_.reserve(et.len);
    std::set_difference(et.vars, et.vars + et.len, em.vars, em.vars + em.len,
                        std::back_inserter(scratch_));
    return intern_sorted_locked(scratch_.data(),
                                static_cast<uint32_t>(scratch_.size()));
}

MonoId MonomialStore::without(MonoId id, Var v) {
    FrontCacheSlot& slot =
        tl_without_cache[front_cache_slot(serial_, id, v, kWithoutCacheBits)];
    if (slot.serial == serial_ && slot.a == id && slot.b == v) return slot.r;

    MonoId r;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const Entry& e = entry(id);
        scratch_.clear();
        scratch_.reserve(e.len > 0 ? e.len - 1 : 0);
        for (uint32_t i = 0; i < e.len; ++i) {
            if (e.vars[i] != v) scratch_.push_back(e.vars[i]);
        }
        r = intern_sorted_locked(scratch_.data(),
                                 static_cast<uint32_t>(scratch_.size()));
    }
    slot = {serial_, id, v, r};
    return r;
}

MonomialStore::Stats MonomialStore::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    Stats s;
    s.entries = count_.load(std::memory_order_relaxed);
    s.arena_bytes = arena_bytes_;
    const uint32_t blocks = (s.entries + kBlockSize - 1) >> kBlockBits;
    s.entry_bytes = size_t{blocks} * kBlockSize * sizeof(Entry);
    s.mul_memo_entries = mul_memo_.size();
    s.mul_memo_hits = memo_hits_.load(std::memory_order_relaxed);
    s.mul_memo_misses = memo_misses_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace bosphorus::anf
