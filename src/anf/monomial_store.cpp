#include "anf/monomial_store.h"

#include <algorithm>
#include <cassert>

namespace bosphorus::anf {

namespace {

// Per-thread direct-mapped front cache for mul(): answers repeat products
// without touching the store mutex. Keyed by the store's process-unique
// serial (an address would be reusable by a later store, letting a stale
// slot answer for ids the new store never interned); within one store's
// lifetime invalidation is unnecessary because stores are append-only and
// ids are never reused.
struct MulCacheSlot {
    uint64_t serial = 0;  // 0 = empty (live serials start at 1)
    MonoId a = 0, b = 0, r = 0;
};
constexpr size_t kMulCacheBits = 13;
thread_local MulCacheSlot tl_mul_cache[1u << kMulCacheBits];

size_t mul_cache_slot(uint64_t serial, MonoId a, MonoId b) {
    uint64_t h = (uint64_t{a} << 32) | b;
    h ^= serial * 0xD1B54A32D192ED03ULL;
    h *= 0x9E3779B97F4A7C15ULL;
    return (h >> 48) & ((1u << kMulCacheBits) - 1);
}

std::atomic<uint64_t> next_store_serial{1};

}  // namespace

MonomialStore::MonomialStore()
    : serial_(next_store_serial.fetch_add(1, std::memory_order_relaxed)) {
    blocks_.resize(kMaxBlocks, nullptr);
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

MonoId MonomialStore::intern_sorted_locked(const Var* vars, uint32_t n) {
    const uint64_t h = hash_vars(vars, n);
    auto [it, end] = index_.equal_range(h);
    for (; it != end; ++it) {
        const Entry& e = entry(it->second);
        if (e.len == n && std::equal(vars, vars + n, e.vars)) return it->second;
    }

    // Fresh monomial: copy the variable list into the arena...
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
    const uint32_t id = count_.load(std::memory_order_relaxed);
    const uint32_t block = id >> kBlockBits;
    assert(block < kMaxBlocks && "monomial store id space exhausted");
    if (blocks_[block] == nullptr) blocks_[block] = new Entry[kBlockSize];
    Entry& e = blocks_[block][id & (kBlockSize - 1)];
    e.vars = stored;
    e.len = n;
    e.hash = h;
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

    MulCacheSlot& slot = tl_mul_cache[mul_cache_slot(serial_, a, b)];
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
    std::lock_guard<std::mutex> lk(mu_);
    const Entry& e = entry(id);
    scratch_.clear();
    scratch_.reserve(e.len > 0 ? e.len - 1 : 0);
    for (uint32_t i = 0; i < e.len; ++i) {
        if (e.vars[i] != v) scratch_.push_back(e.vars[i]);
    }
    return intern_sorted_locked(scratch_.data(),
                                static_cast<uint32_t>(scratch_.size()));
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
