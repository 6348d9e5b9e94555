// Hash-consed monomial interning -- the term substrate of the whole
// library.
//
// Every distinct monomial (a sorted set of Boolean variables) is interned
// exactly once into a MonomialStore and addressed by a dense 32-bit MonoId
// from then on. Equality is an integer compare, hashing returns a cached
// content hash, degree is a cached byte read, and the product of two
// monomials goes through a memo table -- the same hash-consing discipline
// CDCL solvers apply to clauses, applied to ANF terms. Polynomials become
// sorted vectors of 4-byte ids, so the XL/ElimLin/Groebner hot loops stop
// allocating and re-hashing variable vectors per term.
//
// Id invariants:
//  - kMonoOne (0) is always the constant monomial 1.
//  - Ids are assigned in interning order and NEVER reused or invalidated:
//    the store is append-only for its whole lifetime. Snapshot/rewind
//    machinery (AnfSystem, Session push/pop) therefore never touches the
//    store -- entries interned inside a popped scope simply remain as
//    cached, unreferenced vocabulary.
//  - Raw id VALUES are history-dependent (they depend on what was interned
//    first) and must never influence observable output. All ordering goes
//    through less()/compare() (deg-lex on content) and all hashing
//    through hash() (a hash of the sorted variable list alone), so
//    results are bit-identical regardless of store history.
//
// Thread safety: intern/mul/quotient/without take an internal mutex
// (mul and without first ask a per-thread front cache);
// vars/degree/hash/order_key/less/compare/divides are lock-free reads. A
// lock-free read of id X is safe on any thread that obtained X through a
// happens-before edge with the interning thread (same thread, or a
// handoff through a synchronised channel such as the batch runtime's
// thread pool): entry storage is chunked and never moves, and a slot is
// fully written before its id escapes the mutex.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace bosphorus::anf {

using Var = uint32_t;
using MonoId = uint32_t;

/// The id of the constant monomial 1 (the empty variable set) in every
/// store.
inline constexpr MonoId kMonoOne = 0;

/// Non-owning view of a monomial's sorted variable list inside the store
/// arena. Cheap to copy; valid as long as the store lives (forever, for
/// the global store).
class VarSpan {
public:
    VarSpan() = default;
    VarSpan(const Var* data, uint32_t size) : data_(data), size_(size) {}

    const Var* begin() const { return data_; }
    const Var* end() const { return data_ + size_; }
    const Var* data() const { return data_; }
    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Var operator[](size_t i) const { return data_[i]; }
    Var front() const { return data_[0]; }
    Var back() const { return data_[size_ - 1]; }

private:
    const Var* data_ = nullptr;
    uint32_t size_ = 0;
};

inline bool operator==(const VarSpan& a, const VarSpan& b) {
    if (a.size() != b.size()) return false;
    for (uint32_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) return false;
    return true;
}

inline bool operator==(const VarSpan& a, const std::vector<Var>& b) {
    if (a.size() != b.size()) return false;
    for (uint32_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) return false;
    return true;
}
inline bool operator==(const std::vector<Var>& a, const VarSpan& b) {
    return b == a;
}

class MonomialStore {
public:
    /// The largest id space a store can address (kMaxBlocks blocks of
    /// kBlockSize entries).
    static constexpr size_t kMaxEntries = size_t{1} << 28;

    /// A store holding at most `max_entries` monomials (clamped to
    /// kMaxEntries). Interning a fresh monomial past the cap throws
    /// std::length_error; only tests shrink it.
    explicit MonomialStore(size_t max_entries = kMaxEntries);
    ~MonomialStore();

    MonomialStore(const MonomialStore&) = delete;
    MonomialStore& operator=(const MonomialStore&) = delete;

    /// The process-wide store every Monomial resolves against. Constructed
    /// on first use, never destroyed before program exit.
    static MonomialStore& global();

    // ---- interning -------------------------------------------------------

    /// Intern a variable set given in any order, with duplicates (x^2 = x).
    /// Every interning call (this, intern_sorted, intern_var, mul,
    /// quotient, without) throws std::length_error when a fresh monomial would exceed the
    /// store's entry cap; the store is left unchanged.
    MonoId intern(std::vector<Var> vars);

    /// Intern a canonical (sorted, duplicate-free) variable list.
    MonoId intern_sorted(const Var* vars, uint32_t n);

    /// Intern the single-variable monomial x_v.
    MonoId intern_var(Var v) { return intern_sorted(&v, 1); }

    // ---- lock-free reads -------------------------------------------------

    VarSpan vars(MonoId id) const {
        const Entry& e = entry(id);
        return VarSpan(e.vars, e.len);
    }
    uint32_t degree(MonoId id) const { return entry(id).len; }

    /// Cached content hash of the sorted variables v_1 < ... < v_d:
    /// h = 0x9E3779B97F4A7C15, then h = (h ^ v_i) * 0x100000001B3 for each
    /// v_i. Stable across processes and interning orders; golden tests
    /// pin it through Polynomial::hash.
    uint64_t hash(MonoId id) const { return entry(id).hash; }

    /// Degree-lexicographic order on content (degree first, then
    /// lexicographic variable lists): the canonical term order everywhere
    /// in the library. O(1) when the cached order keys differ, O(shared
    /// prefix) otherwise.
    bool less(MonoId a, MonoId b) const { return compare(a, b) < 0; }
    int compare(MonoId a, MonoId b) const;

    /// A cached 64-bit prefix of the deg-lex order: the degree, then the
    /// first two variables. Monotone: a <= b implies key(a) <= key(b), so
    /// unequal keys decide compare() and equal keys of distinct monomials
    /// (degree >= 3 sharing two leading variables, or clamped fields) fall
    /// back to the full comparison. Sorts can compare keys without
    /// touching the store.
    uint64_t order_key(MonoId id) const { return entry(id).key; }

    bool contains(MonoId id, Var v) const;

    /// True iff a's variable set is a subset of b's (a divides b).
    bool divides(MonoId a, MonoId b) const;

    // ---- algebra (interning writes, mutex-guarded) -----------------------

    /// Product = union of variable sets, answered through a bounded memo
    /// table (plus a per-thread front cache) so repeated products in the
    /// XL expansion / Groebner lcm loops cost a lookup, not a set_union.
    MonoId mul(MonoId a, MonoId b);

    /// The cofactor u with u * m == target. Precondition: m divides target.
    MonoId quotient(MonoId target, MonoId m);

    /// The monomial with variable v removed. Precondition: contains(id, v).
    /// Repeat calls are answered from a per-thread front cache without
    /// taking the mutex (the substitution kernel calls this per term).
    MonoId without(MonoId id, Var v);

    // ---- introspection ---------------------------------------------------

    /// Number of distinct monomials interned so far.
    size_t size() const { return count_.load(std::memory_order_acquire); }

    /// Process-unique and never reused: per-thread id-indexed tables (the
    /// front caches, core::MonoMarks) key on it.
    uint64_t serial() const { return serial_; }

    size_t mul_memo_hits() const { return memo_hits_.load(std::memory_order_relaxed); }
    size_t mul_memo_misses() const { return memo_misses_.load(std::memory_order_relaxed); }

    /// One consistent occupancy snapshot, taken under the store mutex --
    /// the accessor METRICS endpoints and bench tools read instead of
    /// guessing from size() alone. Caveat: the store is APPEND-ONLY for
    /// its whole lifetime (see the id invariants above), so every counter
    /// here is monotone non-decreasing; a long-lived process serving many
    /// tenants shares one growing vocabulary and reclaims nothing --
    /// `entries`/`arena_bytes` measure that growth, `mul_memo_entries` is
    /// the only component with a hard cap (kMulMemoCap, reset-on-full).
    struct Stats {
        size_t entries = 0;           ///< distinct monomials interned
        size_t arena_bytes = 0;       ///< variable-list arena, allocated
        size_t entry_bytes = 0;       ///< entry blocks, allocated
        size_t mul_memo_entries = 0;  ///< live products in the bounded memo
        size_t mul_memo_hits = 0;     ///< memo + front-cache hits
        size_t mul_memo_misses = 0;   ///< products computed the slow way
    };
    /// Thread-safe: may be called concurrently with interning from any
    /// thread (it serialises briefly with writers on the store mutex).
    Stats stats() const;

    /// The memo-table bound: past this many cached products the table is
    /// reset (bounded memory, monotone ids keep every entry valid forever
    /// otherwise).
    static constexpr size_t kMulMemoCap = 1u << 20;

private:
    struct Entry {
        const Var* vars = nullptr;  // into the arena; never moves
        uint32_t len = 0;           // == degree (variables are distinct)
        uint64_t hash = 0;          // cached content hash
        uint64_t key = 0;           // cached order_key()
    };

    // Entries live in fixed-size blocks behind a never-resized pointer
    // table, so entry(id) needs no lock: blocks_[] has stable addresses
    // and a block pointer is written (under the mutex) before any id in it
    // escapes.
    static constexpr uint32_t kBlockBits = 13;
    static constexpr uint32_t kBlockSize = 1u << kBlockBits;  // entries/block
    static constexpr uint32_t kMaxBlocks = 1u << 15;
    static_assert(size_t{kMaxBlocks} * kBlockSize == kMaxEntries);

    const Entry& entry(MonoId id) const {
        return blocks_[id >> kBlockBits][id & (kBlockSize - 1)];
    }

    static uint64_t hash_vars(const Var* vars, uint32_t n);
    static uint64_t key_vars(const Var* vars, uint32_t n);

    /// Shared implementation; requires mu_ held.
    MonoId intern_sorted_locked(const Var* vars, uint32_t n);

    mutable std::mutex mu_;

    // Process-unique serial (never reused, unlike addresses): keys the
    // per-thread front caches so a slot written by a destroyed store can
    // never satisfy a lookup for a newer one.
    const uint64_t serial_;

    const size_t max_entries_;  // entry cap, <= kMaxEntries

    // Arena for variable lists: chunked, append-only, stable addresses.
    static constexpr size_t kArenaChunk = 1u << 16;  // Vars per chunk
    std::vector<std::unique_ptr<Var[]>> arena_;
    size_t arena_used_ = kArenaChunk;  // forces a chunk on first intern
    size_t arena_bytes_ = 0;           // total allocated, under mu_

    std::vector<Entry*> blocks_;          // covers max_entries_, lazily filled
    std::atomic<uint32_t> count_{0};      // published entry count

    // content hash -> ids with that hash (collision chain), under mu_.
    std::unordered_multimap<uint64_t, MonoId> index_;

    // (lo(a) << 32 | hi(b)) -> product id, under mu_. Bounded: reset at
    // kMulMemoCap.
    std::unordered_map<uint64_t, MonoId> mul_memo_;
    std::atomic<size_t> memo_hits_{0};
    std::atomic<size_t> memo_misses_{0};

    std::vector<Var> scratch_;  // union/difference buffer, under mu_
};

}  // namespace bosphorus::anf
