// Monomials over GF(2): products of distinct Boolean variables.
//
// Because x^2 = x in the Boolean ring GF(2)[x_1..x_n]/(x_i^2 + x_i), a
// monomial is fully described by the *set* of variables it contains; the
// empty set is the constant monomial 1.
//
// Representation: a Monomial is a 4-byte handle (MonoId) into the
// process-wide hash-consed MonomialStore (anf/monomial_store.h). Each
// distinct variable set is stored exactly once, so equality is an integer
// compare, hash() is a cached lookup, degree() is a cached byte, and
// products are memoised -- a vector<Monomial> is literally a vector of
// dense 32-bit ids, which is what makes the Polynomial algebra and the
// XL/ElimLin/Groebner linearisation loops allocation-free per term.
//
// Id values depend on interning history and never leak into observable
// output: ordering (operator<) and hashing are functions of the variable
// set alone, so any two processes order and hash a monomial alike.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "anf/monomial_store.h"

namespace bosphorus::anf {

class Monomial {
public:
    /// The constant monomial 1.
    Monomial() = default;

    /// Single-variable monomial.
    explicit Monomial(Var v)
        : id_(MonomialStore::global().intern_var(v)) {}

    /// Monomial from a variable set; sorts and deduplicates (x^2 = x).
    explicit Monomial(std::vector<Var> vars)
        : id_(MonomialStore::global().intern(std::move(vars))) {}

    /// Wrap an id previously obtained from the global store.
    static Monomial from_id(MonoId id) {
        Monomial m;
        m.id_ = id;
        return m;
    }

    MonoId id() const { return id_; }

    size_t degree() const { return store().degree(id_); }
    bool is_one() const { return id_ == kMonoOne; }

    /// The sorted variable list (a view into the store arena; valid for
    /// the lifetime of the process).
    VarSpan vars() const { return store().vars(id_); }

    bool contains(Var v) const { return store().contains(id_, v); }

    /// Product of two monomials = union of their variable sets (memoised).
    Monomial operator*(const Monomial& o) const {
        return from_id(store().mul(id_, o.id_));
    }

    /// True iff this monomial divides `o` (variable subset).
    bool divides(const Monomial& o) const {
        return store().divides(id_, o.id_);
    }

    /// The quotient monomial with variable v removed; v must be present.
    Monomial without(Var v) const {
        return from_id(store().without(id_, v));
    }

    /// Evaluate under a full assignment (indexed by variable).
    bool evaluate(const std::vector<bool>& assignment) const {
        for (Var v : vars()) {
            if (!assignment[v]) return false;
        }
        return true;
    }

    /// Hash-consed: same variable set <=> same id.
    bool operator==(const Monomial& o) const { return id_ == o.id_; }
    bool operator!=(const Monomial& o) const { return id_ != o.id_; }

    /// Degree-lexicographic order: lower degree first, then lexicographic
    /// on the variable lists. This is the canonical term order everywhere
    /// in the library (XL expands "in ascending degree order" under this
    /// order). Content-based, so independent of interning history.
    bool operator<(const Monomial& o) const {
        return store().less(id_, o.id_);
    }

    /// Content hash of the variable set, cached in the store (the chain
    /// is documented at MonomialStore::hash).
    size_t hash() const { return store().hash(id_); }

private:
    static MonomialStore& store() { return MonomialStore::global(); }

    MonoId id_ = kMonoOne;
};

// A vector<Monomial> must really be a packed vector of 32-bit ids -- the
// layout the linearisation and CNF paths rely on.
static_assert(sizeof(Monomial) == sizeof(MonoId));
static_assert(std::is_trivially_copyable_v<Monomial>);

struct MonomialHash {
    size_t operator()(const Monomial& m) const { return m.hash(); }
};

}  // namespace bosphorus::anf
