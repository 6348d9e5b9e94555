// Boolean polynomials: XOR-sums of monomials over GF(2).
//
// A polynomial is kept in canonical form: monomials sorted in
// degree-lexicographic order with no duplicates (addition is XOR, so a
// monomial appearing twice cancels). Following the paper's convention, a
// Polynomial denotes the polynomial *equation* p = 0 when it sits in an
// ANF system.
//
// Since Monomial is a 4-byte interned id (anf/monomial.h), the monomial
// list is a packed sorted vector of MonoIds: copies are memcpys, equality
// is an id-vector compare, and operator+= merges in place without
// allocating per term.
//
// Substitution has one implementation, Polynomial::apply: ElimLin's
// best := rest and ANF propagation's normalisation (every fixed or
// replaced variable at once) both go through it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anf/monomial.h"

namespace bosphorus::anf {

class Substitution;
struct VarDelta;

class Polynomial {
public:
    /// The zero polynomial.
    Polynomial() = default;

    /// Polynomial with a single monomial.
    explicit Polynomial(Monomial m) : monos_{std::move(m)} {}

    /// From a list of monomials; canonicalises (sorts, cancels pairs).
    explicit Polynomial(std::vector<Monomial> monomials);

    /// From monomials already in canonical order (strictly ascending
    /// deg-lex, so no duplicates): no sort, no cancellation pass. Debug
    /// builds assert the order.
    static Polynomial from_sorted(std::vector<Monomial> monomials);

    /// The constant polynomial 0 or 1.
    static Polynomial constant(bool one) {
        return one ? Polynomial(Monomial{}) : Polynomial();
    }

    static Polynomial variable(Var v) { return Polynomial(Monomial{v}); }

    bool is_zero() const { return monos_.empty(); }
    bool is_one() const { return monos_.size() == 1 && monos_[0].is_one(); }
    bool is_constant() const { return monos_.empty() || is_one(); }

    /// Largest monomial degree (0 for constants; 0 for the zero polynomial).
    size_t degree() const;

    /// True iff every monomial has degree <= 1.
    bool is_linear() const { return degree() <= 1; }

    /// The number of monomials (including the constant term if present).
    size_t size() const { return monos_.size(); }

    const std::vector<Monomial>& monomials() const { return monos_; }

    /// Leading monomial under deg-lex (the last in sorted order).
    /// Precondition: !is_zero().
    const Monomial& leading_monomial() const { return monos_.back(); }

    /// True iff the constant monomial 1 appears.
    bool has_constant_term() const {
        return !monos_.empty() && monos_.front().is_one();
    }

    /// Distinct variables appearing in the polynomial, sorted. One pass
    /// over the terms that marks each variable in a per-thread stamp
    /// table; only the distinct variables are sorted.
    std::vector<Var> variables() const;

    /// One more than the largest variable mentioned (0 for constants):
    /// the variable-space size the polynomial needs.
    size_t var_bound() const;

    bool contains_var(Var v) const;

    /// GF(2) addition = symmetric difference of monomial sets.
    Polynomial operator+(const Polynomial& o) const;

    /// In-place sorted merge with pair cancellation: one resize, no
    /// temporary polynomial (the old `*this = *this + o` copied the whole
    /// term list per call -- measurable in the ElimLin substitution loop).
    Polynomial& operator+=(const Polynomial& o);

    Polynomial operator*(const Monomial& m) const;
    Polynomial operator*(const Polynomial& o) const;

    bool operator==(const Polynomial& o) const { return monos_ == o.monos_; }
    bool operator!=(const Polynomial& o) const { return monos_ != o.monos_; }

    /// Deterministic total order (lexicographic on the monomial lists) so
    /// polynomial systems can be sorted/deduplicated canonically.
    bool operator<(const Polynomial& o) const { return monos_ < o.monos_; }

    /// Evaluate under a full assignment.
    bool evaluate(const std::vector<bool>& assignment) const;

    /// The substitution kernel: rewrite in place under `s`, in one pass
    /// over the terms. A term that mentions no mapped variable is kept as
    /// it is (a subsequence of a canonical list is canonical). Every other
    /// term m becomes (m without its mapped variables) times the product
    /// of their images; those images are gathered, sorted (one run per
    /// term, then merged), pair-cancelled and merged back with the kept
    /// terms. Returns false, leaving the
    /// polynomial untouched, when no term mentions a mapped variable.
    /// If `delta` is non-null it receives the variables the rewrite
    /// removed and added (both empty when nothing was rewritten).
    bool apply(const Substitution& s, VarDelta* delta = nullptr);

    /// Substitute variable v by polynomial `by`: a single-entry apply().
    Polynomial substitute(Var v, const Polynomial& by) const;

    size_t hash() const {
        size_t h = 0xCBF29CE484222325ULL;
        for (const auto& m : monos_) h = (h ^ m.hash()) * 0x100000001B3ULL;
        return h;
    }

    /// Render as e.g. "x1*x2 + x3 + 1" using 1-based variable names.
    std::string to_string() const;

private:
    void canonicalise();

    std::vector<Monomial> monos_;
};

/// A simultaneous substitution x_v := image_v over a set of variables: the
/// map Polynomial::apply rewrites under. Images are not substituted again,
/// so an image may mention any variable. Lookups index a table by
/// variable id; clear() costs only the entries set since the last clear.
class Substitution {
public:
    /// Map v to `image`, replacing an earlier image of v.
    void set(Var v, Polynomial image);

    /// Forget every entry.
    void clear();

    bool empty() const { return mapped_.empty(); }

    /// The image of v, or nullptr when v is not mapped.
    const Polynomial* find(Var v) const {
        return v < slot_.size() && slot_[v] != kNone ? &images_[slot_[v]]
                                                     : nullptr;
    }

private:
    static constexpr uint32_t kNone = UINT32_MAX;

    std::vector<uint32_t> slot_;      // var -> index into images_
    std::vector<Var> mapped_;         // the variables set, in set() order
    std::vector<Polynomial> images_;
};

/// What Polynomial::apply did to a polynomial's variable set: the
/// variables it no longer mentions and the ones it newly mentions, each
/// sorted ascending.
struct VarDelta {
    std::vector<Var> removed;
    std::vector<Var> added;
};

struct PolynomialHash {
    size_t operator()(const Polynomial& p) const { return p.hash(); }
};

/// Distinct variables of a whole system, sorted: the stamp pass of
/// Polynomial::variables() over every polynomial.
std::vector<Var> variables(const std::vector<Polynomial>& polys);

}  // namespace bosphorus::anf
