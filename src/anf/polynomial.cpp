#include "anf/polynomial.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bosphorus::anf {

namespace {

// A monomial with its cached deg-lex order key, so sorts and merges
// compare keys and touch the store only on a tie (see order_key()).
using Keyed = std::pair<uint64_t, MonoId>;

Keyed keyed(const MonomialStore& store, MonoId id) {
    return {store.order_key(id), id};
}

bool keyed_less(const MonomialStore& store, const Keyed& a, const Keyed& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second != b.second && store.less(a.second, b.second);
}

// Sort v into deg-lex order, then cancel equal pairs in place: over
// GF(2), m + m = 0. `runs` holds the start of each run of v plus v.size()
// at the end; the kernel's runs (the images of one term) usually arrive
// sorted, so each run is sorted only if it is not, and the runs are then
// merged pairwise. `tmp` is a buffer.
void sort_and_cancel(const MonomialStore& store, std::vector<Keyed>& v,
                     std::vector<size_t>& runs, std::vector<Keyed>& tmp) {
    auto less = [&store](const Keyed& a, const Keyed& b) {
        return keyed_less(store, a, b);
    };
    for (size_t r = 0; r + 1 < runs.size(); ++r) {
        const auto first = v.begin() + runs[r], last = v.begin() + runs[r + 1];
        if (!std::is_sorted(first, last, less)) std::sort(first, last, less);
    }
    while (runs.size() > 2) {
        tmp.resize(v.size());
        size_t out = 1;
        for (size_t r = 0; r + 1 < runs.size(); r += 2) {
            const size_t lo = runs[r], mid = runs[r + 1];
            const size_t hi = r + 2 < runs.size() ? runs[r + 2] : mid;
            std::merge(v.begin() + lo, v.begin() + mid, v.begin() + mid,
                       v.begin() + hi, tmp.begin() + lo, less);
            runs[out++] = hi;
        }
        runs.resize(out);
        v.swap(tmp);
    }
    size_t w = 0;
    for (size_t i = 0; i < v.size();) {
        size_t j = i + 1;
        while (j < v.size() && v[j].second == v[i].second) ++j;
        if ((j - i) % 2 == 1) v[w++] = v[i];
        i = j;
    }
    v.resize(w);
}

// Per-thread scratch of the substitution kernel, canonicalisation and the
// variables() stamp pass. Nothing in it outlives one call (ids and marks
// are dead once the call returns), so unlike the store's front caches it
// needs no store key.
struct Scratch {
    // Variable-indexed tables. stamp[v] == epoch marks v as seen in this
    // call (and makes count[v] valid); dstamp[v] == epoch makes delta[v]
    // valid. Bumping the epoch clears every mark at once.
    std::vector<uint32_t> stamp, count, dstamp;
    std::vector<int32_t> delta;
    uint32_t epoch = 0;
    std::vector<Var> touched;  // variables with a delta in this call
    std::vector<Keyed> kept, images, tmp;
    std::vector<size_t> runs;  // image run starts, for sort_and_cancel
    std::vector<Monomial> cur, next;
    std::vector<const Polynomial*> factors;

    void fit(Var v) {
        if (v < stamp.size()) return;
        const size_t n = std::max<size_t>(size_t{v} + 1, 2 * stamp.size());
        stamp.resize(n, 0);
        count.resize(n, 0);
        dstamp.resize(n, 0);
        delta.resize(n, 0);
    }

    uint32_t next_epoch() {
        if (++epoch == 0) {  // wrapped: forget the old marks for real
            std::fill(stamp.begin(), stamp.end(), 0);
            std::fill(dstamp.begin(), dstamp.end(), 0);
            epoch = 1;
        }
        return epoch;
    }

    /// Append each variable of p not yet marked in this epoch to `out`.
    void mark(const Polynomial& p, std::vector<Var>& out) {
        for (const Monomial& m : p.monomials()) {
            for (Var v : m.vars()) {
                fit(v);
                if (stamp[v] != epoch) {
                    stamp[v] = epoch;
                    out.push_back(v);
                }
            }
        }
    }

    /// Count one more term containing v (before the rewrite).
    void count_before(Var v) {
        fit(v);
        if (stamp[v] != epoch) {
            stamp[v] = epoch;
            count[v] = 0;
        }
        ++count[v];
    }

    /// Terms containing each variable of `vars` change by d.
    void shift(VarSpan vars, int32_t d) {
        for (Var v : vars) {
            fit(v);
            if (dstamp[v] != epoch) {
                dstamp[v] = epoch;
                delta[v] = 0;
                touched.push_back(v);
            }
            delta[v] += d;
        }
    }
};

thread_local Scratch tl_scratch;

// Append the image of m under s to `out`: m without its mapped variables,
// times the product of their images (unreduced; the caller cancels).
void expand(const MonomialStore& store, Monomial m, const Substitution& s,
            Scratch& k, std::vector<Keyed>& out) {
    Monomial base = m;
    k.factors.clear();
    for (Var v : m.vars()) {
        if (const Polynomial* img = s.find(v)) {
            if (img->is_zero()) return;  // a zero factor kills the term
            base = base.without(v);
            k.factors.push_back(img);
        }
    }
    if (k.factors.size() == 1) {
        for (const Monomial& u : k.factors[0]->monomials())
            out.push_back(keyed(store, (base * u).id()));
        return;
    }
    k.cur.assign(1, base);
    for (const Polynomial* f : k.factors) {
        k.next.clear();
        for (const Monomial& t : k.cur)
            for (const Monomial& u : f->monomials()) k.next.push_back(t * u);
        k.cur.swap(k.next);
    }
    for (const Monomial& t : k.cur) out.push_back(keyed(store, t.id()));
}

}  // namespace

void Substitution::set(Var v, Polynomial image) {
    if (v >= slot_.size()) slot_.resize(size_t{v} + 1, kNone);
    if (slot_[v] != kNone) {
        images_[slot_[v]] = std::move(image);
        return;
    }
    slot_[v] = static_cast<uint32_t>(images_.size());
    mapped_.push_back(v);
    images_.push_back(std::move(image));
}

void Substitution::clear() {
    for (Var v : mapped_) slot_[v] = kNone;
    mapped_.clear();
    images_.clear();
}

Polynomial::Polynomial(std::vector<Monomial> monomials)
    : monos_(std::move(monomials)) {
    canonicalise();
}

Polynomial Polynomial::from_sorted(std::vector<Monomial> monomials) {
    assert(std::adjacent_find(monomials.begin(), monomials.end(),
                              [](const Monomial& a, const Monomial& b) {
                                  return !(a < b);
                              }) == monomials.end());
    Polynomial p;
    p.monos_ = std::move(monomials);
    return p;
}

void Polynomial::canonicalise() {
    const MonomialStore& store = MonomialStore::global();
    Scratch& k = tl_scratch;
    std::vector<Keyed>& v = k.images;
    v.clear();
    for (const Monomial& m : monos_) v.push_back(keyed(store, m.id()));
    k.runs.assign({0, v.size()});
    sort_and_cancel(store, v, k.runs, k.tmp);
    // A fresh, exact buffer: the caller's vector may carry push_back
    // slack, and canonical polynomials are often kept for long.
    std::vector<Monomial> out;
    out.reserve(v.size());
    for (const Keyed& t : v) out.push_back(Monomial::from_id(t.second));
    monos_ = std::move(out);
}

size_t Polynomial::degree() const {
    // Canonical order is deg-lex, so the last monomial has maximal degree.
    return monos_.empty() ? 0 : monos_.back().degree();
}

std::vector<Var> Polynomial::variables() const {
    std::vector<Var> vars;
    tl_scratch.next_epoch();
    tl_scratch.mark(*this, vars);
    std::sort(vars.begin(), vars.end());
    return vars;
}

std::vector<Var> variables(const std::vector<Polynomial>& polys) {
    std::vector<Var> vars;
    tl_scratch.next_epoch();
    for (const Polynomial& p : polys) tl_scratch.mark(p, vars);
    std::sort(vars.begin(), vars.end());
    return vars;
}

size_t Polynomial::var_bound() const {
    size_t bound = 0;
    for (const Monomial& m : monos_) {
        if (!m.is_one()) bound = std::max(bound, size_t{m.vars().back()} + 1);
    }
    return bound;
}

bool Polynomial::contains_var(Var v) const {
    for (const auto& m : monos_)
        if (m.contains(v)) return true;
    return false;
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
    // Merge two sorted monomial lists, cancelling equal pairs.
    Polynomial r;
    r.monos_.reserve(monos_.size() + o.monos_.size());
    size_t i = 0, j = 0;
    while (i < monos_.size() && j < o.monos_.size()) {
        if (monos_[i] == o.monos_[j]) {
            ++i;
            ++j;  // cancels
        } else if (monos_[i] < o.monos_[j]) {
            r.monos_.push_back(monos_[i++]);
        } else {
            r.monos_.push_back(o.monos_[j++]);
        }
    }
    r.monos_.insert(r.monos_.end(), monos_.begin() + i, monos_.end());
    r.monos_.insert(r.monos_.end(), o.monos_.begin() + j, o.monos_.end());
    return r;
}

Polynomial& Polynomial::operator+=(const Polynomial& o) {
    if (o.monos_.empty()) return *this;
    if (monos_.empty()) {
        monos_ = o.monos_;
        return *this;
    }
    // Shift the current terms to the tail of the grown buffer, then merge
    // them with o's terms back into the front, cancelling equal pairs.
    // The write cursor can never overrun the tail-read cursor: a write
    // from o implies o is not exhausted, which bounds the cursor strictly
    // below the next tail slot (Monomial is a trivially copyable id, so
    // the moves are raw 4-byte copies).
    const size_t n = monos_.size();
    const size_t m = o.monos_.size();
    monos_.resize(n + m);
    std::move_backward(monos_.begin(), monos_.begin() + n, monos_.end());
    size_t i = m;      // tail-read cursor over the shifted original terms
    size_t j = 0;      // read cursor over o
    size_t w = 0;      // write cursor
    while (i < n + m && j < m) {
        if (monos_[i] == o.monos_[j]) {
            ++i;
            ++j;  // cancels
        } else if (monos_[i] < o.monos_[j]) {
            monos_[w++] = monos_[i++];
        } else {
            monos_[w++] = o.monos_[j++];
        }
    }
    while (i < n + m) monos_[w++] = monos_[i++];
    while (j < m) monos_[w++] = o.monos_[j++];
    monos_.resize(w);
    return *this;
}

Polynomial Polynomial::operator*(const Monomial& m) const {
    std::vector<Monomial> prod;
    prod.reserve(monos_.size());
    for (const auto& mm : monos_) prod.push_back(mm * m);
    // Products can collide (e.g. (x1 + x1x2) * x2 = x1x2 + x1x2 = 0),
    // so re-canonicalise.
    return Polynomial(std::move(prod));
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
    std::vector<Monomial> prod;
    prod.reserve(monos_.size() * o.monos_.size());
    for (const auto& a : monos_)
        for (const auto& b : o.monos_) prod.push_back(a * b);
    return Polynomial(std::move(prod));
}

bool Polynomial::evaluate(const std::vector<bool>& assignment) const {
    bool acc = false;
    for (const auto& m : monos_) acc ^= m.evaluate(assignment);
    return acc;
}

bool Polynomial::apply(const Substitution& s, VarDelta* delta) {
    if (delta) {
        delta->removed.clear();
        delta->added.clear();
    }
    const MonomialStore& store = MonomialStore::global();
    auto mentions_mapped = [&](Monomial m) {
        for (Var v : store.vars(m.id()))
            if (s.find(v)) return true;
        return false;
    };
    const size_t n = monos_.size();
    size_t first = 0;
    while (first < n && !mentions_mapped(monos_[first])) ++first;
    if (first == n) return false;

    Scratch& k = tl_scratch;
    k.next_epoch();
    k.touched.clear();
    k.kept.clear();
    k.images.clear();
    k.runs.clear();
    // One pass: set the untouched terms aside, already in order, and
    // expand the rest. With a delta, count each variable's terms as they
    // were.
    for (size_t i = 0; i < n; ++i) {
        const Monomial m = monos_[i];
        const VarSpan vars = store.vars(m.id());
        if (delta)
            for (Var v : vars) k.count_before(v);
        const bool touched = i == first || (i > first && mentions_mapped(m));
        if (!touched) {
            k.kept.push_back(keyed(store, m.id()));
            continue;
        }
        k.runs.push_back(k.images.size());
        expand(store, m, s, k, k.images);
        if (delta) k.shift(vars, -1);
    }
    k.runs.push_back(k.images.size());
    sort_and_cancel(store, k.images, k.runs, k.tmp);
    if (delta)
        for (const Keyed& t : k.images) k.shift(store.vars(t.second), +1);

    // Merge the two sorted runs back, cancelling equal pairs; a cancelled
    // pair loses the kept term and the image counted above.
    monos_.clear();
    monos_.reserve(k.kept.size() + k.images.size());
    size_t i = 0, j = 0;
    while (i < k.kept.size() && j < k.images.size()) {
        const Keyed& a = k.kept[i];
        const Keyed& b = k.images[j];
        if (a.second == b.second) {
            if (delta) k.shift(store.vars(a.second), -2);
            ++i;
            ++j;
        } else if (keyed_less(store, a, b)) {
            monos_.push_back(Monomial::from_id(a.second));
            ++i;
        } else {
            monos_.push_back(Monomial::from_id(b.second));
            ++j;
        }
    }
    for (; i < k.kept.size(); ++i)
        monos_.push_back(Monomial::from_id(k.kept[i].second));
    for (; j < k.images.size(); ++j)
        monos_.push_back(Monomial::from_id(k.images[j].second));

    if (delta) {
        for (Var v : k.touched) {
            const int64_t before = k.stamp[v] == k.epoch ? k.count[v] : 0;
            const int64_t after = before + k.delta[v];
            if (before > 0 && after == 0) delta->removed.push_back(v);
            if (before == 0 && after > 0) delta->added.push_back(v);
        }
        std::sort(delta->removed.begin(), delta->removed.end());
        std::sort(delta->added.begin(), delta->added.end());
    }
    return true;
}

Polynomial Polynomial::substitute(Var v, const Polynomial& by) const {
    Substitution s;
    s.set(v, by);
    Polynomial out = *this;
    out.apply(s);
    return out;
}

std::string Polynomial::to_string() const {
    if (monos_.empty()) return "0";
    std::string s;
    // Print highest degree first, which reads naturally (x1*x2 + x3 + 1).
    for (auto it = monos_.rbegin(); it != monos_.rend(); ++it) {
        if (!s.empty()) s += " + ";
        if (it->is_one()) {
            s += "1";
        } else {
            bool first = true;
            for (Var v : it->vars()) {
                if (!first) s += "*";
                s += "x" + std::to_string(v + 1);
                first = false;
            }
        }
    }
    return s;
}

}  // namespace bosphorus::anf
