#include "core/anf_system.h"

#include <algorithm>
#include <cassert>

namespace bosphorus::core {

AnfSystem::AnfSystem(std::vector<Polynomial> polynomials, size_t num_vars)
    : occ_(num_vars), states_(num_vars) {
    originals_ = polynomials;
    for (auto& p : polynomials) store(std::move(p));
    propagate();
}

VarState AnfSystem::resolve(Var v) const {
    bool flip = false;
    // Follow the replacement chain; chains are short because equate()
    // always re-points to a terminal variable, but stay safe regardless.
    Var cur = v;
    for (;;) {
        const VarState& st = states_[cur];
        switch (st.kind) {
            case VarState::Kind::kFree: {
                VarState out;
                out.kind = VarState::Kind::kReplaced;
                out.root = cur;
                out.flip = flip;
                if (cur == v && !flip) out.kind = VarState::Kind::kFree;
                return out;
            }
            case VarState::Kind::kFixed: {
                VarState out;
                out.kind = VarState::Kind::kFixed;
                out.value = st.value ^ flip;
                return out;
            }
            case VarState::Kind::kReplaced:
                flip ^= st.flip;
                cur = st.root;
                break;
        }
    }
}

std::optional<Polynomial> AnfSystem::normalise(const Polynomial& p) {
    subst_.clear();
    for (const Monomial& m : p.monomials()) {
        for (Var v : m.vars()) {
            if (states_[v].kind == VarState::Kind::kFree || subst_.find(v))
                continue;
            const VarState st = resolve(v);
            if (st.kind == VarState::Kind::kFixed) {
                subst_.set(v, Polynomial::constant(st.value));
            } else if (st.flip) {
                subst_.set(v, Polynomial::from_sorted(
                                  {Monomial(), Monomial(st.root)}));
            } else {
                subst_.set(v, Polynomial::variable(st.root));
            }
        }
    }
    if (subst_.empty()) return std::nullopt;
    Polynomial out = p;
    out.apply(subst_);
    return out;
}

bool AnfSystem::store(Polynomial p) {
    if (p.is_zero()) return false;
    if (!dedup_.insert(p).second) return false;
    const uint32_t idx = static_cast<uint32_t>(polys_.size());
    for (Var v : p.variables()) occ_[v].push_back(idx);
    polys_.push_back(std::move(p));
    stored_at_.push_back(state_version_);
    removed_.push_back(false);
    queued_.push_back(true);
    queue_.push_back(idx);
    return true;
}

bool AnfSystem::add_fact(const Polynomial& p) {
    if (!ok_) return false;
    std::optional<Polynomial> n = normalise(p);
    if (!store(n ? std::move(*n) : p)) return false;
    propagate();
    return true;
}

bool AnfSystem::add_original(const Polynomial& p) {
    originals_.push_back(p);
    return add_fact(p);
}

void AnfSystem::mark_removed(size_t i) {
    removed_[i] = true;
    if (trail_on_) trail_removed_.push_back(static_cast<uint32_t>(i));
}

void AnfSystem::mark_unstored(size_t i) {
    dedup_.erase(polys_[i]);
    if (trail_on_) trail_unstored_.push_back(static_cast<uint32_t>(i));
}

void AnfSystem::clear_trail() {
    trail_on_ = false;
    trail_states_.clear();
    trail_removed_.clear();
    trail_unstored_.clear();
}

AnfSystem::Snapshot AnfSystem::snapshot() {
    trail_on_ = true;
    Snapshot s;
    s.n_polys = polys_.size();
    s.n_originals = originals_.size();
    s.n_trail_states = trail_states_.size();
    s.n_trail_removed = trail_removed_.size();
    s.n_trail_unstored = trail_unstored_.size();
    s.ok = ok_;
    return s;
}

void AnfSystem::restore(const Snapshot& snap) {
    // Undo the dedup inserts of slots created after the snapshot, then
    // replay the dedup erases that hit surviving slots. Slot contents are
    // immutable, so polys_[i] still holds exactly what was erased.
    for (size_t i = snap.n_polys; i < polys_.size(); ++i)
        dedup_.erase(polys_[i]);
    for (size_t t = snap.n_trail_unstored; t < trail_unstored_.size(); ++t) {
        const uint32_t idx = trail_unstored_[t];
        if (idx < snap.n_polys) dedup_.insert(polys_[idx]);
    }
    // Un-remove surviving slots retired after the snapshot.
    for (size_t t = snap.n_trail_removed; t < trail_removed_.size(); ++t) {
        const uint32_t idx = trail_removed_[t];
        if (idx < snap.n_polys) removed_[idx] = false;
    }
    // Free every variable fixed or replaced after the snapshot (a var's
    // state is written at most once, always leaving kFree).
    for (size_t t = snap.n_trail_states; t < trail_states_.size(); ++t)
        states_[trail_states_[t]] = VarState{};
    // Drop the truncated slots from the occurrence lists (their indices
    // were appended in increasing order, so they sit at the tails).
    for (size_t i = snap.n_polys; i < polys_.size(); ++i) {
        for (Var v : polys_[i].variables()) {
            auto& occ = occ_[v];
            while (!occ.empty() && occ.back() >= snap.n_polys) occ.pop_back();
        }
    }
    polys_.resize(snap.n_polys);
    stored_at_.resize(snap.n_polys);
    removed_.resize(snap.n_polys);
    queued_.assign(snap.n_polys, false);
    queue_.clear();
    originals_.resize(snap.n_originals);
    trail_states_.resize(snap.n_trail_states);
    trail_removed_.resize(snap.n_trail_removed);
    trail_unstored_.resize(snap.n_trail_unstored);
    ok_ = snap.ok;
}

void AnfSystem::touch(Var v) {
    for (uint32_t idx : occ_[v]) {
        if (!removed_[idx] && !queued_[idx]) {
            queued_[idx] = true;
            queue_.push_back(idx);
        }
    }
}

bool AnfSystem::assign(Var v, bool value) {
    const VarState st = resolve(v);
    if (st.kind == VarState::Kind::kFixed) {
        if (st.value != value) ok_ = false;
        return ok_;
    }
    const Var root = (st.kind == VarState::Kind::kFree) ? v : st.root;
    const bool root_value = value ^ st.flip;
    if (trail_on_) trail_states_.push_back(root);
    ++state_version_;
    states_[root].kind = VarState::Kind::kFixed;
    states_[root].value = root_value;
    touch(root);
    return true;
}

bool AnfSystem::equate(Var a, Var b, bool flip) {
    const VarState sa = resolve(a);
    const VarState sb = resolve(b);
    // Fixed cases degrade to assignments.
    if (sa.kind == VarState::Kind::kFixed && sb.kind == VarState::Kind::kFixed) {
        if ((sa.value ^ sb.value) != flip) ok_ = false;
        return ok_;
    }
    if (sa.kind == VarState::Kind::kFixed)
        return assign(b, sa.value ^ flip);
    if (sb.kind == VarState::Kind::kFixed)
        return assign(a, sb.value ^ flip);

    const Var ra = (sa.kind == VarState::Kind::kFree) ? a : sa.root;
    const Var rb = (sb.kind == VarState::Kind::kFree) ? b : sb.root;
    const bool rel = flip ^ sa.flip ^ sb.flip;  // ra == rb ^ rel
    if (ra == rb) {
        if (rel) ok_ = false;  // x == !x
        return ok_;
    }
    // Replace the variable with the shorter occurrence list.
    const Var loser = (occ_[ra].size() <= occ_[rb].size()) ? ra : rb;
    const Var keeper = (loser == ra) ? rb : ra;
    if (trail_on_) trail_states_.push_back(loser);
    ++state_version_;
    states_[loser].kind = VarState::Kind::kReplaced;
    states_[loser].root = keeper;
    states_[loser].flip = rel;
    touch(loser);
    return true;
}

bool AnfSystem::analyse(size_t i) {
    const Polynomial& p = polys_[i];
    if (p.is_zero()) {
        mark_removed(i);
        return true;
    }
    if (p.is_one()) {
        ok_ = false;
        return false;
    }
    const size_t nm = p.size();
    const bool has_one = p.has_constant_term();

    if (nm == 1 && p.degree() == 1) {
        // p = x: x := 0.
        mark_removed(i);
        return assign(p.monomials()[0].vars()[0], false);
    }
    if (nm == 2 && has_one && p.degree() == 1) {
        // p = x + 1: x := 1.
        mark_removed(i);
        return assign(p.monomials()[1].vars()[0], true);
    }
    if (nm == 2 && has_one && p.degree() >= 2) {
        // p = x1...xk + 1: every variable := 1 (monomial fact).
        mark_removed(i);
        for (Var v : p.monomials()[1].vars()) {
            if (!assign(v, true)) return false;
        }
        return true;
    }
    if (nm == 2 && !has_one && p.degree() == 1) {
        // p = x + y: x == y.
        mark_removed(i);
        return equate(p.monomials()[0].vars()[0], p.monomials()[1].vars()[0],
                      false);
    }
    if (nm == 3 && has_one && p.degree() == 1) {
        // p = x + y + 1: x == !y.
        mark_removed(i);
        return equate(p.monomials()[1].vars()[0], p.monomials()[2].vars()[0],
                      true);
    }
    return true;
}

bool AnfSystem::propagate() {
    while (ok_ && !queue_.empty()) {
        const uint32_t i = queue_.back();
        queue_.pop_back();
        queued_[i] = false;
        if (removed_[i]) continue;
        // Normalise first (states may have changed since storing)...
        std::optional<Polynomial> n;
        if (stored_at_[i] != state_version_) n = normalise(polys_[i]);
        if (n) {
            mark_unstored(i);
            mark_removed(i);
            store(std::move(*n));
            continue;  // the fresh copy is queued
        }
        // ...then analyse for facts.
        if (!analyse(i)) break;
    }
    return ok_;
}

std::vector<Polynomial> AnfSystem::equations() const {
    std::vector<Polynomial> out;
    for (size_t i = 0; i < polys_.size(); ++i) {
        if (!removed_[i]) out.push_back(polys_[i]);
    }
    return out;
}

std::vector<Polynomial> AnfSystem::to_polynomials() const {
    std::vector<Polynomial> out = equations();
    for (Var v = 0; v < states_.size(); ++v) {
        const VarState& st = states_[v];
        if (st.kind == VarState::Kind::kFixed) {
            // x (+1): x = st.value.
            Polynomial p = Polynomial::variable(v);
            if (st.value) p += Polynomial::constant(true);
            out.push_back(std::move(p));
        } else if (st.kind == VarState::Kind::kReplaced) {
            const VarState r = resolve(v);
            if (r.kind == VarState::Kind::kFixed) {
                Polynomial p = Polynomial::variable(v);
                if (r.value) p += Polynomial::constant(true);
                out.push_back(std::move(p));
            } else {
                Polynomial p =
                    Polynomial::variable(v) + Polynomial::variable(r.root);
                if (r.flip) p += Polynomial::constant(true);
                out.push_back(std::move(p));
            }
        }
    }
    return out;
}

size_t AnfSystem::num_fixed() const {
    size_t n = 0;
    for (Var v = 0; v < states_.size(); ++v) {
        if (resolve(v).kind == VarState::Kind::kFixed) ++n;
    }
    return n;
}

size_t AnfSystem::num_replaced() const {
    size_t n = 0;
    for (Var v = 0; v < states_.size(); ++v) {
        const VarState st = resolve(v);
        if (st.kind == VarState::Kind::kReplaced && (st.root != v || st.flip))
            ++n;
    }
    return n;
}

bool AnfSystem::check_solution(const std::vector<bool>& assignment) const {
    for (const auto& p : originals_) {
        if (p.evaluate(assignment)) return false;  // p must equal 0
    }
    return true;
}

std::vector<bool> AnfSystem::extend_assignment(
    const std::vector<bool>& free_values) const {
    std::vector<bool> full(states_.size(), false);
    for (Var v = 0; v < states_.size(); ++v) {
        const VarState st = resolve(v);
        if (st.kind == VarState::Kind::kFixed) {
            full[v] = st.value;
        } else if (st.kind == VarState::Kind::kFree) {
            full[v] = v < free_values.size() ? free_values[v] : false;
        } else {
            const bool root_val =
                st.root < free_values.size() ? free_values[st.root] : false;
            full[v] = root_val ^ st.flip;
        }
    }
    return full;
}

}  // namespace bosphorus::core
