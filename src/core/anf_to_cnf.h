// ANF -> CNF conversion (paper section III-C).
//
// Every ANF variable maps to the CNF variable with the same index.
// Polynomials are first cut into chunks of at most L monomials ("XOR-cutting
// length") by introducing chaining auxiliary variables; each chunk is then
// converted either
//   (1) via the Karnaugh-map path (<= K distinct variables): enumerate the
//       chunk's truth table and emit a minimal clause cover (our
//       Quine-McCluskey minimiser substitutes for ESPRESSO; covers of
//       tables over <= 8 variables come from a process-wide memo), or
//   (2) via the Tseitin path: each degree >= 2 monomial gets an auxiliary
//       AND variable (kept in a bidirectional monomial <-> variable map),
//       and the resulting XOR of literals is emitted either as 2^(l-1)
//       plain clauses or as a native XOR constraint for the CMS-like solver.
//
// Auxiliary variables (both monomial and cutting) never participate in
// learnt facts; everything >= num_anf_vars is auxiliary.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "anf/polynomial.h"
#include "minimize/quine_mccluskey.h"
#include "sat/types.h"

namespace bosphorus::core {

struct Anf2CnfConfig {
    unsigned karnaugh_k = 8;  ///< K: max vars for the Karnaugh-map path
    unsigned xor_cut = 5;     ///< L: max monomials per chunk
    bool native_xor = false;  ///< emit XOR chunks as native constraints

    /// Largest K honoured: a chunk's truth table has 2^K rows.
    static constexpr unsigned kMaxKarnaughK = 20;
    /// XOR-cut bounds. A chunk needs room for a monomial plus both chain
    /// auxiliaries; plain CNF spells an L-literal XOR as 2^(L-1) clauses.
    static constexpr unsigned kMinXorCut = 3;
    static constexpr unsigned kMaxXorCut = 24;

    /// Empty if the converter can honour this config, else why not.
    std::string check() const;
};

/// Process-wide memo of Karnaugh covers. minimize_sop is a pure function
/// of (k, truth table), and crypto systems repeat a few S-box tables many
/// times over, so each distinct cover of a table over <= kMaxK variables
/// costs one minimiser call until the memo fills; a full memo is cleared
/// and refills. Wider tables go straight to the minimiser. Thread-safe:
/// every conversion in the process shares `shared()`.
class KarnaughMemo {
public:
    static constexpr unsigned kMaxK = 8;  ///< 2^8-row tables fit the key
    static constexpr size_t kDefaultCapacity = 4096;

    explicit KarnaughMemo(size_t capacity = kDefaultCapacity)
        : capacity_(capacity) {}

    /// The instance anf_to_cnf uses unless handed another.
    static KarnaughMemo& shared();

    /// minimize::minimize_sop(on_set, k), memoised.
    std::vector<minimize::Implicant> cover(const std::vector<bool>& on_set,
                                           unsigned k);

    /// Covers held now (0 right after a clear).
    size_t size() const;

private:
    struct Key {
        std::array<uint64_t, 4> table{};
        unsigned k = 0;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        size_t operator()(const Key& key) const;
    };

    const size_t capacity_;
    mutable std::mutex mu_;
    std::unordered_map<Key, std::vector<minimize::Implicant>, KeyHash> covers_;
};

struct Anf2CnfResult {
    sat::Cnf cnf;
    size_t num_anf_vars = 0;  ///< CNF vars < this are original ANF vars

    /// Bidirectional monomial <-> auxiliary-variable map.
    std::unordered_map<anf::Monomial, sat::Var, anf::MonomialHash> var_of_mono;
    std::vector<anf::Monomial> mono_of_var;  // indexed by (var - num_anf_vars);
                                             // empty monomial = cutting aux

    /// Conversion statistics (for the Fig. 2 comparison).
    size_t karnaugh_polys = 0;
    size_t tseitin_polys = 0;
    size_t cut_chunks = 0;
};

/// Convert a polynomial system (each polynomial an equation p = 0) to CNF.
/// Throws std::invalid_argument if `cfg` fails check(). Karnaugh covers
/// come from `memo`; the output does not depend on which memo, or on what
/// it already holds.
Anf2CnfResult anf_to_cnf(const std::vector<anf::Polynomial>& polys,
                         size_t num_vars, const Anf2CnfConfig& cfg = {},
                         KarnaughMemo& memo = KarnaughMemo::shared());

}  // namespace bosphorus::core
