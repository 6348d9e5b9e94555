// SHA-256 (FIPS 180-4) -- reference compression function and ANF encoder
// for the paper's weakened Bitcoin nonce-finding benchmark (appendix C).
//
// Setup (paper Fig. 5): a 512-bit message block whose first 415 bits are
// randomly fixed, the next 32 bits are a free nonce, then SHA padding
// ('1' bit and the 64-bit length 448). The challenge: choose the nonce so
// the hash's first k bits are zero.
//
// The ANF encoding follows the standard algebraic treatment (as produced
// by the cgen tool the paper uses): XOR/rotate operations stay linear;
// Ch, Maj and every adder sum/carry bit get fresh variables with quadratic
// defining equations (a ripple-carry adder's carry is a majority function).
// The compression function is round-parameterised so the benchmark harness
// can run a laptop-scale weakened variant; the instance generator also
// brute-forces a witness nonce so tests can validate the encoding.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "anf/polynomial.h"
#include "util/rng.h"

namespace bosphorus::crypto {

/// Reference (reduced-round) single-block SHA-256: compress `block`
/// (16 big-endian words) into the 8-word digest, running `rounds` of the
/// 64-round compression loop.
std::array<uint32_t, 8> sha256_compress(const std::array<uint32_t, 16>& block,
                                        unsigned rounds = 64);

struct Sha256Instance {
    std::vector<anf::Polynomial> polys;
    size_t num_vars = 0;
    size_t nonce_base = 0;  ///< nonce bits are vars [nonce_base, +32)

    bool has_witness = false;
    std::vector<bool> witness;  ///< full satisfying assignment if found
    uint32_t nonce = 0;         ///< the witnessed nonce value

    unsigned k = 0;
    unsigned rounds = 0;  ///< rounds actually encoded (after the clamp)
    std::array<uint32_t, 16> block{};  ///< witnessed message block

    /// The nonce an assignment of this instance's variables holds.
    uint32_t nonce_of(const std::vector<bool>& assignment) const;
    /// Digest of `block` with `nonce` spliced in, over `rounds` rounds.
    std::array<uint32_t, 8> digest(uint32_t nonce) const;
    /// The re-check of a found nonce: does its digest start with k zeros?
    bool meets_target(uint32_t nonce) const;
};

/// Build a weakened Bitcoin nonce-finding instance: first `k` output bits
/// must be zero; the compression runs `rounds` rounds (clamped to >= 14 so
/// that the nonce words W12/W13 actually enter the computation). If
/// `ensure_satisfiable` the random prefix is re-drawn until a witness nonce
/// exists (for k <= 24 this practically always succeeds on the first try).
Sha256Instance encode_bitcoin_nonce(unsigned k, unsigned rounds, Rng& rng,
                                    bool ensure_satisfiable = true);

}  // namespace bosphorus::crypto
