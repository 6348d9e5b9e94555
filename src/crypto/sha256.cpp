#include "crypto/sha256.h"

#include <cassert>

namespace bosphorus::crypto {

using anf::Polynomial;
using anf::Var;

namespace {

constexpr std::array<uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<uint32_t, 8> kIV = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};

uint32_t rotr(uint32_t v, unsigned s) { return (v >> s) | (v << (32 - s)); }

uint32_t big_sigma0(uint32_t a) {
    return rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
}
uint32_t big_sigma1(uint32_t e) {
    return rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
}
uint32_t small_sigma0(uint32_t w) {
    return rotr(w, 7) ^ rotr(w, 18) ^ (w >> 3);
}
uint32_t small_sigma1(uint32_t w) {
    return rotr(w, 17) ^ rotr(w, 19) ^ (w >> 10);
}

}  // namespace

std::array<uint32_t, 8> sha256_compress(const std::array<uint32_t, 16>& block,
                                        unsigned rounds) {
    std::array<uint32_t, 64> w{};
    for (unsigned t = 0; t < 16; ++t) w[t] = block[t];
    for (unsigned t = 16; t < rounds; ++t) {
        w[t] = small_sigma1(w[t - 2]) + w[t - 7] + small_sigma0(w[t - 15]) +
               w[t - 16];
    }
    uint32_t a = kIV[0], b = kIV[1], c = kIV[2], d = kIV[3];
    uint32_t e = kIV[4], f = kIV[5], g = kIV[6], h = kIV[7];
    for (unsigned t = 0; t < rounds; ++t) {
        const uint32_t ch = (e & f) ^ (~e & g);
        const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const uint32_t t1 = h + big_sigma1(e) + ch + kK[t] + w[t];
        const uint32_t t2 = big_sigma0(a) + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    return {kIV[0] + a, kIV[1] + b, kIV[2] + c, kIV[3] + d,
            kIV[4] + e, kIV[5] + f, kIV[6] + g, kIV[7] + h};
}

namespace {

/// A 32-bit word tracked both symbolically (one polynomial per bit, LSB at
/// index 0) and concretely (for the witness).
struct SymWord {
    std::array<Polynomial, 32> bits;
    uint32_t value = 0;
};

/// Symbolic circuit builder: fresh variables carry witness values; every
/// nonlinear output (AND, Ch, Maj, adder carries) and every adder sum is
/// materialised as a fresh variable with a quadratic defining equation.
class Builder {
public:
    std::vector<Polynomial> polys;
    size_t num_vars = 0;
    std::vector<bool> witness;

    Polynomial fresh(bool value) {
        const Var v = static_cast<Var>(num_vars++);
        witness.push_back(value);
        return Polynomial::variable(v);
    }

    void require_zero(Polynomial p) {
        if (!p.is_zero()) polys.push_back(std::move(p));
    }

    /// t := expr (fresh variable unless the expression is trivial, i.e. a
    /// constant, a variable, or a negated variable). Anything nonlinear is
    /// always materialised so downstream products stay quadratic.
    Polynomial define(const Polynomial& expr, bool value) {
        if (expr.degree() <= 1 && expr.size() <= 2) return expr;
        Polynomial t = fresh(value);
        require_zero(t + expr);
        return t;
    }

    SymWord const_word(uint32_t v) {
        SymWord w;
        w.value = v;
        for (unsigned b = 0; b < 32; ++b)
            w.bits[b] = Polynomial::constant((v >> b) & 1);
        return w;
    }

    SymWord var_word(uint32_t value) {
        SymWord w;
        w.value = value;
        for (unsigned b = 0; b < 32; ++b) w.bits[b] = fresh((value >> b) & 1);
        return w;
    }

    SymWord xor3(const SymWord& a, const SymWord& b, const SymWord& c) {
        SymWord out;
        out.value = a.value ^ b.value ^ c.value;
        for (unsigned i = 0; i < 32; ++i)
            out.bits[i] = a.bits[i] + b.bits[i] + c.bits[i];
        return out;
    }

    SymWord rotr_word(const SymWord& a, unsigned s) {
        SymWord out;
        out.value = rotr(a.value, s);
        for (unsigned i = 0; i < 32; ++i) out.bits[i] = a.bits[(i + s) % 32];
        return out;
    }

    SymWord shr_word(const SymWord& a, unsigned s) {
        SymWord out;
        out.value = a.value >> s;
        for (unsigned i = 0; i < 32; ++i)
            out.bits[i] = (i + s < 32) ? a.bits[i + s]
                                       : Polynomial::constant(false);
        return out;
    }

    /// Ch(e,f,g) = ef ^ (~e)g = ef + eg + g, one fresh var per bit.
    SymWord ch(const SymWord& e, const SymWord& f, const SymWord& g) {
        SymWord out;
        out.value = (e.value & f.value) ^ (~e.value & g.value);
        for (unsigned i = 0; i < 32; ++i) {
            const Polynomial expr =
                e.bits[i] * f.bits[i] + e.bits[i] * g.bits[i] + g.bits[i];
            out.bits[i] = define(expr, (out.value >> i) & 1);
        }
        return out;
    }

    /// Maj(a,b,c) = ab + ac + bc, one fresh var per bit.
    SymWord maj(const SymWord& a, const SymWord& b, const SymWord& c) {
        SymWord out;
        out.value =
            (a.value & b.value) ^ (a.value & c.value) ^ (b.value & c.value);
        for (unsigned i = 0; i < 32; ++i) {
            const Polynomial expr = a.bits[i] * b.bits[i] +
                                    a.bits[i] * c.bits[i] +
                                    b.bits[i] * c.bits[i];
            out.bits[i] = define(expr, (out.value >> i) & 1);
        }
        return out;
    }

    /// Ripple-carry addition mod 2^32; sum bits and carries become fresh
    /// variables (the carry is the majority of the addend bits and the
    /// incoming carry).
    SymWord add(const SymWord& a, const SymWord& b) {
        SymWord out;
        out.value = a.value + b.value;
        Polynomial carry = Polynomial::constant(false);
        bool carry_val = false;
        for (unsigned i = 0; i < 32; ++i) {
            const bool ai = (a.value >> i) & 1;
            const bool bi = (b.value >> i) & 1;
            const Polynomial sum_expr = a.bits[i] + b.bits[i] + carry;
            out.bits[i] = define(sum_expr, ai ^ bi ^ carry_val);
            if (i + 1 < 32) {
                const Polynomial carry_expr = a.bits[i] * b.bits[i] +
                                              a.bits[i] * carry +
                                              b.bits[i] * carry;
                const bool next_carry =
                    (ai & bi) | (ai & carry_val) | (bi & carry_val);
                carry = define(carry_expr, next_carry);
                carry_val = next_carry;
            }
        }
        return out;
    }

    SymWord big_sigma0_w(const SymWord& a) {
        return xor3(rotr_word(a, 2), rotr_word(a, 13), rotr_word(a, 22));
    }
    SymWord big_sigma1_w(const SymWord& e) {
        return xor3(rotr_word(e, 6), rotr_word(e, 11), rotr_word(e, 25));
    }
    SymWord small_sigma0_w(const SymWord& w) {
        return xor3(rotr_word(w, 7), rotr_word(w, 18), shr_word(w, 3));
    }
    SymWord small_sigma1_w(const SymWord& w) {
        return xor3(rotr_word(w, 17), rotr_word(w, 19), shr_word(w, 10));
    }
};

}  // namespace

uint32_t Sha256Instance::nonce_of(const std::vector<bool>& assignment) const {
    uint32_t out = 0;
    for (unsigned b = 0; b < 32; ++b)
        if (assignment.at(nonce_base + b)) out |= 1u << b;
    return out;
}

std::array<uint32_t, 8> Sha256Instance::digest(uint32_t nonce) const {
    // Nonce bit 0 is W12 bit 0; nonce bits 1..31 are W13 bits 1..31.
    std::array<uint32_t, 16> spliced = block;
    spliced[12] = (spliced[12] & ~1u) | (nonce & 1u);
    spliced[13] = (spliced[13] & 1u) | ((nonce >> 1) << 1);
    return sha256_compress(spliced, rounds);
}

bool Sha256Instance::meets_target(uint32_t nonce) const {
    return k == 0 || (digest(nonce)[0] >> (32 - k)) == 0;
}

Sha256Instance encode_bitcoin_nonce(unsigned k, unsigned rounds, Rng& rng,
                                    bool ensure_satisfiable) {
    assert(k <= 32 && rounds >= 1 && rounds <= 64);
    // The nonce occupies message words W12/W13, which enter the compression
    // at rounds t = 12 and 13; fewer than 14 rounds would leave the digest
    // independent of the nonce, so the weakening floor is 14 rounds.
    if (rounds < 14) rounds = 14;

    Sha256Instance inst;
    inst.k = k;
    inst.rounds = rounds;

    // Draw the fixed 415-bit prefix; bits 415..446 hold the nonce, bit 447
    // is the padding '1', W14:W15 encode the length 448.
    std::array<uint32_t, 16> block{};
    uint32_t found_nonce = 0;
    bool found = false;
    for (int attempt = 0; attempt < 64 && !found; ++attempt) {
        for (unsigned i = 0; i < 13; ++i)
            block[i] = static_cast<uint32_t>(rng.next());
        // Zero the message bits from 415 on in W12/W13, then set padding.
        // Message bit j (from the MSB of the block) = word j/32, bit
        // 31 - (j % 32).
        block[12] &= ~1u;          // bit 415 = W12 bit 0
        block[13] = 0;             // bits 416..447
        block[13] |= 1u;           // padding '1' at message bit 447
        block[14] = 0;
        block[15] = 448;
        if (!ensure_satisfiable) {
            found = true;
            break;
        }
        // Brute-force a witness nonce: nonce bit 0 (first nonce bit,
        // message bit 415) = W12 bit 0; nonce bits 1..31 = W13 bits 31..1.
        for (uint64_t n = 0; n < (1ull << 32); ++n) {
            std::array<uint32_t, 16> candidate = block;
            const uint32_t nonce = static_cast<uint32_t>(n);
            candidate[12] |= (nonce & 1u);
            candidate[13] |= (nonce >> 1) << 1;
            const auto digest = sha256_compress(candidate, rounds);
            if (k == 0 || (digest[0] >> (32 - k)) == 0) {
                found_nonce = nonce;
                block = candidate;
                found = true;
                break;
            }
            // Give up on this prefix after a generous budget (~2^(k+4)).
            if (n > (1ull << std::min(31u, k + 4))) break;
        }
    }
    inst.block = block;
    inst.nonce = found_nonce;
    inst.has_witness = found && ensure_satisfiable;

    // ---- symbolic encoding ----------------------------------------------
    Builder bld;

    // Nonce variables first (vars 0..31), so nonce_base = 0.
    inst.nonce_base = 0;
    std::array<Polynomial, 32> nonce_bits;
    for (unsigned b = 0; b < 32; ++b)
        nonce_bits[b] = bld.fresh((found_nonce >> b) & 1);

    std::vector<SymWord> w(rounds > 16 ? rounds : 16);
    for (unsigned t = 0; t < 16; ++t) w[t] = bld.const_word(block[t]);
    // Splice the nonce variables into W12 bit 0 and W13 bits 31..1.
    w[12].bits[0] = nonce_bits[0];
    for (unsigned b = 1; b < 32; ++b) w[13].bits[b] = nonce_bits[b];

    for (unsigned t = 16; t < rounds; ++t) {
        const SymWord s1 = bld.small_sigma1_w(w[t - 2]);
        const SymWord s0 = bld.small_sigma0_w(w[t - 15]);
        w[t] = bld.add(bld.add(s1, w[t - 7]), bld.add(s0, w[t - 16]));
    }

    SymWord a = bld.const_word(kIV[0]), b = bld.const_word(kIV[1]);
    SymWord c = bld.const_word(kIV[2]), d = bld.const_word(kIV[3]);
    SymWord e = bld.const_word(kIV[4]), f = bld.const_word(kIV[5]);
    SymWord g = bld.const_word(kIV[6]), h = bld.const_word(kIV[7]);

    for (unsigned t = 0; t < rounds; ++t) {
        const SymWord ch = bld.ch(e, f, g);
        const SymWord mj = bld.maj(a, b, c);
        const SymWord s1 = bld.big_sigma1_w(e);
        const SymWord s0 = bld.big_sigma0_w(a);
        const SymWord t1 = bld.add(bld.add(h, s1),
                                   bld.add(ch, bld.add(bld.const_word(kK[t]),
                                                       w[t])));
        const SymWord t2 = bld.add(s0, mj);
        h = g;
        g = f;
        f = e;
        e = bld.add(d, t1);
        d = c;
        c = b;
        b = a;
        a = bld.add(t1, t2);
    }

    // H0 = IV0 + a; require its top k bits to be zero.
    const SymWord h0 = bld.add(bld.const_word(kIV[0]), a);
    for (unsigned i = 0; i < k; ++i) {
        bld.require_zero(h0.bits[31 - i]);
    }

    inst.polys = std::move(bld.polys);
    inst.num_vars = bld.num_vars;
    inst.witness = std::move(bld.witness);
    return inst;
}

}  // namespace bosphorus::crypto
