// Tests for the cryptographic benchmark generators: GF(2^e), implicit
// S-box quadratics, small-scale AES, Simon32/64 and SHA-256.
#include <gtest/gtest.h>

#include "crypto/aes_small.h"
#include "crypto/gf2e.h"
#include "crypto/sbox_quadratics.h"
#include "crypto/sha256.h"
#include "crypto/simon.h"
#include "util/rng.h"

namespace bosphorus::crypto {
namespace {

// ---- GF(2^e) ---------------------------------------------------------------

class Gf2eField : public ::testing::TestWithParam<unsigned> {};

TEST_P(Gf2eField, FieldAxioms) {
    const GF2E f(GetParam());
    const unsigned n = f.size();
    for (unsigned a = 0; a < n; ++a) {
        EXPECT_EQ(f.mul(a, 1), a);
        EXPECT_EQ(f.mul(a, 0), 0);
        for (unsigned b = 0; b < n; ++b) {
            EXPECT_EQ(f.mul(a, b), f.mul(b, a));
            for (unsigned c = 0; c < n && a < 16; ++c) {
                EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                EXPECT_EQ(f.mul(a, f.add(b, c)),
                          f.add(f.mul(a, b), f.mul(a, c)));
            }
        }
    }
}

TEST_P(Gf2eField, Inverses) {
    const GF2E f(GetParam());
    EXPECT_EQ(f.inv(0), 0) << "patched inverse";
    for (unsigned a = 1; a < f.size(); ++a) {
        EXPECT_EQ(f.mul(a, f.inv(a)), 1u) << "a = " << a;
    }
}

TEST_P(Gf2eField, MulByConstMatrixMatchesMul) {
    const GF2E f(GetParam());
    const unsigned e = f.degree();
    for (unsigned c = 0; c < f.size(); ++c) {
        const auto rows = f.mul_by_const_matrix(static_cast<uint8_t>(c));
        for (unsigned x = 0; x < f.size(); ++x) {
            unsigned expect = f.mul(c, static_cast<uint8_t>(x));
            unsigned got = 0;
            for (unsigned i = 0; i < e; ++i) {
                bool bit = false;
                for (unsigned j = 0; j < e; ++j)
                    if ((rows[i] >> j) & 1) bit ^= (x >> j) & 1;
                if (bit) got |= 1u << i;
            }
            EXPECT_EQ(got, expect) << "c=" << c << " x=" << x;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Gf2eField, ::testing::Values(2u, 3u, 4u, 8u));

TEST(Gf2e, AesMultiplicationKnownValues) {
    const GF2E f(8);
    // Classic AES examples: 0x57 * 0x83 = 0xC1, 0x57 * 0x13 = 0xFE.
    EXPECT_EQ(f.mul(0x57, 0x83), 0xC1);
    EXPECT_EQ(f.mul(0x57, 0x13), 0xFE);
    EXPECT_EQ(f.mul(0x02, 0x80), 0x1B) << "reduction by 0x11B";
}

// ---- S-box quadratics -------------------------------------------------------

TEST(SboxQuadratics, AesSboxHas39Equations) {
    SmallScaleAes::Params p;
    const SmallScaleAes aes(p);
    const auto eqs = sbox_quadratics(aes.sbox_table(), 8);
    // Courtois-Pieprzyk: the AES S-box satisfies exactly 39 linearly
    // independent quadratic equations.
    EXPECT_EQ(eqs.size(), 39u);
    EXPECT_TRUE(verify_quadratics(aes.sbox_table(), 8, eqs));
}

TEST(SboxQuadratics, IdentityMapEquations) {
    // y = x: every pair (x_i + y_i) is an equation; many more quadratics
    // (e.g. x_i y_j + x_i x_j) exist. All must verify.
    std::vector<uint8_t> identity(16);
    for (unsigned i = 0; i < 16; ++i) identity[i] = static_cast<uint8_t>(i);
    const auto eqs = sbox_quadratics(identity, 4);
    EXPECT_TRUE(verify_quadratics(identity, 4, eqs));
    EXPECT_GE(eqs.size(), 4u);
}

class SboxRandom : public ::testing::TestWithParam<int> {};

TEST_P(SboxRandom, EquationsVanishOnAllPoints) {
    Rng rng(GetParam());
    std::vector<uint8_t> table(16);
    for (unsigned i = 0; i < 16; ++i) table[i] = static_cast<uint8_t>(i);
    rng.shuffle(table);  // random bijection on 4 bits
    const auto eqs = sbox_quadratics(table, 4);
    EXPECT_TRUE(verify_quadratics(table, 4, eqs));
    // Forging any equation by flipping a monomial must break it.
    if (!eqs.empty() && !eqs[0].empty()) {
        auto broken = eqs;
        broken[0].push_back({});  // XOR the constant 1 in
        EXPECT_FALSE(verify_quadratics(table, 4, broken));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SboxRandom, ::testing::Range(0, 10));

// ---- small-scale AES --------------------------------------------------------

TEST(AesSmall, SboxMatchesRealAes) {
    SmallScaleAes::Params p;  // e = 8 default
    const SmallScaleAes aes(p);
    EXPECT_EQ(aes.sbox(0x00), 0x63);
    EXPECT_EQ(aes.sbox(0x01), 0x7C);
    EXPECT_EQ(aes.sbox(0x53), 0xED);
    EXPECT_EQ(aes.sbox(0xFF), 0x16);
}

TEST(AesSmall, SboxIsBijective) {
    for (unsigned e : {4u, 8u}) {
        SmallScaleAes::Params p;
        p.e = e;
        p.rows = 2;
        p.cols = 2;
        const SmallScaleAes aes(p);
        std::vector<bool> seen(1u << e, false);
        for (unsigned x = 0; x < (1u << e); ++x) {
            EXPECT_FALSE(seen[aes.sbox(static_cast<uint8_t>(x))]);
            seen[aes.sbox(static_cast<uint8_t>(x))] = true;
        }
    }
}

TEST(AesSmall, EncryptIsDeterministicAndKeyDependent) {
    SmallScaleAes::Params p;
    p.rows = 2;
    p.cols = 2;
    p.e = 4;
    const SmallScaleAes aes(p);
    const std::vector<uint8_t> pt{1, 2, 3, 4}, k1{5, 6, 7, 8}, k2{5, 6, 7, 9};
    EXPECT_EQ(aes.encrypt(pt, k1), aes.encrypt(pt, k1));
    EXPECT_NE(aes.encrypt(pt, k1), aes.encrypt(pt, k2));
}

class AesParams
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned,
                                                 unsigned, int>> {};

TEST_P(AesParams, WitnessSatisfiesEncoding) {
    const auto [rounds, rows, cols, e, seed] = GetParam();
    SmallScaleAes::Params p;
    p.rounds = rounds;
    p.rows = rows;
    p.cols = cols;
    p.e = e;
    const SmallScaleAes aes(p);
    Rng rng(seed);
    const auto inst = aes.random_instance(rng);
    ASSERT_EQ(inst.witness.size(), inst.num_vars);
    for (const auto& poly : inst.polys) {
        EXPECT_FALSE(poly.evaluate(inst.witness))
            << "equation violated by the simulated witness: "
            << poly.to_string();
    }
    // The encoding must also be *falsifiable*: a corrupted key bit should
    // break at least one equation (sanity that equations constrain the key).
    std::vector<bool> corrupted = inst.witness;
    corrupted[0] = !corrupted[0];
    bool violated = false;
    for (const auto& poly : inst.polys)
        violated |= poly.evaluate(corrupted);
    EXPECT_TRUE(violated);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AesParams,
    ::testing::Values(std::make_tuple(1u, 1u, 1u, 4u, 1),
                      std::make_tuple(1u, 2u, 2u, 4u, 2),
                      std::make_tuple(2u, 2u, 2u, 4u, 3),
                      std::make_tuple(1u, 2u, 2u, 8u, 4),
                      std::make_tuple(1u, 4u, 4u, 8u, 5),
                      std::make_tuple(2u, 4u, 4u, 8u, 6),
                      std::make_tuple(3u, 2u, 1u, 4u, 7)));

TEST(AesSmall, Sr1448ShapeMatchesPaper) {
    // SR(1,4,4,8): our encoding has 544 variables (the paper's SageMath
    // system reports 800 = 544 + 256 plaintext/ciphertext variables, which
    // we fold in as constants) and ~1100 equations.
    SmallScaleAes::Params p;  // defaults are (1,4,4,8)
    const SmallScaleAes aes(p);
    Rng rng(9);
    const auto inst = aes.random_instance(rng);
    EXPECT_EQ(inst.num_vars, 544u);
    EXPECT_GT(inst.polys.size(), 900u);
    EXPECT_LT(inst.polys.size(), 1300u);
}

// ---- Simon ------------------------------------------------------------------

TEST(Simon, OfficialTestVector) {
    // Simon32/64 test vector from the Simon & Speck paper:
    // key = 0x1918 0x1110 0x0908 0x0100 (k3..k0),
    // plaintext 0x6565 0x6877 -> ciphertext 0xc69b 0xe9bb (32 rounds).
    const Simon32 simon(32);
    const std::vector<uint16_t> key{0x0100, 0x0908, 0x1110, 0x1918};
    const auto ct = simon.encrypt(0x6565, 0x6877, key);
    EXPECT_EQ(ct.first, 0xc69b);
    EXPECT_EQ(ct.second, 0xe9bb);
}

TEST(Simon, RoundKeysPrefixStable) {
    const std::vector<uint16_t> key{1, 2, 3, 4};
    const Simon32 s8(8), s12(12);
    const auto k8 = s8.round_keys(key);
    const auto k12 = s12.round_keys(key);
    ASSERT_EQ(k8.size(), 8u);
    for (size_t i = 0; i < 8; ++i) EXPECT_EQ(k8[i], k12[i]);
}

class SimonParams
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, int>> {};

TEST_P(SimonParams, WitnessSatisfiesEncoding) {
    const auto [plaintexts, rounds, seed] = GetParam();
    const Simon32 simon(rounds);
    Rng rng(seed);
    const auto inst = simon.encode(plaintexts, rng);
    ASSERT_EQ(inst.witness.size(), inst.num_vars);
    for (const auto& poly : inst.polys) {
        EXPECT_FALSE(poly.evaluate(inst.witness)) << poly.to_string();
    }
    // Variable budget: 64 key bits + 16 per intermediate round per pair.
    const size_t expect_vars =
        64 + static_cast<size_t>(plaintexts) *
                 (rounds >= 3 ? (rounds - 2) * 16 : 0);
    EXPECT_EQ(inst.num_vars, expect_vars);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimonParams,
    ::testing::Values(std::make_tuple(1u, 2u, 1), std::make_tuple(2u, 4u, 2),
                      std::make_tuple(4u, 6u, 3), std::make_tuple(8u, 6u, 4),
                      std::make_tuple(9u, 7u, 5), std::make_tuple(10u, 8u, 6),
                      std::make_tuple(3u, 10u, 7)));

TEST(Simon, SimilarPlaintextsDifferInOneBit) {
    const Simon32 simon(4);
    Rng rng(11);
    const auto inst = simon.encode(3, rng);
    // Not directly observable from the instance, but the encoding must at
    // least produce equations for each pair and keep the key shared.
    EXPECT_GT(inst.polys.size(), 3u * 16u);
    EXPECT_FALSE(inst.polys.empty());
}

// ---- SHA-256 ----------------------------------------------------------------

TEST(Sha256, CompressMatchesKnownDigest) {
    // SHA-256("abc"): single padded block, full 64 rounds.
    std::array<uint32_t, 16> block{};
    block[0] = 0x61626380;  // "abc" + 0x80
    block[15] = 24;         // bit length
    const auto digest = sha256_compress(block, 64);
    const std::array<uint32_t, 8> expect = {0xba7816bf, 0x8f01cfea, 0x414140de,
                                            0x5dae2223, 0xb00361a3, 0x96177a9c,
                                            0xb410ff61, 0xf20015ad};
    EXPECT_EQ(digest, expect);
}

TEST(Sha256, EmptyStringDigest) {
    std::array<uint32_t, 16> block{};
    block[0] = 0x80000000;
    block[15] = 0;
    const auto digest = sha256_compress(block, 64);
    EXPECT_EQ(digest[0], 0xe3b0c442u);
    EXPECT_EQ(digest[7], 0x7852b855u);
}

class Sha256Params
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, int>> {};

TEST_P(Sha256Params, WitnessSatisfiesEncoding) {
    const auto [k, rounds, seed] = GetParam();
    Rng rng(seed);
    const auto inst = encode_bitcoin_nonce(k, rounds, rng);
    ASSERT_TRUE(inst.has_witness);
    ASSERT_EQ(inst.witness.size(), inst.num_vars);
    for (const auto& poly : inst.polys) {
        ASSERT_FALSE(poly.evaluate(inst.witness)) << poly.to_string();
    }
    // The witnessed block must genuinely produce k leading zero bits.
    const auto digest = sha256_compress(inst.block, rounds);
    if (k > 0) EXPECT_EQ(digest[0] >> (32 - k), 0u);
    // The re-check helpers agree: the witness holds the witnessed nonce,
    // which re-hashes to the same digest.
    EXPECT_EQ(inst.nonce_of(inst.witness), inst.nonce);
    EXPECT_EQ(inst.digest(inst.nonce), digest);
    EXPECT_TRUE(inst.meets_target(inst.nonce));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Sha256Params,
    ::testing::Values(std::make_tuple(1u, 14u, 1), std::make_tuple(4u, 16u, 2),
                      std::make_tuple(6u, 16u, 3),
                      std::make_tuple(8u, 18u, 4),
                      std::make_tuple(4u, 64u, 5)));

TEST(Sha256, RoundsClampedSoNonceMatters) {
    // Regression: with < 14 rounds the nonce words would never enter the
    // compression, leaving an unconstrained instance. The encoder clamps.
    Rng rng(8);
    const auto inst = encode_bitcoin_nonce(4, 8, rng);
    EXPECT_GE(inst.rounds, 14u);
    // The re-check hashes over the rounds actually encoded, not the 8
    // requested, so the witness passes it.
    ASSERT_TRUE(inst.has_witness);
    EXPECT_TRUE(inst.meets_target(inst.nonce));
    EXPECT_FALSE(inst.polys.empty());
    // At least one equation must involve a nonce variable.
    bool nonce_used = false;
    for (const auto& p : inst.polys) {
        for (unsigned b = 0; b < 32 && !nonce_used; ++b)
            nonce_used = p.contains_var(static_cast<anf::Var>(b));
        if (nonce_used) break;
    }
    EXPECT_TRUE(nonce_used);
}

TEST(Sha256, InstanceDegreeIsQuadratic) {
    Rng rng(3);
    const auto inst = encode_bitcoin_nonce(4, 16, rng);
    for (const auto& p : inst.polys) EXPECT_LE(p.degree(), 2u);
}

TEST(Sha256, NonceVariablesComeFirst) {
    Rng rng(4);
    const auto inst = encode_bitcoin_nonce(2, 16, rng);
    EXPECT_EQ(inst.nonce_base, 0u);
    for (unsigned b = 0; b < 32; ++b)
        EXPECT_EQ(inst.witness[b], (inst.nonce >> b) & 1);
}

}  // namespace
}  // namespace bosphorus::crypto
