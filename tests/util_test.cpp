// Unit and property tests for src/util: BitVec, Rng, GF(2) algebra, and
// the typed command-line flag parser.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/bitvec.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/gf2.h"
#include "util/rng.h"

namespace orap {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    ORAP_CHECK_MSG(1 == 2, "math broke " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.word(), b.word());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.word() == b.word()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.none());
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_EQ(v.count(), 4u);
  EXPECT_TRUE(v.get(129));
  v.flip(129);
  EXPECT_FALSE(v.get(129));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVec, FilledConstructionTrimsTail) {
  BitVec v(70, true);
  EXPECT_EQ(v.count(), 70u);
  EXPECT_EQ(v.first_set(), 0u);
}

TEST(BitVec, ResizeGrowWithOnes) {
  BitVec v(10, true);
  v.resize(100, true);
  EXPECT_EQ(v.count(), 100u);
}

TEST(BitVec, ResizeShrink) {
  BitVec v(100, true);
  v.resize(10);
  EXPECT_EQ(v.count(), 10u);
}

TEST(BitVec, XorAndOr) {
  Rng rng(4);
  const BitVec a = BitVec::random(200, rng);
  const BitVec b = BitVec::random(200, rng);
  const BitVec x = a ^ b;
  const BitVec n = a & b;
  const BitVec o = a | b;
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(x.get(i), a.get(i) != b.get(i));
    EXPECT_EQ(n.get(i), a.get(i) && b.get(i));
    EXPECT_EQ(o.get(i), a.get(i) || b.get(i));
  }
}

TEST(BitVec, DotMatchesManualParity) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec a = BitVec::random(150, rng);
    const BitVec b = BitVec::random(150, rng);
    bool parity = false;
    for (std::size_t i = 0; i < 150; ++i)
      parity ^= (a.get(i) && b.get(i));
    EXPECT_EQ(a.dot(b), parity);
  }
}

TEST(BitVec, FirstSetEmpty) {
  BitVec v(77);
  EXPECT_EQ(v.first_set(), 77u);
  v.set(76, true);
  EXPECT_EQ(v.first_set(), 76u);
}

TEST(BitVec, UnitVector) {
  const BitVec v = BitVec::unit(100, 42);
  EXPECT_EQ(v.count(), 1u);
  EXPECT_TRUE(v.get(42));
}

TEST(Gf2Matrix, IdentityApply) {
  Rng rng(2);
  const auto id = Gf2Matrix::identity(80);
  const BitVec x = BitVec::random(80, rng);
  EXPECT_EQ(id.apply(x), x);
}

TEST(Gf2Matrix, IdentityRankFull) {
  EXPECT_EQ(Gf2Matrix::identity(65).rank(), 65u);
}

TEST(Gf2Matrix, RankOfZeroIsZero) {
  Gf2Matrix z(10, 10);
  EXPECT_EQ(z.rank(), 0u);
}

TEST(Gf2Matrix, MultiplyAssociatesWithApply) {
  // (A*B) x == A (B x) — the key linearity identity the LFSR engine uses.
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = Gf2Matrix::random(30, 40, rng);
    const auto b = Gf2Matrix::random(40, 25, rng);
    const BitVec x = BitVec::random(25, rng);
    EXPECT_EQ(a.multiply(b).apply(x), a.apply(b.apply(x)));
  }
}

class Gf2SolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(Gf2SolveProperty, SolveRecoversConsistentSystems) {
  // Build b = A x0, solve, and verify A x == b (x may differ from x0 when
  // A is rank-deficient — only the image matters).
  Rng rng(100 + GetParam());
  const std::size_t rows = 20 + rng.below(40);
  const std::size_t cols = 20 + rng.below(40);
  const auto a = Gf2Matrix::random(rows, cols, rng);
  const BitVec x0 = BitVec::random(cols, rng);
  const BitVec b = a.apply(x0);
  const auto x = gf2_solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.apply(*x), b);
}

TEST_P(Gf2SolveProperty, NullspaceVectorsAnnihilate) {
  Rng rng(500 + GetParam());
  const auto a = Gf2Matrix::random(15 + rng.below(20), 25 + rng.below(20), rng);
  const auto basis = gf2_nullspace(a);
  EXPECT_EQ(basis.size(), a.cols() - a.rank());
  const BitVec zero(a.rows());
  for (const auto& v : basis) {
    EXPECT_TRUE(v.any());
    EXPECT_EQ(a.apply(v), zero);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Gf2SolveProperty, ::testing::Range(0, 12));

TEST(Gf2Solve, DetectsInconsistentSystem) {
  // Rows r0 and r1 identical but different rhs -> inconsistent.
  Gf2Matrix a(2, 3);
  a.set(0, 0, true);
  a.set(0, 2, true);
  a.set(1, 0, true);
  a.set(1, 2, true);
  BitVec b(2);
  b.set(0, true);
  EXPECT_FALSE(gf2_solve(a, b).has_value());
}

TEST(Gf2Solve, ZeroMatrixZeroRhs) {
  Gf2Matrix a(5, 7);
  const auto x = gf2_solve(a, BitVec(5));
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(x->none());
}

TEST(Gf2Solve, ZeroMatrixNonzeroRhsInconsistent) {
  Gf2Matrix a(5, 7);
  BitVec b(5);
  b.set(3, true);
  EXPECT_FALSE(gf2_solve(a, b).has_value());
}


// --- flags ------------------------------------------------------------------

constexpr flags::Flag kTestFlags[] = {
    flags::on_off("quarantine"), flags::count("votes", 1, 63),
    flags::rate("noise"),        flags::rate("scale", 0.0, 16.0, true),
    flags::text("key"),
};

/// Parses `argv` (without the program name) against kTestFlags; returns
/// the diagnostic, empty on success.
std::string parse_flags(std::vector<const char*> argv, flags::Args* out) {
  argv.insert(argv.begin(), "prog");
  std::string error;
  const bool ok =
      flags::parse(kTestFlags, static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()), 1, true, out, &error);
  EXPECT_EQ(ok, error.empty());
  return error;
}

TEST(Flags, SwitchNeverConsumesTheNextToken) {
  flags::Args a;
  ASSERT_EQ(parse_flags({"--quarantine", "l.bench", "--key", "k.txt"}, &a),
            "");
  EXPECT_TRUE(a.on("quarantine"));
  ASSERT_EQ(a.positional.size(), 1u);
  EXPECT_EQ(a.positional[0], "l.bench");
  EXPECT_EQ(a.text("key", ""), "k.txt");
  // A digit after a switch is a positional too, never the switch's value.
  ASSERT_EQ(parse_flags({"--quarantine", "0"}, &a), "");
  EXPECT_TRUE(a.on("quarantine"));
  EXPECT_EQ(a.positional, std::vector<std::string>{"0"});
}

TEST(Flags, SwitchTakesEqualsZeroOrOne) {
  flags::Args a;
  ASSERT_EQ(parse_flags({"--quarantine=0"}, &a), "");
  EXPECT_TRUE(a.has("quarantine"));
  EXPECT_FALSE(a.on("quarantine"));
  ASSERT_EQ(parse_flags({"--quarantine=1"}, &a), "");
  EXPECT_TRUE(a.on("quarantine"));
  ASSERT_EQ(parse_flags({}, &a), "");
  EXPECT_FALSE(a.on("quarantine"));
  for (const char* bad : {"--quarantine=2", "--quarantine=", "--quarantine=on"})
    EXPECT_NE(parse_flags({bad}, &a).find("invalid --quarantine"),
              std::string::npos)
        << bad;
}

TEST(Flags, ValuedFlagsTakeEqualsOrTheNextToken) {
  flags::Args a;
  ASSERT_EQ(parse_flags({"--votes=3", "-noise", "0.25", "--key", "k"}, &a),
            "");
  EXPECT_EQ(a.count("votes", 1), 3u);
  EXPECT_DOUBLE_EQ(a.rate("noise", 0.0), 0.25);
  EXPECT_EQ(a.text("key", ""), "k");
  EXPECT_DOUBLE_EQ(a.rate("scale", 0.15), 0.15);  // absent: the fallback
  // The last of a repeated flag wins.
  ASSERT_EQ(parse_flags({"--votes", "3", "--votes=5"}, &a), "");
  EXPECT_EQ(a.count("votes", 1), 5u);
  // A valued flag with nothing, or another flag, after it has no value.
  EXPECT_NE(parse_flags({"--key"}, &a).find("--key needs a value"),
            std::string::npos);
  EXPECT_NE(parse_flags({"--key", "--quarantine"}, &a).find("--key"),
            std::string::npos);
}

TEST(Flags, RejectsMalformedNumbers) {
  flags::Args a;
  for (const char* bad : {"--votes=3x", "--votes=", "--votes=-3",
                          "--votes=+3", "--votes= 3", "--votes=0x3",
                          "--votes=1.5", "--votes=99999999999999999999"})
    EXPECT_NE(parse_flags({bad}, &a).find("invalid --votes"),
              std::string::npos)
        << bad;
  for (const char* bad : {"--noise=abc", "--noise=0.5abc", "--noise=nan",
                          "--noise=inf", "--noise=1e999"})
    EXPECT_NE(parse_flags({bad}, &a).find("invalid --noise"),
              std::string::npos)
        << bad;
  // A negative number after a valued flag is its (malformed) value.
  EXPECT_NE(parse_flags({"--votes", "-3"}, &a).find("invalid --votes"),
            std::string::npos);
  EXPECT_NE(parse_flags({"--key="}, &a).find("invalid --key"),
            std::string::npos);
}

TEST(Flags, RejectsOutOfRangeValues) {
  flags::Args a;
  EXPECT_NE(parse_flags({"--votes=0"}, &a).find("[1, 63]"),
            std::string::npos);
  EXPECT_NE(parse_flags({"--votes=64"}, &a).find("[1, 63]"),
            std::string::npos);
  EXPECT_EQ(parse_flags({"--votes=63"}, &a), "");
  EXPECT_NE(parse_flags({"--noise=1.5"}, &a).find("[0, 1]"),
            std::string::npos);
  EXPECT_EQ(parse_flags({"--noise=1"}, &a), "");
  // An open lower bound excludes the bound itself.
  EXPECT_NE(parse_flags({"--scale=0"}, &a).find("(0, 16]"),
            std::string::npos);
  EXPECT_EQ(parse_flags({"--scale=16"}, &a), "");
}

TEST(Flags, RejectsUnknownFlags) {
  flags::Args a;
  EXPECT_EQ(parse_flags({"--vote=3"}, &a), "unknown flag --vote");
  EXPECT_EQ(parse_flags({"-bogus"}, &a), "unknown flag -bogus");
  EXPECT_EQ(parse_flags({"--"}, &a), "unknown flag --");
  // Without positionals allowed, a bare word is an error too.
  const char* argv[] = {"prog", "extra"};
  std::string error;
  EXPECT_FALSE(flags::parse(kTestFlags, 2, const_cast<char**>(argv), 1,
                            false, &a, &error));
  EXPECT_EQ(error, "unknown argument 'extra'");
}

TEST(Flags, GettersMustMatchTheTable) {
  flags::Args a;
  ASSERT_EQ(parse_flags({"--votes=3"}, &a), "");
  EXPECT_THROW(a.rate("votes", 0.0), CheckError);  // wrong kind
  EXPECT_THROW(a.count("bogus", 0), CheckError);   // not in the table
}

}  // namespace
}  // namespace orap
