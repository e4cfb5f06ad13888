// The batched link pass's building blocks in isolation, at every router row
// width W (occupancy words per router): the round-robin pick over a W-word
// row must be the dense reference's min-key winner, the W-word port sweep
// must match its scalar definition in both SIMD modes, and the
// qualification pass over a real arena must equal the per-unit predicate.
#include "src/sim/link_qual.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/rng.hpp"

namespace swft {
namespace {

/// The dense reference's switch arbitration: among candidate units, the
/// winner minimizes the round-robin key (u - cur) mod units.
int denseMinKeyWinner(const std::vector<std::uint64_t>& row, int units, int cur) {
  for (int k = 0; k < units; ++k) {
    const int u = (cur + k) % units;
    if ((row[static_cast<std::size_t>(u >> 6)] >> (u & 63)) & 1u) return u;
  }
  return -1;
}

std::vector<std::uint64_t> rowOf(int words, std::initializer_list<int> units) {
  std::vector<std::uint64_t> row(static_cast<std::size_t>(words), 0);
  for (const int u : units) row[static_cast<std::size_t>(u >> 6)] |= 1ULL << (u & 63);
  return row;
}

// A 3-cube router at V=10 has 70 units: two words, the second holding units
// 64..69 only.
TEST(PickCircular, TwoWordEdgeCasesMatchDenseMinKey) {
  constexpr int kUnits = 70;
  struct Case {
    const char* what;
    int cur;
    std::vector<std::uint64_t> row;
    int expected;
  };
  const Case cases[] = {
      {"cursor in word 1, only candidate in word 0", 66, rowOf(2, {5}), 5},
      {"cursor in word 1, candidate behind it in word 1 wraps past word 0", 67,
       rowOf(2, {66, 40}), 40},
      {"cursor = 64 exactly, candidate on it", 64, rowOf(2, {63, 64}), 64},
      {"cursor = 64 exactly, nearest candidate at the end", 64, rowOf(2, {63, 69}),
       69},
      {"cursor = 64 exactly, only candidates in word 0", 64, rowOf(2, {0, 63}), 0},
      {"cursor = units - 1, candidate on it", kUnits - 1, rowOf(2, {3, 69}), 69},
      {"cursor = units - 1, wraps to unit 0", kUnits - 1, rowOf(2, {0, 68}), 0},
      {"cursor = units - 1, only candidate just before it", kUnits - 1,
       rowOf(2, {68}), 68},
      {"cursor 0, candidate in word 1 only", 0, rowOf(2, {65}), 65},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(pickCircular<2>(c.row.data(), c.cur), c.expected) << c.what;
    EXPECT_EQ(denseMinKeyWinner(c.row, kUnits, c.cur), c.expected) << c.what;
  }
}

template <int W>
void checkPickAgainstDense(int units, Rng& rng) {
  ASSERT_GT(units, 64 * (W - 1));
  ASSERT_LE(units, 64 * W);
  for (int trial = 0; trial < 200; ++trial) {
    // Alternate sparse rows (one to three candidates: long wraps) and dense
    // rows (most units qualified).
    std::vector<std::uint64_t> row(W, 0);
    const int picks = trial % 2 == 0 ? 1 + static_cast<int>(rng.uniform(3))
                                     : units / 2 + 1;
    for (int i = 0; i < picks; ++i) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint32_t>(units)));
      row[static_cast<std::size_t>(u >> 6)] |= 1ULL << (u & 63);
    }
    for (int cur = 0; cur < units; ++cur) {
      ASSERT_EQ(pickCircular<W>(row.data(), cur), denseMinKeyWinner(row, units, cur))
          << "W=" << W << " units=" << units << " cur=" << cur << " trial " << trial;
    }
  }
}

TEST(PickCircular, MatchesDenseMinKeyAtEveryRowWidth) {
  Rng rng(2006);
  // Router sizes the torus geometry produces: (2n + 1) ports x V units.
  checkPickAgainstDense<1>(20, rng);   // 2-cube, V=4
  checkPickAgainstDense<1>(63, rng);   // 3-cube, V=9
  checkPickAgainstDense<1>(64, rng);   // a full word
  checkPickAgainstDense<2>(70, rng);   // 3-cube, V=10
  checkPickAgainstDense<2>(126, rng);  // 4-cube, V=14
  checkPickAgainstDense<2>(128, rng);  // two full words
  checkPickAgainstDense<3>(135, rng);  // 4-cube, V=15
  checkPickAgainstDense<3>(176, rng);  // 5-cube, V=16
  checkPickAgainstDense<4>(208, rng);  // 6-cube, V=16
  checkPickAgainstDense<4>(240, rng);  // 7-cube, V=16
  checkPickAgainstDense<5>(272, rng);  // 8-cube, V=16: the widest router
}

template <int W>
void checkPortSweep(Rng& rng) {
  for (int ports = 1; ports <= kMaxRouterPorts; ++ports) {
    std::uint64_t ok[W];
    for (int w = 0; w < W; ++w) ok[w] = rng.next();
    std::vector<std::uint64_t> members(static_cast<std::size_t>(ports * W));
    for (std::uint64_t& m : members) m = rng.next() & rng.next();
    if (ports > 2) {
      // An all-zero row must leave its port bit clear.
      for (int w = 0; w < W; ++w) members[static_cast<std::size_t>(W + w)] = 0;
    }
    std::vector<std::uint64_t> want(members.size());
    std::uint64_t wantPm = 0;
    for (int p = 0; p < ports; ++p) {
      for (int w = 0; w < W; ++w) {
        const std::size_t i = static_cast<std::size_t>(p * W + w);
        want[i] = ok[w] & members[i];
        if (want[i] != 0) wantPm |= 1ULL << p;
      }
    }
    for (const bool scalar : {true, false}) {
      simd::setForceScalar(scalar);
      std::vector<std::uint64_t> okp(members.size(), 0xdeadbeefULL);
      EXPECT_EQ(simd::qualifyPortRows<W>(ok, members.data(), okp.data(), ports), wantPm)
          << "W=" << W << " ports=" << ports << " scalar=" << scalar;
      EXPECT_EQ(okp, want) << "W=" << W << " ports=" << ports << " scalar=" << scalar;
    }
  }
}

TEST(QualifyPortRows, BothSimdModesMatchTheDefinition) {
  const bool prev = simd::forceScalar();
  Rng rng(425);
  for (int rep = 0; rep < 20; ++rep) {
    checkPortSweep<1>(rng);
    checkPortSweep<2>(rng);
    checkPortSweep<3>(rng);
    checkPortSweep<4>(rng);
    checkPortSweep<5>(rng);
  }
  simd::setForceScalar(prev);
}

// The qualification pass over a real two-word arena: a 3-cube router (6
// network ports + ejection, V=10, 70 units) whose units are all occupied and
// routed round-robin over the ports. Every third downstream unit is full,
// and two units receive their front only after the freshness boundary, so
// all three predicate terms (fresh, routed port, downstream credit) vary.
TEST(QualifyLinkCandidates, TwoWordRowMatchesPerUnitPredicate) {
  constexpr int kPorts = 7, kVcs = 10, kDepth = 2;
  RouterArena a(2, kPorts, kPorts - 1, kVcs, kDepth);
  ASSERT_EQ(a.occWordsPerRouter(), 2);
  const int units = a.unitsPerRouter();
  std::vector<int> down(static_cast<std::size_t>(units));
  for (int u = 0; u < units; ++u) {
    if (u == 7 || u == 66) continue;  // pushed after the boundary below
    a.push(0, u, Flit{static_cast<MsgId>(u), FlitKind::Body}, 0);
  }
  for (int u = 0; u < units; ++u) {
    const int port = u % kPorts;
    const int vc = u / kPorts % kVcs;
    const int du = port == kPorts - 1 ? a.creditSinkBase() + vc : a.unitIndex(1, port, vc);
    down[static_cast<std::size_t>(u)] = du;
    if (u == 7 || u == 66) continue;
    a.allocateRoute(0, u, port, vc, du);
    if (port != kPorts - 1 && u % 3 == 0) {
      while (!a.full(du)) a.push(1, du, Flit{static_cast<MsgId>(u), FlitKind::Body}, 0);
    }
  }
  a.matureFreshness();
  for (const int u : {7, 66}) {
    a.push(0, u, Flit{static_cast<MsgId>(u), FlitKind::Body}, 1);
    a.allocateRoute(0, u, u % kPorts, u / kPorts % kVcs, down[static_cast<std::size_t>(u)]);
  }

  std::uint64_t okp[kMaxRouterPorts * 2];
  std::uint64_t blocked[2];
  const std::uint64_t pm = qualifyLinkCandidates<2>(a, 0, okp, kPorts, blocked);
  std::uint64_t wantPm = 0;
  for (int p = 0; p < kPorts; ++p) {
    for (int u = 0; u < units; ++u) {
      const bool fresh = u != 7 && u != 66;
      const bool credit = a.creditOkBit(down[static_cast<std::size_t>(u)]);
      const bool member = u % kPorts == p;
      const bool bit = ((okp[p * 2 + (u >> 6)] >> (u & 63)) & 1u) != 0;
      EXPECT_EQ(bit, fresh && credit && member) << "port " << p << " unit " << u;
      if (fresh && credit && member) wantPm |= 1ULL << p;
      if (p == 0) {
        const bool isBlocked = ((blocked[u >> 6] >> (u & 63)) & 1u) != 0;
        EXPECT_EQ(isBlocked, fresh && !credit) << "unit " << u;
      }
    }
  }
  EXPECT_EQ(pm, wantPm);
  EXPECT_NE(pm, 0u);
}

}  // namespace
}  // namespace swft
