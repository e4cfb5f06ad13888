// Engine equivalence: the event-sparse production engine must be
// bit-identical to the dense reference sweep on every field of SimResult,
// across traffic patterns, fault states and routing modes. The invariant
// under test (DESIGN.md): activity tracking may skip provably-dead work but
// may never reorder or change live work.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/harness/sweep.hpp"
#include "src/sim/config_parse.hpp"
#include "src/sim/network.hpp"
#include "src/sim/router_state.hpp"
#include "tests/naming.hpp"

namespace swft {

// White-box access for the conservation walk (dense storage is private).
struct NetworkTestAccess {
  static const std::vector<RouterState>& legacy(const Network& net) {
    return net.legacy_;
  }
};

namespace {

struct EngineCase {
  const char* name;
  TrafficPattern pattern;
  RoutingMode routing;
  int randomFaults;
  double rate;
  // Geometry: the 8-ary 2-cube at V=4 unless a case says otherwise.
  int radix = 8;
  int dims = 2;
  int vcs = 4;
};

const EngineCase kCases[] = {
    {"uniform_det_faultfree", TrafficPattern::Uniform, RoutingMode::Deterministic, 0,
     0.006},
    {"uniform_det_faulty", TrafficPattern::Uniform, RoutingMode::Deterministic, 5,
     0.005},
    {"uniform_adp_faultfree", TrafficPattern::Uniform, RoutingMode::Adaptive, 0, 0.006},
    {"uniform_adp_faulty", TrafficPattern::Uniform, RoutingMode::Adaptive, 5, 0.005},
    {"transpose_det_faultfree", TrafficPattern::Transpose, RoutingMode::Deterministic,
     0, 0.006},
    {"transpose_det_faulty", TrafficPattern::Transpose, RoutingMode::Deterministic, 5,
     0.005},
    {"transpose_adp_faultfree", TrafficPattern::Transpose, RoutingMode::Adaptive, 0,
     0.006},
    {"transpose_adp_faulty", TrafficPattern::Transpose, RoutingMode::Adaptive, 5,
     0.005},
    // Two-word router rows: a 3-cube router has 7 ports, so V=10 gives 70
    // input units — the paper's fault-experiment router shape, and the
    // batched link pass's W=2 instantiation.
    {"multiword_adp_faulty", TrafficPattern::Uniform, RoutingMode::Adaptive, 3,
     0.008, 4, 3, 10},
};

SimConfig caseConfig(const EngineCase& c) {
  SimConfig cfg;
  cfg.radix = c.radix;
  cfg.dims = c.dims;
  cfg.vcs = c.vcs;
  cfg.messageLength = 16;
  cfg.pattern = c.pattern;
  cfg.routing = c.routing;
  cfg.faults.randomNodes = c.randomFaults;
  cfg.injectionRate = c.rate;
  cfg.reinjectDelay = c.randomFaults > 0 ? 20 : 0;  // exercise readyCycle
  cfg.warmupMessages = 200;
  cfg.measuredMessages = 700;
  cfg.maxCycles = 400'000;
  cfg.seed = 7;
  return cfg;
}

SimResult runWith(SimConfig cfg, EngineKind kind, int simThreads = 1) {
  cfg.engine = kind;
  cfg.simThreads = simThreads;
  return runSimulation(cfg);
}

// The sim_threads axis of the equivalence matrix: 1 (single-domain
// fallback), 2 and 3 (uneven 64-node partitions with mid-word boundaries),
// 8 (the tentpole's target width).
constexpr int kThreadAxis[] = {1, 2, 3, 8};

// Exact comparison, doubles included: the engines must draw the same RNG
// sequences and deliver the same messages in the same cycles, so even the
// floating-point accumulations are performed in the same order.
void expectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.meanLatency, b.meanLatency);
  EXPECT_EQ(a.latencyStddev, b.latencyStddev);
  EXPECT_EQ(a.maxLatency, b.maxLatency);
  EXPECT_EQ(a.latencyP50, b.latencyP50);
  EXPECT_EQ(a.latencyP95, b.latencyP95);
  EXPECT_EQ(a.latencyP99, b.latencyP99);
  EXPECT_EQ(a.latencyCi95, b.latencyCi95);
  EXPECT_EQ(a.meanHops, b.meanHops);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.generatedTotal, b.generatedTotal);
  EXPECT_EQ(a.deliveredTotal, b.deliveredTotal);
  EXPECT_EQ(a.deliveredMeasured, b.deliveredMeasured);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.offeredLoad, b.offeredLoad);
  EXPECT_EQ(a.messagesQueued, b.messagesQueued);
  EXPECT_EQ(a.absorbedMessages, b.absorbedMessages);
  EXPECT_EQ(a.reversals, b.reversals);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.deadlockSuspected, b.deadlockSuspected);
  EXPECT_EQ(a.completed, b.completed);
}

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineEquivalence, SparseMatchesDenseBitForBit) {
  const SimConfig cfg = caseConfig(GetParam());
  const SimResult dense = runWith(cfg, EngineKind::Dense);
  const SimResult sparse = runWith(cfg, EngineKind::Sparse);
  EXPECT_TRUE(dense.completed) << "case must finish within maxCycles";
  expectIdentical(dense, sparse);
}

TEST_P(EngineEquivalence, SparseMtMatchesDenseAtEveryThreadCount) {
  const SimConfig cfg = caseConfig(GetParam());
  const SimResult dense = runWith(cfg, EngineKind::Dense);
  EXPECT_TRUE(dense.completed) << "case must finish within maxCycles";
  for (const int threads : kThreadAxis) {
    const SimResult mt = runWith(cfg, EngineKind::SparseMt, threads);
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    expectIdentical(dense, mt);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineEquivalence, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<EngineCase>& info) {
                           return std::string(info.param.name);
                         });

// Recorded reference values for every equivalence-matrix case, captured from
// the dense reference engine (seed semantics plus the two ISSUE-2 injection
// fixes: peek-don't-pop requeue and the single unsigned VC-rotation draw).
// The uniform_det_faultfree and transpose_adp_faulty rows date from the PR
// that introduced the event-sparse engine; the other six 2-cube rows were
// recorded — from the dense oracle, unchanged by that PR — when the batched
// link pass landed, so every matrix corner is now pinned, not just compared
// engine-to-engine. The multiword row was recorded from the dense oracle
// when routers wider than one occupancy word joined the batched pass. Any
// change to these numbers means the engine's observable behaviour drifted —
// deliberate changes must re-record and justify in the commit message.
struct GoldenRecord {
  const char* name;
  std::uint64_t cycles;
  std::uint64_t generatedTotal;
  std::uint64_t deliveredTotal;
  std::uint64_t deliveredMeasured;
  std::uint64_t messagesQueued;
  double meanLatency;
  double meanHops;
};

// clang-format off
const GoldenRecord kGolden[] = {
    {"uniform_det_faultfree",   2301, 910, 900, 700,   0, 25.334285714285713, 4.0757142857142892},
    {"uniform_det_faulty",      3027, 920, 901, 701, 377, 43.37660485021398,  4.8088445078459383},
    {"uniform_adp_faultfree",   2310, 915, 901, 701,   0, 26.271041369472172, 4.0670470756062773},
    {"uniform_adp_faulty",      3013, 912, 900, 700, 122, 30.648571428571419, 4.2942857142857145},
    {"transpose_det_faultfree", 2720, 915, 900, 700,   0, 29.107142857142865, 4.7371428571428567},
    {"transpose_det_faulty",    3864, 906, 900, 700, 442, 52.297142857142823, 5.654285714285713},
    {"transpose_adp_faultfree", 2712, 910, 900, 700,   0, 25.731428571428562, 4.742857142857142},
    {"transpose_adp_faulty",    3849, 904, 900, 700, 157, 34.092857142857142, 5.1085714285714285},
    {"multiword_adp_faulty",    1818, 923, 901, 701,  17, 26.201141226818834, 3.0684736091298133},
};
// clang-format on

TEST(EngineEquivalence, MatchesRecordedReferenceValues) {
  for (const GoldenRecord& golden : kGolden) {
    const EngineCase* found = nullptr;
    for (const EngineCase& c : kCases) {
      if (std::string(c.name) == golden.name) found = &c;
    }
    ASSERT_NE(found, nullptr) << golden.name;
    const SimResult r = runWith(caseConfig(*found), EngineKind::Sparse);
    EXPECT_EQ(r.cycles, golden.cycles) << golden.name;
    EXPECT_EQ(r.generatedTotal, golden.generatedTotal) << golden.name;
    EXPECT_EQ(r.deliveredTotal, golden.deliveredTotal) << golden.name;
    EXPECT_EQ(r.deliveredMeasured, golden.deliveredMeasured) << golden.name;
    EXPECT_EQ(r.messagesQueued, golden.messagesQueued) << golden.name;
    EXPECT_EQ(r.meanLatency, golden.meanLatency) << golden.name;
    EXPECT_EQ(r.meanHops, golden.meanHops) << golden.name;
  }
}

// The batched link pass commits winners port-by-port instead of walking
// (port, vc) pairs one at a time, so its *schedule* — which header crosses
// which link in which cycle — is the thing most at risk of silent drift.
// Pin it with literal event vectors on a hand-built contention scenario:
// messages 0/1 contend for the link (1,0)->(2,0), messages 2/3 for the
// ejection channel at (2,2). Captured from both engines (identical) when
// the batched pass landed. A diff here means the arbitration order changed.
void runPinnedContention(EngineKind engine, int simThreads) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.injectionRate = 0.0;  // only the four hand-injected messages
  cfg.warmupMessages = 0;
  cfg.measuredMessages = 4;
  cfg.engine = engine;
  cfg.simThreads = simThreads;
  TraceRecorder trace;
  Network net(cfg);
  net.attachTrace(&trace);
  const auto at = [&](int x, int y) {
    Coordinates c;
    c.digit = {static_cast<std::int16_t>(x), static_cast<std::int16_t>(y)};
    return net.topology().idOf(c);
  };
  net.injectTestMessage(at(0, 0), at(2, 0), 4, RoutingMode::Deterministic);
  net.injectTestMessage(at(1, 0), at(3, 0), 4, RoutingMode::Deterministic);
  net.injectTestMessage(at(2, 0), at(2, 2), 4, RoutingMode::Deterministic);
  net.injectTestMessage(at(2, 3), at(2, 2), 4, RoutingMode::Deterministic);
  net.run();

  struct PinnedEvent {
    TraceEvent::Kind kind;
    std::uint64_t cycle;
    NodeId node;
    std::uint8_t port;
  };
  using K = TraceEvent::Kind;
  // clang-format off
  const std::vector<std::vector<PinnedEvent>> expected = {
      // seq 0: header stalls at node 1 cycles 2-4 behind seq 1's data flits.
      {{K::Inject, 0, 0, 0}, {K::Hop, 1, 0, 0}, {K::Hop, 5, 1, 0}, {K::Deliver, 9, 2, 0}},
      {{K::Inject, 0, 1, 0}, {K::Hop, 1, 1, 0}, {K::Hop, 2, 2, 0}, {K::Deliver, 6, 3, 0}},
      // seqs 2/3: ejection at node 10 serialises the tails (cycles 8 and 9).
      {{K::Inject, 0, 2, 0}, {K::Hop, 1, 2, 2}, {K::Hop, 2, 6, 2}, {K::Deliver, 9, 10, 0}},
      {{K::Inject, 0, 14, 0}, {K::Hop, 1, 14, 3}, {K::Deliver, 8, 10, 0}},
  };
  // clang-format on
  ASSERT_EQ(trace.messageCount(), expected.size());
  for (std::uint32_t seq = 0; seq < expected.size(); ++seq) {
    const auto& events = trace.eventsFor(seq);
    ASSERT_EQ(events.size(), expected[seq].size()) << "seq " << seq;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].kind, expected[seq][i].kind) << "seq " << seq << " event " << i;
      EXPECT_EQ(events[i].cycle, expected[seq][i].cycle) << "seq " << seq << " event " << i;
      EXPECT_EQ(events[i].node, expected[seq][i].node) << "seq " << seq << " event " << i;
      EXPECT_EQ(events[i].port, expected[seq][i].port) << "seq " << seq << " event " << i;
    }
  }
}

TEST(EngineEquivalence, PinnedHopVectorsUnderContention) {
  runPinnedContention(EngineKind::Sparse, 1);
}

// The same pinned commit schedule from the mt engine with the 16-node mesh
// split into 5 domains: the contended link (1,0)->(2,0) and the ejection
// contention at (2,2) both cross domain boundaries, so the deferred
// cross-domain push/pop exchange must reproduce the exact dense schedule.
TEST(EngineEquivalence, PinnedHopVectorsUnderContentionSparseMt) {
  runPinnedContention(EngineKind::SparseMt, 5);
}

// Event-for-event trace agreement on a loaded case: the full per-message
// (kind, cycle, node, port) streams — not just the end-of-run aggregates —
// must coincide between the engines. This is the commit-order contract at
// its finest observable granularity.
TEST(EngineEquivalence, HopTracesMatchDenseEventForEvent) {
  SimConfig cfg = caseConfig(kCases[7]);  // transpose_adp_faulty: the busiest
  cfg.measuredMessages = 300;             // keep the traced volume bounded
  TraceRecorder dense, sparse, mt;
  {
    SimConfig d = cfg;
    d.engine = EngineKind::Dense;
    Network net(d);
    net.attachTrace(&dense);
    net.run();
  }
  {
    SimConfig s = cfg;
    s.engine = EngineKind::Sparse;
    Network net(s);
    net.attachTrace(&sparse);
    net.run();
  }
  {
    SimConfig m = cfg;
    m.engine = EngineKind::SparseMt;
    m.simThreads = 8;
    Network net(m);
    net.attachTrace(&mt);
    net.run();
  }
  for (const TraceRecorder* other : {&sparse, &mt}) {
    ASSERT_EQ(dense.messageCount(), other->messageCount());
    ASSERT_EQ(dense.eventCount(), other->eventCount());
    ASSERT_GT(dense.eventCount(), 0u);
    for (const std::uint32_t seq : dense.tracedMessages()) {
      const auto& d = dense.eventsFor(seq);
      const auto& s = other->eventsFor(seq);
      ASSERT_EQ(d.size(), s.size()) << "seq " << seq;
      for (std::size_t i = 0; i < d.size(); ++i) {
        ASSERT_TRUE(d[i].kind == s[i].kind && d[i].cycle == s[i].cycle &&
                    d[i].node == s[i].node && d[i].port == s[i].port)
            << "seq " << seq << " event " << i << " diverges (cycle " << d[i].cycle
            << " vs " << s[i].cycle << ")";
      }
    }
  }
}

// Lockstep: both engines stepped cycle by cycle must agree on every counter
// at every cycle, and both must keep the microarchitectural invariants.
// Tally flits per message across every input-VC buffer of `net`, reading
// whichever storage its engine actually uses (arena for sparse, legacy
// RouterState for dense). Asserts credit safety along the way: no buffer
// ever holds more flits than its depth. Credits are implicit (one credit =
// one free downstream slot), so this is exactly "per-link credits never
// exceed the buffer depth" — the batched link pass hoists the credit read
// out of the arbitration loop, and this pins that the hoist can never admit
// an overfill. For the sparse engine it also checks the arena's credit-sink
// row (the fake "downstream" the ejection port points at) stays all-zero:
// ejection must never be throttled by it and nothing may push through it.
std::unordered_map<MsgId, int> bufferTally(const Network& net, int cycle) {
  std::unordered_map<MsgId, int> buffered;
  const NodeId nodes = net.topology().nodeCount();
  if (net.config().engine != EngineKind::Dense) {
    const RouterArena& a = net.arena();
    for (NodeId id = 0; id < nodes; ++id) {
      for (int u = 0; u < a.unitsPerRouter(); ++u) {
        const int g = a.base(id) + u;
        const int sz = a.size(g);
        EXPECT_LE(sz, a.depth()) << "overfilled unit " << g << " cycle " << cycle;
        for (int i = 0; i < sz; ++i) ++buffered[a.flitAt(g, i).msg];
      }
    }
    for (int vc = 0; vc < a.vcs(); ++vc) {
      EXPECT_EQ(a.size(a.creditSinkBase() + vc), 0)
          << "credit sink dirtied, vc " << vc << " cycle " << cycle;
    }
  } else {
    for (const RouterState& r : NetworkTestAccess::legacy(net)) {
      for (int u = 0; u < r.unitCount(); ++u) {
        const FlitFifo& buf = r.unit(u).buf;
        EXPECT_LE(buf.size(), buf.capacity())
            << "overfilled unit " << u << " cycle " << cycle;
        for (int i = 0; i < buf.size(); ++i) ++buffered[buf.flitAt(i).msg];
      }
    }
  }
  return buffered;
}

// Per-cycle flit conservation, checked in lockstep:
//
//  1. The two engines' per-message buffer tallies are identical — every
//     message has exactly the same number of flits resident in each network.
//  2. Against the dense reference's transport counters (dense increments
//     Message::flitsEjected unconditionally; the sparse engine only does so
//     in debug builds), every buffered message balances: flits buffered ==
//     flits injected in its current network segment (NodeState::nextFlit
//     while streaming, the full length once the tail left the source) minus
//     flits ejected in that segment. No flit is lost, duplicated, or left
//     behind by the batched commit — caught at the cycle it happens, not
//     hundreds of cycles later in a diverged SimResult.
void checkConservation(const Network& dense, const Network& sparse, int cycle) {
  const std::unordered_map<MsgId, int> bufD = bufferTally(dense, cycle);
  const std::unordered_map<MsgId, int> bufS = bufferTally(sparse, cycle);
  ASSERT_EQ(bufD.size(), bufS.size()) << "buffered message sets differ, cycle " << cycle;
  for (const auto& [msg, count] : bufD) {
    const auto it = bufS.find(msg);
    ASSERT_TRUE(it != bufS.end()) << "message " << msg << " buffered only in dense, cycle " << cycle;
    ASSERT_EQ(count, it->second) << "buffered flit count diverges for message " << msg << ", cycle " << cycle;
  }
  // Injection progress of the segment each streaming message is on.
  std::unordered_map<MsgId, int> streamingFlits;
  for (NodeId id = 0; id < dense.topology().nodeCount(); ++id) {
    const NodeState& n = dense.node(id);
    if (n.streaming != kInvalidMsg) streamingFlits[n.streaming] = n.nextFlit;
  }
  for (const auto& [msg, count] : bufD) {
    const Message& m = dense.pool().get(msg);
    const auto it = streamingFlits.find(msg);
    const int injected = it != streamingFlits.end() ? it->second : m.length;
    ASSERT_EQ(count, injected - static_cast<int>(m.flitsEjected))
        << "flit imbalance for message " << msg << " at cycle " << cycle
        << " (injected this segment " << injected << ", ejected "
        << m.flitsEjected << ")";
  }
}

void runLockstep(const SimConfig& cfg) {
  SimConfig denseCfg = cfg;
  denseCfg.engine = EngineKind::Dense;
  SimConfig sparseCfg = cfg;
  sparseCfg.engine = EngineKind::Sparse;
  // The mt engine joins the lockstep at three domains: 16 nodes split 6/5/5,
  // so cross-domain links and mid-word domain boundaries are exercised on
  // every cycle, and the invariant validator sees the post-commit arena.
  SimConfig mtCfg = cfg;
  mtCfg.engine = EngineKind::SparseMt;
  mtCfg.simThreads = 3;
  Network dense(denseCfg);
  Network sparse(sparseCfg);
  Network mt(mtCfg);
  for (int c = 0; c < 500; ++c) {
    dense.step(1);
    sparse.step(1);
    mt.step(1);
    ASSERT_EQ(dense.generated(), sparse.generated()) << "cycle " << c;
    ASSERT_EQ(dense.delivered(), sparse.delivered()) << "cycle " << c;
    ASSERT_EQ(dense.inFlight(), sparse.inFlight()) << "cycle " << c;
    ASSERT_EQ(dense.generated(), mt.generated()) << "cycle " << c;
    ASSERT_EQ(dense.delivered(), mt.delivered()) << "cycle " << c;
    ASSERT_EQ(dense.inFlight(), mt.inFlight()) << "cycle " << c;
    ASSERT_NO_FATAL_FAILURE(checkConservation(dense, sparse, c));
    ASSERT_NO_FATAL_FAILURE(checkConservation(dense, mt, c));
    // Arena-invariant oracle: every cycle, recompute the incremental
    // qualification bitmaps (fresh/creditOk/downOk/portMembers + feeder
    // edges) from scratch from scalar state and require exact equality
    // with the incrementally-maintained masks.
    ASSERT_EQ(sparse.arena().auditMasks(sparse.now() - 1), "") << "cycle " << c;
    ASSERT_EQ(mt.arena().auditMasks(mt.now() - 1), "") << "cycle " << c;
    if (c % 25 == 0) {
      ASSERT_EQ(dense.validateInvariants(), "") << "cycle " << c;
      ASSERT_EQ(sparse.validateInvariants(), "") << "cycle " << c;
      ASSERT_EQ(mt.validateInvariants(), "") << "cycle " << c;
    }
  }
}

TEST(EngineEquivalence, LockstepCountersAndInvariants) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  cfg.vcs = 2;
  cfg.messageLength = 8;
  cfg.injectionRate = 0.02;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  cfg.seed = 11;
  runLockstep(cfg);
}

// The same lockstep on two-word router rows (4-ary 3-cube, V=10: 70 units
// per router) with faults, so the W=2 link pass, the cross-word round-robin
// pick and absorption/re-injection all run under the per-cycle mask audit.
TEST(EngineEquivalence, LockstepCountersAndInvariantsTwoWordRows) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 3;
  cfg.vcs = 10;
  cfg.messageLength = 8;
  cfg.injectionRate = 0.03;
  cfg.routing = RoutingMode::Adaptive;
  cfg.faults.randomNodes = 3;
  cfg.reinjectDelay = 20;
  cfg.warmupMessages = 0;
  cfg.measuredMessages = ~std::uint32_t{0};
  cfg.seed = 13;
  ASSERT_EQ(Network(cfg).arena().occWordsPerRouter(), 2);
  runLockstep(cfg);
}

// Every router row width the configuration space allows (kMaxDims = 8 and
// V <= 16 bound a router at 17 x 16 = 272 units, five words) runs its own
// instantiation of the batched link pass; each must match the dense oracle
// exactly. Small radices keep the wide routers cheap: the 2-ary 8-cube is
// 256 nodes of 272 units.
TEST(EngineEquivalence, SparseMatchesDenseAtEveryRowWidth) {
  struct WidthCase {
    int words, radix, dims, vcs;
    RoutingMode routing;
    int faults;
  };
  const WidthCase cases[] = {
      {2, 4, 3, 12, RoutingMode::Deterministic, 2},
      {3, 3, 4, 16, RoutingMode::Adaptive, 2},
      {4, 2, 6, 16, RoutingMode::Adaptive, 0},
      {5, 2, 8, 16, RoutingMode::Deterministic, 0},
  };
  for (const WidthCase& w : cases) {
    SimConfig cfg;
    cfg.radix = w.radix;
    cfg.dims = w.dims;
    cfg.vcs = w.vcs;
    cfg.routing = w.routing;
    cfg.faults.randomNodes = w.faults;
    cfg.reinjectDelay = 10;
    cfg.messageLength = 8;
    cfg.injectionRate = 0.01;
    cfg.warmupMessages = 100;
    cfg.measuredMessages = 2000;
    cfg.maxCycles = 200'000;
    cfg.seed = 21;
    SCOPED_TRACE("W=" + std::to_string(w.words));
    ASSERT_EQ(Network(cfg).arena().occWordsPerRouter(), w.words);
    const SimResult dense = runWith(cfg, EngineKind::Dense);
    EXPECT_TRUE(dense.completed);
    EXPECT_GT(dense.deliveredMeasured, 0u);
    expectIdentical(dense, runWith(cfg, EngineKind::Sparse));
  }
}

// runSweep must be a pure function of the points: thread count and
// completion order must not leak into any row.
TEST(EngineEquivalence, SweepDeterministicAcrossThreadCounts) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 10; ++i) {
    SweepPoint p;
    p.label = catName({"p", std::to_string(i)});
    p.cfg.radix = 4;
    p.cfg.dims = 2;
    p.cfg.vcs = 2;
    p.cfg.messageLength = 4;
    p.cfg.injectionRate = 0.002 + 0.002 * (i % 5);
    p.cfg.warmupMessages = 50;
    p.cfg.measuredMessages = 300;
    p.cfg.maxCycles = 200'000;
    p.cfg.seed = 40 + static_cast<std::uint64_t>(i);
    p.cfg.engine = (i % 2 == 0) ? EngineKind::Sparse : EngineKind::Dense;
    points.push_back(p);
  }
  const auto serial = runSweep(points, 1);
  const auto parallel = runSweep(points, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].point.label, parallel[i].point.label);
    expectIdentical(serial[i].result, parallel[i].result);
  }
}

// The engine selector must be reachable from config strings (CLI sweeps).
TEST(EngineEquivalence, EngineKeyParses) {
  SimConfig cfg;
  applyConfigAssignment(cfg, "engine=dense");
  EXPECT_EQ(cfg.engine, EngineKind::Dense);
  applyConfigAssignment(cfg, "engine=sparse");
  EXPECT_EQ(cfg.engine, EngineKind::Sparse);
  applyConfigAssignment(cfg, "engine=sparse-mt");
  EXPECT_EQ(cfg.engine, EngineKind::SparseMt);
  applyConfigAssignment(cfg, "sim_threads=8");
  EXPECT_EQ(cfg.simThreads, 8);
  EXPECT_THROW(applyConfigAssignment(cfg, "engine=warp"), std::invalid_argument);
  EXPECT_THROW(applyConfigAssignment(cfg, "sim_threads=0"), std::invalid_argument);
  EXPECT_THROW(applyConfigAssignment(cfg, "sim_threads=-2"), std::invalid_argument);
}

}  // namespace
}  // namespace swft
