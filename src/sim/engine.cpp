// The per-cycle wormhole pipeline: generation/injection, route computation +
// virtual-channel allocation, switch allocation + link traversal, ejection.
//
// Timing model (paper assumptions (f), (g)): routing decisions take Td
// cycles (0 in all paper experiments); a flit crosses one link per cycle
// when the downstream buffer has a free slot. A flit that arrived in cycle t
// becomes eligible to depart in cycle t+1, which yields exactly one
// cycle/hop end to end.
//
// This file is the event-sparse production engine: the generation calendar
// yields only due PEs, the nodeWork_ bitset yields only PEs with
// queued/streaming messages, and the arena's active set yields only routers
// with any occupied input unit. The dense reference engine (the seed
// implementation) lives in engine_dense.cpp.
//
// The sparse walks visit exactly the nodes whose step functions would do
// observable work, in exactly the order the dense sweep visits them — so the
// two engines draw the same RNG sequences and produce bit-identical results
// (enforced by tests/test_engine_equivalence.cpp). Invariant for future
// edits: activity tracking may skip provably-dead work, never reorder or
// change live work.
#include <bit>
#include <cassert>

#include "src/sim/engine_mt.hpp"
#include "src/sim/link_qual.hpp"
#include "src/sim/network.hpp"
#include "src/util/simd.hpp"

// Per-phase wall-clock breakdown is a *runtime* option now (`phase_timers=1`
// on the swft_sim command line, `--phase-timers` on swft_bench): PhaseClock
// against Network::phaseShard(0), a no-op when the flag is off. The old
// SWFT_PHASE_TIMERS compile-time define is gone.

// Temporary event-count instrumentation (diagnostics only, off by default).
#ifdef SWFT_EVENT_COUNTS
#include <cstdio>
#include <x86intrin.h>
namespace {
struct EventCounts {
  unsigned long long cycles = 0, routers = 0, phaseAUnits = 0, livePorts = 0,
                     okIters = 0, commits = 0, ejections = 0, ejCand = 0;
  unsigned long long tPhaseA = 0, tQual = 0, tWinners = 0, tOther = 0;
  unsigned long long tPop = 0, tPush = 0, tEject = 0;
  unsigned long long tGen = 0, tInj = 0, tWalk = 0;
  ~EventCounts() {
    std::fprintf(stderr,
                 "event counts per cycle: routers %.2f phaseA %.2f livePorts "
                 "%.2f okIters %.2f commits %.2f ejCand %.2f ejections %.2f\n",
                 1.0 * routers / cycles, 1.0 * phaseAUnits / cycles,
                 1.0 * livePorts / cycles, 1.0 * okIters / cycles,
                 1.0 * commits / cycles, 1.0 * ejCand / cycles,
                 1.0 * ejections / cycles);
    std::fprintf(stderr,
                 "tsc per cycle: phaseA %.0f qual %.0f winners %.0f other %.0f "
                 "pop %.0f push %.0f eject %.0f\n",
                 1.0 * tPhaseA / cycles, 1.0 * tQual / cycles,
                 1.0 * tWinners / cycles, 1.0 * tOther / cycles,
                 1.0 * tPop / cycles, 1.0 * tPush / cycles,
                 1.0 * tEject / cycles);
    std::fprintf(stderr, "tsc per cycle: gen %.0f inj %.0f walk %.0f\n",
                 1.0 * tGen / cycles, 1.0 * tInj / cycles, 1.0 * tWalk / cycles);
  }
} g_ec;
}  // namespace
#define SWFT_EC_ADD(field, n) g_ec.field += static_cast<unsigned long long>(n)
#define SWFT_EC_TSC(field, stmt)                  \
  do {                                            \
    const unsigned long long t0_ = __rdtsc();     \
    stmt;                                         \
    g_ec.field += __rdtsc() - t0_;                \
  } while (0)
// Fine-grained (per-pop/push) pairs distort the enclosing buckets by the
// rdtsc cost; enable them separately.
#ifdef SWFT_EVENT_COUNTS_FINE
#define SWFT_EC_TSC_F(field, stmt) SWFT_EC_TSC(field, stmt)
#else
#define SWFT_EC_TSC_F(field, stmt) stmt
#endif
#else
#define SWFT_EC_ADD(field, n)
#define SWFT_EC_TSC(field, stmt) stmt
#define SWFT_EC_TSC_F(field, stmt) stmt
#endif

namespace swft {

void Network::advanceCycle() {
  if (cfg_.engine == EngineKind::Dense) {
    advanceCycleDense();
  } else if (cfg_.engine == EngineKind::SparseMt) {
    mt_->advanceCycle();
  } else {
    advanceCycleSparse();
  }
  ++cycle_;

  // Deadlock watchdog (invariant: must never fire; see tests).
  if (pool_.liveCount() > 0 && cycle_ - lastMovementCycle_ > cfg_.deadlockWindow) {
    deadlockSuspected_ = true;
  }
}

void Network::advanceCycleSparse() {
  PhaseClock clock(phaseShard(0));
  SWFT_EC_ADD(cycles, 1);
  // Phase 1a: generation, due PEs only. The calendar returns them ascending
  // by id — the order the dense sweep would reach them — so the global
  // generation sequence numbers match. Generation touches no injection
  // state of *other* nodes, so running all generations before all
  // injections is observationally identical to the dense gen/inj interleave.
  SWFT_EC_TSC(tGen, for (NodeId id : calendar_.takeDue(cycle_)) {
    stepGeneration(id);
    const std::uint64_t next = nodes_[id].nextGenCycle;
    if (next != ~std::uint64_t{0}) calendar_.schedule(id, next);
  });

  clock.mark(PhaseBreakdown::kGen);
  // Phase 1b: injection, only PEs with queued or streaming work, ascending.
  // stepInjection on a workless node is a no-op with no RNG draws, so the
  // conservative bitset (cleared lazily here) cannot change results.
  // (stepInjection never marks work on other nodes, so the SIMD skip over
  // zero words cannot miss a bit set mid-walk.)
  SWFT_EC_TSC(tInj, for (std::size_t w = simd::findNonZero(nodeWork_.data(), 0,
                                                           nodeWork_.size());
                         w < nodeWork_.size();
                         w = simd::findNonZero(nodeWork_.data(), w + 1,
                                               nodeWork_.size())) {
    std::uint64_t bits = nodeWork_[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      if (stepInjection(id)) nodeWork_[w] &= ~(1ULL << b);
    }
  });

  clock.mark(PhaseBreakdown::kInj);
  // Phase 2+3: walk the live active set in the alternating sweep direction.
  // stepRouter can activate a *downstream* router mid-sweep (a flit pushed
  // into a previously-empty buffer); the dense sweep visits such a router
  // if and only if it lies later in sweep order, so the walk re-reads the
  // current word after every step instead of iterating a stale snapshot.
  // The SIMD scan to the next nonzero word is safe for the same reason the
  // per-word re-read is: a mid-sweep activation the dense sweep would visit
  // lies *later* in sweep order than the router that caused it, i.e. at or
  // after the scan position; a word skipped as zero can only have gained
  // bits the dense sweep would also skip this cycle.
  //
  // The walk and the router step are instantiated per router row width W
  // (occupancy words per router, fixed by the arena geometry), so the
  // switch below is the only place the width is tested — once per cycle,
  // never per router.
  SWFT_EC_TSC(tWalk, switch (arena_.occWordsPerRouter()) {
    case 1: walkRouters<1>(); break;
    case 2: walkRouters<2>(); break;
    case 3: walkRouters<3>(); break;
    case 4: walkRouters<4>(); break;
    default:
      assert(arena_.occWordsPerRouter() == kMaxRowWords);
      walkRouters<kMaxRowWords>();
      break;
  });
  // Cycle-end boundary: mature the freshness snapshots (fronts pushed this
  // cycle become eligible next cycle) after the last push/pop of the cycle.
  SWFT_EC_TSC(tOther, arena_.matureFreshness());
  clock.mark(PhaseBreakdown::kWalk);
}

template <int W>
void Network::walkRouters() {
  const std::vector<std::uint64_t>& active = arena_.activeWords();
  if ((cycle_ & 1) == 0) {
    for (std::size_t w = simd::findNonZero(active.data(), 0, active.size());
         w < active.size();
         w = simd::findNonZero(active.data(), w + 1, active.size())) {
      std::uint64_t bits = active[w];
      while (bits) {
        const int b = std::countr_zero(bits);
        stepRouter<W>(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits = (b == 63) ? 0 : (active[w] & (~0ULL << (b + 1)));
      }
    }
  } else {
    for (std::size_t w = simd::findNonZeroDown(active.data(), active.size() - 1);
         w != simd::kNone;
         w = (w == 0) ? simd::kNone : simd::findNonZeroDown(active.data(), w - 1)) {
      std::uint64_t bits = active[w];
      while (bits) {
        const int b = 63 - std::countl_zero(bits);
        stepRouter<W>(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits = active[w] & ((1ULL << b) - 1);
      }
    }
  }
}

void Network::stepGeneration(NodeId id) {
  NodeState& node = nodes_[id];
  while (node.nextGenCycle <= cycle_) {
    const NodeId dest = traffic_.pickDestination(id, node.rng);
    node.nextGenCycle += node.rng.geometric(cfg_.injectionRate);
    if (dest == kInvalidNode) continue;  // permutation maps to self/faulty
    const MsgId msgId = pool_.allocate();
    Message& m = pool_.get(msgId);
    m.src = id;
    m.finalDest = dest;
    m.curTarget = dest;
    m.seq = genSeq_++;
    m.genCycle = cycle_;
    m.length = static_cast<std::uint16_t>(cfg_.messageLength);
    m.mode = cfg_.routing;
    node.sourceQueue.push_back(msgId);
    markNodeWork(id);
    ++generatedTotal_;
    if (!windowOpen_ && genSeq_ >= cfg_.warmupMessages) {
      windowOpen_ = true;
      windowStartCycle_ = cycle_;
    }
  }
}

bool Network::stepInjection(NodeId id) {
  NodeState& node = nodes_[id];
  const int injPort = topo_.localPort();

  // Pick the next message to stream: absorbed messages have priority over
  // new messages (paper §4, starvation prevention). Peek, don't pop — if
  // every injection VC turns out to be busy the message must stay exactly
  // where it is, keeping its readyCycle and its absorbed-over-new priority.
  if (node.streaming == kInvalidMsg) {
    MsgId next = kInvalidMsg;
    bool fromSwQueue = false;
    if (!node.swQueue.empty() && node.swQueue.front().readyCycle <= cycle_) {
      next = node.swQueue.front().msg;
      fromSwQueue = true;
    } else if (!node.sourceQueue.empty()) {
      next = node.sourceQueue.front();
    }
    // Idle exactly when both queues are drained (a waiting reinjection
    // with a future readyCycle still counts as work).
    if (next == kInvalidMsg) return node.swQueue.empty() && node.sourceQueue.empty();
    // Choose an injection VC whose buffer is empty; rotate the start index
    // (one RNG draw, unsigned arithmetic) to spread successive messages
    // over the V injection buffers.
    const auto start = static_cast<std::uint32_t>(engineRng_.next() >> 32);
    int chosenVc = -1;
    for (int i = 0; i < cfg_.vcs; ++i) {
      const int vc = static_cast<int>((start + static_cast<std::uint32_t>(i)) %
                                      static_cast<std::uint32_t>(cfg_.vcs));
      const int g = arena_.unitIndex(id, injPort, vc);
      if (arena_.empty(g) && !arena_.routed(g)) {
        chosenVc = vc;
        break;
      }
    }
    if (chosenVc < 0) return false;  // all injection buffers busy: retry later
    if (fromSwQueue) {
      node.swQueue.pop_front();
    } else {
      node.sourceQueue.pop_front();
    }
    node.streaming = next;
    node.streamVc = chosenVc;
    node.nextFlit = 0;
    Message& m = pool_.get(next);
    m.resetTransit();  // fresh network segment: wrap classes reset
    m.flitsEjected = 0;
    node.streamLen = m.length;  // flit kinds need no pool access per flit
    if (m.firstInjectCycle == ~std::uint64_t{0}) m.firstInjectCycle = cycle_;
  }

  // Stream one flit per cycle (injection channel bandwidth, assumption (g)).
  // The flit kind is Message::flitKindAt over the cached stream length, so
  // body/tail flits touch no pool state at all.
  const int unitIdx = arena_.unitIndex(id, injPort, node.streamVc);
  // Blocked on a full injection buffer: park the node (no RNG is drawn on
  // this path, so skipping the retry calls is invisible to the dense
  // reference). Any pop of an injection unit re-arms the work bit — see
  // commitLink/ejectFlit — and a full buffer that is never popped blocks
  // the dense engine's retries just the same.
  if (arena_.full(unitIdx)) return true;
  const int idx = node.nextFlit;
  const int len = node.streamLen;
  Flit f;
  f.msg = node.streaming;
  f.kind = len == 1            ? FlitKind::HeaderTail
           : idx == 0          ? FlitKind::Header
           : idx == len - 1    ? FlitKind::Tail
                               : FlitKind::Body;
  arena_.push(id, unitIdx, f, cycle_);
  lastMovementCycle_ = cycle_;
  // Headers stream only into empty units (the VC chooser above requires
  // emptiness), so idx == 0 is exactly "a new head appeared" — what the
  // sparse-mt walk needs to fold into its precomputed candidate cards.
  if (injFoldSink_ != nullptr && idx == 0) {
    injFoldSink_->emplace_back(id, static_cast<std::int32_t>(unitIdx));
  }
  if (trace_ != nullptr && idx == 0) {
    const Message& m = pool_.get(node.streaming);
    emitTrace({m.absorptions > 0 ? TraceEvent::Kind::Reinject
                                 : TraceEvent::Kind::Inject,
               cycle_, id, 0, m.seq});
  }
  ++node.nextFlit;
  if (f.isTail()) {
    node.streaming = kInvalidMsg;
    node.streamVc = -1;
    return node.swQueue.empty() && node.sourceQueue.empty();
  }
  return false;
}

void Network::routeHeader(NodeId id, int unitIdx) {
  const MsgId msgId = arena_.front(arena_.base(id) + unitIdx).msg;
  applyRouteDecision(id, unitIdx, msgId, computeRoute(pool_.get(msgId), id));
}

RouteDecision Network::computeRoute(const Message& msg, NodeId id) const {
  // Pure: routing functions take the message and network state by const
  // reference and draw no RNG, which is what lets the sparse-mt engine
  // precompute decisions in its parallel phase (DESIGN.md §6).
  if (msg.curTarget == id) return RouteDecision::deliver();
  if (msg.mode == RoutingMode::Adaptive) return duato_.route(msg, id, faults_, part_);
  return ecube_.route(msg, id, faults_, part_);
}

void Network::applyRouteDecision(NodeId id, int unitIdx, MsgId msgId,
                                 const RouteDecision& decision) {
  switch (decision.kind) {
    case RouteDecision::Kind::Deliver:
      arena_.allocateRoute(id, unitIdx, topo_.localPort(), 0,
                           cachedDownBase(id, topo_.localPort()));
      return;
    case RouteDecision::Kind::Absorb: {
      // The required outgoing channel leads to a fault: eject here and hand
      // the message to the messaging layer (assumption (i)).
      Message& msg = pool_.get(msgId);
      msg.blockedValid = true;
      msg.blockedDim = decision.blockedDim;
      msg.blockedDirStep = decision.blockedDirStep;
      arena_.allocateRoute(id, unitIdx, topo_.localPort(), 0,
                           cachedDownBase(id, topo_.localPort()));
      return;
    }
    case RouteDecision::Kind::Forward:
      break;
  }

  // Virtual-channel allocation: collect free output VCs over all candidates
  // and pick one at random (assumption (e): "chooses randomly one of the
  // available virtual channels ... that brings it closer to its destination").
  // The per-port free-VC bitmask mirrors outOwner state, so one AND replaces
  // the per-VC owner probes; bit iteration visits VCs in ascending order,
  // matching the dense reference's scan (and hence its RNG draw) exactly.
  InlineVector<std::uint16_t, 128> free;  // encoded port * 16 + vc
  for (const RouteCandidate& cand : decision.candidates) {
    std::uint32_t avail = cand.vcs & arena_.freeVcMask(id, cand.outPort);
    while (avail != 0 && free.size() < free.capacity()) {
      const int vc = std::countr_zero(avail);
      avail &= avail - 1;
      free.push_back(static_cast<std::uint16_t>(cand.outPort * 16 + vc));
    }
    if (free.size() == free.capacity()) break;
  }
  if (free.empty()) return;  // all admissible VCs busy: retry next cycle
  const std::uint16_t pick =
      free[engineRng_.uniform(static_cast<std::uint32_t>(free.size()))];
  const int outPort = pick / 16;
  const int outVc = pick % 16;
  arena_.allocateRoute(id, unitIdx, outPort, outVc,
                       cachedDownBase(id, outPort) + outVc);
  arena_.setOutOwner(id, outPort, outVc, static_cast<std::int16_t>(unitIdx));
}

template <int W>
void Network::stepRouter(NodeId id) {
  SWFT_EC_ADD(routers, 1);
  const int localPort = networkPorts_;
  const auto td = static_cast<std::uint64_t>(cfg_.routerDecisionTime);
  const int routerBase = arena_.base(id);
  const std::uint64_t* occ = arena_.occWords(id);

  // Phase A: route computation + VC allocation for occupied unrouted heads,
  // in ascending unit order. This is the only RNG-drawing part of a router
  // step, so the order must match the dense reference scan exactly.
  const std::uint64_t* routedW = arena_.routedWords(id);
  SWFT_EC_TSC(tPhaseA, {
    for (int w = 0; w < W; ++w) {
      std::uint64_t bits = occ[w] & ~routedW[w];
      while (bits) {
        const int unitIdx = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        const int g = routerBase + unitIdx;
        SWFT_EC_ADD(phaseAUnits, 1);
        if (!arena_.front(g).isHeader()) continue;
        if (td != 0 && arena_.frontArrival(g) + td > cycle_) continue;  // Td model
        routeHeader(id, unitIdx);
      }
    }
  });

  // Phase B: the batched link pass. One pass per output link, ascending port
  // order with the ejection port last: the link's candidates are its
  // membership row ANDed with the router's qualification row, and the first
  // eligible candidate in circular round-robin order from the port cursor —
  // exactly the min-key winner of the dense reference's full scan — commits
  // immediately.
  //
  // Fusing selection and commit per link is legal because links of one
  // router cannot interfere: a commit on port p pops a unit that requests
  // only p (route words are per-unit), pushes into neighbor(id, p)'s input
  // port p^1 while port q's credit line lives at neighbor(id, q)'s input
  // port q^1 (distinct unless p == q, even when both ports reach the same
  // neighbor on a radix-2 ring), and cursors are per-port. Hence every
  // eligibility probe reads exactly the state the dense engine's
  // select-all-then-commit pass would read. The ejection port commits last
  // so software-layer RNG draws (absorption replanning) stay in the dense
  // engine's position in the stream.
  //
  // Qualification is row loads and word ANDs against the arena's
  // incrementally maintained bitmaps — ok = fresh & downOk (freshness and
  // mapped downstream credit, each a superset-pruned subset of live), then
  // okp[port] = ok & portMembers[port] by the SIMD membership sweep, W words
  // per row. Reading all qualifications from pre-commit state is legal by
  // the non-interference argument above: no commit on port p changes port
  // q's candidates, their arrival stamps, or their downstream credit line.
  // The pass lives in link_qual.hpp, shared with the sparse-mt engine's P1
  // precomputation, and owns the okp rows outright (no zeroing prelude).
  std::uint64_t okp[kMaxRouterPorts * W];
  std::uint64_t pm;
  SWFT_EC_TSC(tQual,
              pm = qualifyLinkCandidates<W>(arena_, id, okp, localPort + 1));
  SWFT_EC_ADD(okIters, [&] {
    int n = 0;
    for (int w = 0; w < W; ++w) n += std::popcount(occ[w] & routedW[w]);
    return n;
  }());
  // Commit winners in ascending port order (only ports with a qualified
  // candidate), ejection (the highest port) last. Per port the winner is
  // taken with one rotate of the W x 64-bit row from the cursor — see
  // pickCircular for why that is the dense min-key winner.
  const int unitCount = arena_.unitsPerRouter();
  SWFT_EC_TSC(tWinners, while (pm != 0) {
    SWFT_EC_ADD(livePorts, 1);
    const int port = std::countr_zero(pm);
    pm &= pm - 1;
    const int winnerIdx = pickCircular<W>(okp + port * W, arena_.cursor(id, port));
    if (port == localPort) {
      arena_.setCursor(id, port,
                       static_cast<std::uint16_t>(
                           winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
      SWFT_EC_ADD(ejections, 1);
      SWFT_EC_TSC_F(tEject, ejectFlit(id, winnerIdx));
    } else {
      SWFT_EC_ADD(commits, 1);
      commitLink(id, port, winnerIdx);
    }
  });
}

inline void Network::commitLink(NodeId id, int port, int winnerIdx) {
  const int unitCount = arena_.unitsPerRouter();
  arena_.setCursor(id, port,
                   static_cast<std::uint16_t>(
                       winnerIdx + 1 == unitCount ? 0 : winnerIdx + 1));
  const int g = arena_.base(id) + winnerIdx;
  const int outVc = arena_.outVc(g);
  Flit flit;
  SWFT_EC_TSC_F(tPop, flit = arena_.pop(id, g, cycle_));
  lastMovementCycle_ = cycle_;
  // Draining an injection unit re-arms the owning PE: it may have been
  // parked by stepInjection while this buffer was full.
  if (winnerIdx >= networkPorts_ * cfg_.vcs) markNodeWork(id);

  // Only headers touch Message state on a link traversal: body/tail flits
  // skip the (random-access) pool load entirely.
  if (flit.isHeader()) {
    Message& msg = pool_.get(flit.msg);
    ++msg.hops;
    if (cachedWrap(id, port)) msg.setWrapped(dimOfPort(port));
    if (trace_ != nullptr) {
      emitTrace({TraceEvent::Kind::Hop, cycle_, id,
                 static_cast<std::uint8_t>(port), msg.seq});
    }
  }
  SWFT_EC_TSC_F(tPush, arena_.push(cachedNeighbor(id, port),
                                 cachedDownBase(id, port) + outVc, flit,
                                 cycle_));

  if (flit.isTail()) {
    arena_.releaseRoute(id, winnerIdx);
    arena_.setOutOwner(id, port, outVc, -1);
  }
}

inline void Network::ejectFlit(NodeId id, int unitIdx) {
  const int g = arena_.base(id) + unitIdx;
  const Flit flit = arena_.pop(id, g, cycle_);
  lastMovementCycle_ = cycle_;
  // Self-absorbed traffic can eject straight out of an injection unit; the
  // drain re-arms the owning PE just as a link traversal would.
  if (unitIdx >= networkPorts_ * cfg_.vcs) markNodeWork(id);

#ifndef NDEBUG
  // flitsEjected feeds only the partial-ejection assert in finalizeEjected;
  // body/tail ejections need no pool access in release builds.
  ++pool_.get(flit.msg).flitsEjected;
#endif
  if (flit.isTail()) {
    arena_.releaseRoute(id, unitIdx);
    finalizeEjected(id, flit.msg);
  }
}

void Network::finalizeEjected(NodeId id, MsgId msgId) {
  Message& msg = pool_.get(msgId);
  assert(msg.flitsEjected == msg.length && "partial message ejected");

  const bool software = msg.blockedValid || (msg.absorbAtTarget && msg.curTarget == id);
  if (trace_ != nullptr) {
    emitTrace({software ? TraceEvent::Kind::Absorb : TraceEvent::Kind::Deliver,
               cycle_, id, 0, msg.seq});
  }
  if (!software) {
    // Final delivery: the last data flit reached the destination PE.
    assert(id == msg.finalDest);
    ++deliveredTotal_;
    if (windowOpen_) ++deliveredInWindow_;
    if (msg.seq >= cfg_.warmupMessages) {
      ++deliveredMeasured_;
      latency_.add(static_cast<double>(cycle_ - msg.genCycle));
      hops_.add(static_cast<double>(msg.hops));
    }
    pool_.release(msgId);
    return;
  }

  // Software absorption: the messaging layer rewrites the header and queues
  // the message for re-injection after Δ cycles (assumption (i)).
  if (msg.absorptions == 0) ++absorbedMessages_;
  software_.planReroute(msg, id, engineRng_);
  scheduleReinjection(id, msgId);
}

void Network::scheduleReinjection(NodeId id, MsgId msgId) {
  nodes_[id].swQueue.push_back(
      PendingReinjection{msgId, cycle_ + static_cast<std::uint64_t>(cfg_.reinjectDelay)});
  markNodeWork(id);
}

}  // namespace swft
