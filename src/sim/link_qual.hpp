// The link-candidate qualification pass and round-robin pick shared by the
// sparse engine's batched link traversal (engine.cpp) and the sparse-mt
// engine's parallel candidate-card precomputation (engine_mt.cpp).
//
// Since the arena keeps freshness, downstream credit and port membership as
// incrementally-maintained bitmaps (router_arena.hpp, DESIGN.md §8), the
// pass is pure word arithmetic — no per-candidate loop, no credit callable.
// Per word of the router's W-word row:
//
//   ok          = fresh & downOk            (fresh ⊆ occ, downOk ⊆ routed,
//                                            so no extra live AND is needed)
//   okp[port]   = ok & portMembers[port]    (SIMD sweep over the contiguous
//                                            per-port membership rows)
//   blocked     = fresh & routed & ~downOk  (optional: candidates stalled
//                                            only on credit)
//
// The mt engine consumes `blocked` at P1: its baton re-checks exactly those
// bits against virtual credits (size_ + sizeDelta_), keeping the callable
// form off the fast path. A card candidate's credit can only *improve*
// before its router's baton turn (pops by earlier routers free slots; the
// only pusher into its downstream unit is this router itself, by output-VC
// ownership), so qualified-at-snapshot candidates never need re-checking —
// see DESIGN.md §6.
//
// Both helpers are templated on the row width W = arena.occWordsPerRouter(),
// chosen once per network (2 * kMaxDims + 1 ports x kMaxVcs VCs bounds a
// router at 272 units, i.e. W <= kMaxRowWords = 5). The pass *assigns*
// okp[0 .. ports * W) — callers need no zeroing prelude.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "src/routing/vc_partition.hpp"
#include "src/sim/router_arena.hpp"
#include "src/util/simd.hpp"

namespace swft {

/// Ports of the widest router (2n network ports + ejection at n = kMaxDims).
inline constexpr int kMaxRouterPorts = 2 * kMaxDims + 1;
/// Words of the widest router row the engines instantiate the pass for.
inline constexpr int kMaxRowWords = (kMaxRouterPorts * kMaxVcs + 63) / 64;
static_assert(kMaxRowWords == 5);

/// One pass over router `id`'s qualification bitmaps: qualified candidate
/// bits land in okp[port * W .. port * W + W) (all `ports` rows assigned),
/// and the returned mask has bit `port` set iff the port has at least one
/// qualified candidate. When `blockedOut` is non-null its W words receive
/// the fresh-but-credit-starved candidate bits. The ejection port's
/// downstream is the arena's credit sink, whose creditOk_ bits are pinned
/// set, so no candidate needs a locality branch.
template <int W = 1>
[[gnu::always_inline]] inline std::uint64_t qualifyLinkCandidates(
    const RouterArena& a, NodeId id, std::uint64_t* okp, int ports,
    std::uint64_t* blockedOut = nullptr) {
  assert(a.occWordsPerRouter() == W);
  const std::uint64_t* fresh = a.freshWords(id);
  const std::uint64_t* downOk = a.downOkWords(id);
  std::uint64_t ok[W];
  for (int w = 0; w < W; ++w) ok[w] = fresh[w] & downOk[w];
  if (blockedOut != nullptr) {
    const std::uint64_t* routed = a.routedWords(id);
    for (int w = 0; w < W; ++w) blockedOut[w] = fresh[w] & routed[w] & ~downOk[w];
  }
  return simd::qualifyPortRows<W>(ok, a.portMembers(id, 0), okp, ports);
}

/// The round-robin winner of one port: the first set bit of the W x 64-bit
/// row `row` at or after unit `cur`, wrapping past the end of the row —
/// taken with one rotate of the whole row. Rotating right by `cur` moves
/// bit u to (u - cur) mod 64W, so the lowest rotated bit is the first
/// candidate in circular order from the cursor. Bits at or past
/// unitsPerRouter are always clear, so restricted to set bits that order
/// is exactly the dense reference's circular order over unitsPerRouter
/// units: the result is its min-key winner. `row` must be nonzero and
/// `cur` below 64W.
template <int W>
[[gnu::always_inline]] inline int pickCircular(const std::uint64_t* row,
                                               int cur) noexcept {
  if constexpr (W == 1) {
    return (cur + std::countr_zero(std::rotr(row[0], cur))) & 63;
  } else {
    constexpr int kBits = 64 * W;
    // Rotated word i holds row bits [cur + 64i, cur + 64i + 64) mod 64W: a
    // funnel shift of row words ws + i and ws + i + 1 (mod W). The double
    // shift keeps the high half well-defined (and zero) when bs == 0. The
    // words are scanned high to low with a select, not a branch, so the
    // lowest nonzero one wins without a data-dependent jump.
    const int ws = cur >> 6;
    const int bs = cur & 63;
    int off = kBits;
    for (int i = W - 1; i >= 0; --i) {
      const int lo = ws + i < W ? ws + i : ws + i - W;
      const int hi = lo + 1 < W ? lo + 1 : 0;
      const std::uint64_t r = (row[lo] >> bs) | ((row[hi] << 1) << (63 - bs));
      off = r != 0 ? 64 * i + std::countr_zero(r) : off;
    }
    assert(off < kBits && "pickCircular on an empty row");
    const int u = cur + off;
    return u < kBits ? u : u - kBits;
  }
}

}  // namespace swft
