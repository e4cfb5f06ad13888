// Thin SIMD layer for the engine's multi-word row sweeps: active-set and
// work-set walks (find the next/previous nonzero word) and the
// switch-allocation port sweep (AND one qualified router row against
// consecutive per-port membership rows, for rows of one or several words).
//
// Implementation: GCC/Clang generic vector extensions (vector_size), which
// compile to whatever the target ISA offers (SSE2/AVX2/NEON/...) and to
// plain scalar code elsewhere — no intrinsics, no runtime dispatch tables.
// Every helper also carries a scalar loop that is the *definition* of its
// result; the vector path merely skips ahead in bigger strides. The scalar
// path can be forced at runtime (SWFT_FORCE_SCALAR=1 in the environment, or
// setForceScalar() from tests), and the fuzz harness asserts bit-identical
// SimResults between the two modes.
//
// All loads go through std::memcpy, so no alignment is required of callers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace swft::simd {

#if defined(__GNUC__) || defined(__clang__)
#define SWFT_SIMD_VEC 1
typedef std::uint64_t V4 __attribute__((vector_size(32)));
#else
#define SWFT_SIMD_VEC 0
#endif

/// Compile-time ISA the vector extensions lower to (bench metadata).
[[nodiscard]] constexpr const char* isaName() noexcept {
#if !SWFT_SIMD_VEC
  return "scalar-only";
#elif defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

// -1 unset (read SWFT_FORCE_SCALAR on first use), else 0/1. Relaxed atomic:
// the flag is a mode switch flipped only between runs (tests, env), never
// mid-sweep, but mt workers read it concurrently.
inline std::atomic<int>& forceScalarState() noexcept {
  static std::atomic<int> state{-1};
  return state;
}

/// True when the scalar fallback paths are forced (SWFT_FORCE_SCALAR=1, or
/// setForceScalar(true)). Both modes produce bit-identical results; the
/// switch exists so the fallback stays tested and so benches can compare.
[[nodiscard]] inline bool forceScalar() noexcept {
  std::atomic<int>& s = forceScalarState();
  int v = s.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("SWFT_FORCE_SCALAR");
    v = (e != nullptr && e[0] != '\0' && e[0] != '0') ? 1 : 0;
    s.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

/// Test hook: override the environment-derived mode at runtime.
inline void setForceScalar(bool on) noexcept {
  forceScalarState().store(on ? 1 : 0, std::memory_order_relaxed);
}

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// First index in [from, n) with w[i] != 0, or n when none.
[[nodiscard]] inline std::size_t findNonZero(const std::uint64_t* w,
                                             std::size_t from,
                                             std::size_t n) noexcept {
  std::size_t i = from;
#if SWFT_SIMD_VEC
  if (!forceScalar()) {
    while (i + 4 <= n) {
      V4 v;
      std::memcpy(&v, w + i, sizeof v);
      if ((v[0] | v[1] | v[2] | v[3]) != 0) break;
      i += 4;
    }
  }
#endif
  while (i < n && w[i] == 0) ++i;
  return i;
}

/// Last index in [0, from] with w[i] != 0, or kNone when none.
[[nodiscard]] inline std::size_t findNonZeroDown(const std::uint64_t* w,
                                                 std::size_t from) noexcept {
  std::size_t end = from + 1;  // exclusive upper bound of the scan
#if SWFT_SIMD_VEC
  if (!forceScalar()) {
    while (end >= 4) {
      V4 v;
      std::memcpy(&v, w + end - 4, sizeof v);
      if ((v[0] | v[1] | v[2] | v[3]) != 0) break;
      end -= 4;
    }
  }
#endif
  while (end > 0) {
    if (w[end - 1] != 0) return end - 1;
    --end;
  }
  return kNone;
}

/// The switch-allocation port sweep: okp[p] = ok & members[p] for p in
/// [0, ports), over `ports` consecutive 64-bit membership rows. Returns the
/// port mask with bit p set iff okp[p] != 0. The pass *assigns* every row —
/// callers need no zeroing prelude.
[[nodiscard]] inline std::uint64_t qualifyPorts(std::uint64_t ok,
                                               const std::uint64_t* members,
                                               std::uint64_t* okp,
                                               int ports) noexcept {
  std::uint64_t pm = 0;
  int p = 0;
#if SWFT_SIMD_VEC
  if (!forceScalar()) {
    const V4 okv = {ok, ok, ok, ok};
    for (; p + 4 <= ports; p += 4) {
      V4 m;
      std::memcpy(&m, members + p, sizeof m);
      const V4 q = m & okv;
      std::memcpy(okp + p, &q, sizeof q);
      pm |= (static_cast<std::uint64_t>(q[0] != 0) << p) |
            (static_cast<std::uint64_t>(q[1] != 0) << (p + 1)) |
            (static_cast<std::uint64_t>(q[2] != 0) << (p + 2)) |
            (static_cast<std::uint64_t>(q[3] != 0) << (p + 3));
    }
  }
#endif
  for (; p < ports; ++p) {
    const std::uint64_t q = ok & members[p];
    okp[p] = q;
    pm |= static_cast<std::uint64_t>(q != 0) << p;
  }
  return pm;
}

/// The port sweep over W-word rows: okp[p*W + w] = ok[w] & members[p*W + w]
/// for p in [0, ports), over `ports` consecutive W-word membership rows.
/// Returns the port mask with bit p set iff any word of okp's row p is
/// nonzero. W == 1 is qualifyPorts itself. The sweep treats the rows as one
/// flat array of ports*W words whose mask operand repeats ok with period W,
/// so the vector path ANDs 4-word strides against that pattern (lane l of
/// stride j holds ok[(4j + l) % W], which repeats every W strides) and the
/// scalar tail finishes mid-row where needed.
template <int W>
[[nodiscard]] inline std::uint64_t qualifyPortRows(const std::uint64_t* ok,
                                                   const std::uint64_t* members,
                                                   std::uint64_t* okp,
                                                   int ports) noexcept {
  if constexpr (W == 1) {
    return qualifyPorts(ok[0], members, okp, ports);
  } else {
    const int n = ports * W;
    int i = 0;
#if SWFT_SIMD_VEC
    if (!forceScalar()) {
      V4 okv[W];
      for (int j = 0; j < W; ++j) {
        for (int l = 0; l < 4; ++l) okv[j][l] = ok[(4 * j + l) % W];
      }
      for (int j = 0; i + 4 <= n; i += 4, j = (j + 1 == W) ? 0 : j + 1) {
        V4 m;
        std::memcpy(&m, members + i, sizeof m);
        const V4 q = m & okv[j];
        std::memcpy(okp + i, &q, sizeof q);
      }
    }
#endif
    for (; i < n; ++i) okp[i] = ok[i % W] & members[i];
    std::uint64_t pm = 0;
    for (int p = 0; p < ports; ++p) {
      std::uint64_t any = 0;
      for (int w = 0; w < W; ++w) any |= okp[p * W + w];
      pm |= static_cast<std::uint64_t>(any != 0) << p;
    }
    return pm;
  }
}

}  // namespace swft::simd
