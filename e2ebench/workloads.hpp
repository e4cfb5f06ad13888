// The benchmark's three workload grids. Each is an ExperimentSpec run through
// the same runExperiment path as `swft_bench --run`; the benchmark seed picks
// fault placements, region anchors and per-curve traffic seeds, and the
// points receive only the resulting SimConfigs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.hpp"

namespace e2ebench {

struct Workload {
  swft::ExperimentSpec spec;
  // Grid indices re-simulated on the dense reference engine by the
  // correctness gate (a fixed, cheap sample).
  std::vector<std::size_t> gateSample;
};

/// Workload `name` for benchmark seed `seed`. `toy` shrinks the grid to a few
/// short points for the self-check. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name, std::uint64_t seed, bool toy);

}  // namespace e2ebench
