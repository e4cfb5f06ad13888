#include "e2ebench/workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "src/sim/network.hpp"
#include "src/util/rng.hpp"

namespace e2ebench {

namespace {

using swft::RegionShape;
using swft::RegionSpec;
using swft::RoutingMode;
using swft::SimConfig;
using swft::SweepPoint;

const char* modeName(RoutingMode mode) {
  return mode == RoutingMode::Adaptive ? "adp" : "det";
}

RegionSpec seededRegion(swft::Rng& rng, RegionShape shape, int extent0, int extent1,
                        int radix, int dims) {
  RegionSpec region;
  region.shape = shape;
  region.extent0 = extent0;
  region.extent1 = extent1;
  region.anchor.digit.resize(static_cast<std::size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    region.anchor[d] = static_cast<std::int16_t>(rng.uniform(static_cast<std::uint32_t>(radix)));
  }
  return region;
}

struct FaultCase {
  const char* name;
  int randomNodes;
  bool region;
};

// Fig. 3/5-style latency-versus-load curves on an 8-ary 2-cube: det and adp,
// V in {4, 10}, nf in {0, 3} plus one concave U region, rates up to past
// saturation. Reduced-preset run length (2k warm-up + 8k measured).
std::vector<SweepPoint> buildLatencySweep(std::uint64_t seed, bool toy) {
  swft::Rng rng(seed);
  const RegionSpec u8 = seededRegion(rng, RegionShape::U, 4, 3, 8, 2);
  const FaultCase faultCases[] = {{"nf0", 0, false}, {"nf3", 3, false}, {"U8", 0, true}};
  const int vcsGrid[] = {4, 10};
  const double maxRate[] = {0.016, 0.022};

  std::vector<SweepPoint> points;
  std::uint64_t curve = 0;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (int vi = 0; vi < (toy ? 1 : 2); ++vi) {
      for (const FaultCase& fc : faultCases) {
        const std::uint64_t curveSeed = rng.split(curve++).next();
        for (const double rate : swft::rateGrid(maxRate[vi], toy ? 2 : 10)) {
          SweepPoint p;
          SimConfig& cfg = p.cfg;
          cfg.radix = 8;
          cfg.dims = 2;
          cfg.vcs = vcsGrid[vi];
          cfg.messageLength = 32;
          cfg.injectionRate = rate;
          cfg.routing = mode;
          cfg.faults.randomNodes = fc.randomNodes;
          if (fc.region) cfg.faults.regions.push_back(u8);
          cfg.seed = curveSeed;
          swft::applyScale(cfg, swft::ScalePreset::Reduced);
          cfg.maxCycles = 150'000;
          if (toy) {
            cfg.warmupMessages = 50;
            cfg.measuredMessages = 200;
          }
          char label[96];
          std::snprintf(label, sizeof label, "%s/V%d/%s/l%.4f", modeName(mode), cfg.vcs,
                        fc.name, rate);
          p.label = label;
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

// A handful of long points on a 16-ary 3-cube (4096 nodes): adaptive, V=10,
// low / mid / near-knee load, nf in {0, 40}; 24k messages per point.
std::vector<SweepPoint> buildLargeTorus(std::uint64_t seed, bool toy) {
  swft::Rng rng(seed);
  std::vector<SweepPoint> points;
  for (const int nf : {0, 40}) {
    const std::uint64_t curveSeed = rng.split(static_cast<std::uint64_t>(nf)).next();
    for (const double rate : toy ? std::vector<double>{0.005}
                                 : std::vector<double>{0.002, 0.005, 0.008}) {
      SweepPoint p;
      SimConfig& cfg = p.cfg;
      cfg.radix = 16;
      cfg.dims = 3;
      cfg.vcs = 10;
      cfg.messageLength = 32;
      cfg.injectionRate = rate;
      cfg.routing = RoutingMode::Adaptive;
      cfg.faults.randomNodes = nf;
      cfg.seed = curveSeed;
      cfg.warmupMessages = toy ? 50 : 4'000;
      cfg.measuredMessages = toy ? 300 : 20'000;
      cfg.maxCycles = 200'000;
      char label[64];
      std::snprintf(label, sizeof label, "adp/nf%d/l%.4f", nf, rate);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

// Fig. 7-style fixed-duration runs on an 8-ary 3-cube, V=10: det and adp,
// rates 0.010 / 0.007, nf in {12, 8, 4} plus one 12-node Plus region.
// Absorption, re-injection and rerouting dominate here.
std::vector<SweepPoint> buildFaultRecovery(std::uint64_t seed, bool toy) {
  swft::Rng rng(seed);
  RegionSpec plus12 = seededRegion(rng, RegionShape::Plus, 4, 4, 8, 3);
  // Heaviest points first (more faults, det before adp, the higher rate),
  // so the pool's tail holds the short ones.
  const FaultCase allCases[] = {
      {"nf12", 12, false}, {"nf8", 8, false}, {"plus12", 0, true}, {"nf4", 4, false}};
  const std::vector<FaultCase> faultCases =
      toy ? std::vector<FaultCase>{allCases[0], allCases[2]}
          : std::vector<FaultCase>(std::begin(allCases), std::end(allCases));
  // One fault placement per case, shared by both routings and both rates.
  std::vector<std::uint64_t> caseSeeds;
  for (std::size_t i = 0; i < faultCases.size(); ++i) caseSeeds.push_back(rng.split(i).next());

  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (const double rate : toy ? std::vector<double>{0.010}
                                 : std::vector<double>{0.010, 0.007}) {
      for (std::size_t i = 0; i < faultCases.size(); ++i) {
        const FaultCase& fc = faultCases[i];
        SweepPoint p;
        SimConfig& cfg = p.cfg;
        cfg.radix = 8;
        cfg.dims = 3;
        cfg.vcs = 10;
        cfg.messageLength = 32;
        cfg.injectionRate = rate;
        cfg.routing = mode;
        cfg.faults.randomNodes = fc.randomNodes;
        if (fc.region) cfg.faults.regions.push_back(plus12);
        cfg.seed = caseSeeds[i];
        // Fixed-duration protocol: bounded by cycles, not by deliveries.
        cfg.warmupMessages = 0;
        cfg.measuredMessages = ~std::uint32_t{0};
        cfg.maxCycles = toy ? 500 : 10'000;
        char label[64];
        std::snprintf(label, sizeof label, "%s/rate%d/%s", modeName(mode),
                      static_cast<int>(rate * 10000 + 0.5), fc.name);
        p.label = label;
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

swft::ExperimentSpec makeSpec(const std::string& name, std::string description,
                              std::vector<SweepPoint> (*build)(std::uint64_t, bool),
                              std::uint64_t seed, bool toy,
                              std::vector<std::string> columns) {
  swft::ExperimentSpec spec;
  spec.name = name;
  spec.description = std::move(description);
  spec.build = [build, seed, toy] { return build(seed, toy); };
  spec.columns = std::move(columns);
  return spec;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed, bool toy) {
  Workload w;
  if (name == "latency_sweep") {
    w.spec = makeSpec(name, "latency vs load, 8-ary 2-cube, det/adp, V 4/10, nf 0/3/U8",
                      buildLatencySweep, seed, toy, {"latency", "throughput", "queued"});
    // Spread over the grid: det/V4 lowest load, the V10 and adaptive blocks,
    // and the last (past-saturation) point.
    const std::size_t n = w.spec.build().size();
    w.gateSample = {0, n / 3, 2 * n / 3, n - 1};
  } else if (name == "large_torus") {
    w.spec = makeSpec(name, "long windows on a 16-ary 3-cube, adp, nf 0/40",
                      buildLargeTorus, seed, toy, {"latency", "throughput", "queued", "cycles"});
    // nf=0 at the highest load: the fewest cycles, so the cheapest dense run.
    w.gateSample = {toy ? std::size_t{0} : std::size_t{2}};
  } else if (name == "fault_recovery") {
    w.spec = makeSpec(name, "fixed 10k-cycle runs, 8-ary 3-cube, V=10, nf 4/8/12/plus12",
                      buildFaultRecovery, seed, toy,
                      {"queued", "absorbed", "reversals", "detours", "throughput"});
    // det at 0.007 through the region, adp at 0.010 with nf=4.
    w.gateSample = toy ? std::vector<std::size_t>{0, 3} : std::vector<std::size_t>{6, 11};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace e2ebench
