// e2ebench — end-to-end sweep benchmark driver.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
//            [--toy] [--corrupt row|cache]
//
// --trace 0 times the user path: runExperiment with the result cache on and
// a sweep pool of nproc threads. Rounds that fill `--seconds` each time a
// cold-cache sweep (empty store, every point simulated and stored), warm
// replays (every point a hit) and set-up (grid build plus every point's
// Network, no cycles); it also reports peak RSS.
//
// --trace 1 runs an untraced cold sweep, the same sweep taken apart into
// timed calls to the public functions of each module (harness, sim, fault,
// routing, traffic) with phase_timers=1 splitting the engine, and another
// untraced sweep. The traced wall time minus the untraced mean is the
// tracing overhead.
//
// Both modes run the correctness gate (see checkRows/checkArtifact/
// checkDense). The last stdout line is one JSON object: correct, attempted,
// failed, metrics. `--corrupt` plants a wrong result for the self-check,
// which asserts the gate catches it.
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/workloads.hpp"
#include "src/fault/connectivity.hpp"
#include "src/harness/result_cache.hpp"
#include "src/harness/table.hpp"
#include "src/routing/software_layer.hpp"
#include "src/sim/network.hpp"
#include "src/util/simd.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using swft::SweepPoint;
using swft::SweepRow;
using e2ebench::Workload;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Quantile q of the samples, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Warm replays and set-up take milliseconds. On a shared host their times
// come in a fast and a slow mode that switch every few seconds, so their
// median flips between modes from run to run; the lower decile of the
// run's hundreds of samples stays on the program's own cost. A cold sweep
// lasts seconds and averages over both modes, so it reports the median.
constexpr double kShortQuantile = 0.1;

// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Grid points that failed a correctness check; every failure is explained on
// stderr. A point counts once however many checks it fails.
class Gate {
 public:
  explicit Gate(const std::vector<SweepPoint>& points) {
    for (const SweepPoint& p : points) labels_.push_back(p.label);
  }
  void fail(std::size_t i, const std::string& why) {
    std::fprintf(stderr, "FAIL %s: %s\n", i < labels_.size() ? labels_[i].c_str() : "?",
                 why.c_str());
    failed_.insert(i);
  }
  void failAll(const std::string& why) {
    for (std::size_t i = 0; i < labels_.size(); ++i) fail(i, why);
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_.size(); }

 private:
  std::vector<std::string> labels_;
  std::set<std::size_t> failed_;
};

// Every point must reach its measured-message target or be flagged
// saturated, and the deadlock watchdog must stay quiet.
void checkRows(const std::vector<SweepRow>& rows, Gate& gate) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const swft::SimResult& r = rows[i].result;
    if (r.deadlockSuspected) gate.fail(i, "deadlock watchdog fired");
    if (!r.completed && !r.saturated) gate.fail(i, "neither completed nor flagged saturated");
  }
}

// Artifact bytes must equal the reference; CSV data line j+1 is grid point j.
void checkArtifact(const std::string& ref, const std::string& got, const std::string& what,
                   Gate& gate) {
  if (ref == got) return;
  const std::vector<std::string> a = splitLines(ref);
  const std::vector<std::string> b = splitLines(got);
  if (a.size() != b.size() || a.empty() || a[0] != b[0]) {
    gate.failAll(what + ": artifact differs in shape from the cold one");
    return;
  }
  for (std::size_t j = 1; j < a.size(); ++j) {
    if (a[j] != b[j]) gate.fail(j - 1, what + ": artifact row differs from the cold one");
  }
}

// Every row's exact serialized SimResult must equal the reference row's.
void checkSameResults(const std::vector<SweepRow>& ref, const std::vector<SweepRow>& got,
                      const std::string& what, Gate& gate) {
  if (ref.size() != got.size()) {
    gate.failAll(what + ": row count differs");
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (swft::serializeResult(ref[i].result) != swft::serializeResult(got[i].result)) {
      gate.fail(i, what + ": result differs");
    }
  }
}

// Re-simulate the workload's fixed sample on the dense reference engine; the
// serialized SimResult must match the sweep's bit for bit.
void checkDense(const Workload& w, const std::vector<SweepRow>& rows, int threads, Gate& gate) {
  std::vector<SweepPoint> dense;
  for (const std::size_t i : w.gateSample) {
    SweepPoint p = rows.at(i).point;
    p.cfg.engine = swft::EngineKind::Dense;
    p.cfg.phaseTimers = false;
    dense.push_back(std::move(p));
  }
  const std::vector<SweepRow> denseRows = swft::runSweep(std::move(dense), threads);
  for (std::size_t k = 0; k < w.gateSample.size(); ++k) {
    const std::size_t i = w.gateSample[k];
    if (swft::serializeResult(denseRows[k].result) != swft::serializeResult(rows[i].result)) {
      gate.fail(i, "differs from the dense reference engine");
    }
  }
}

// Build every point's Network once, outside any timing, so a config that
// throws is reported as a failed point instead of ending a pool thread.
bool validatePoints(const std::vector<SweepPoint>& points, Gate& gate) {
  bool ok = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    try {
      const swft::Network net(points[i].cfg);
    } catch (const std::exception& e) {
      gate.fail(i, std::string("network build threw: ") + e.what());
      ok = false;
    }
  }
  return ok;
}

// setup_s: serial grid build plus every point's Network construction
// (topology, faults, software-layer tables, arena), no cycles run.
double setupOnce(const swft::ExperimentSpec& spec) {
  const auto t0 = Clock::now();
  const std::vector<SweepPoint> points = spec.build();
  for (const SweepPoint& p : points) {
    const swft::Network net(p.cfg);
  }
  return since(t0);
}

swft::RunOptions userOptions(int threads, const fs::path& cacheDir, const fs::path& outDir) {
  swft::RunOptions opt;
  opt.threads = threads;
  opt.useCache = true;
  opt.cacheDir = cacheDir.string();
  opt.outDir = outDir.string();
  opt.progress = false;
  return opt;
}

struct Sweep {
  double wall = 0.0;
  swft::ExperimentRun run;
  std::string artifact;
};

// One sweep through the user path, timed from the call to the written artifact.
Sweep runUserPath(const swft::ExperimentSpec& spec, const swft::RunOptions& opt) {
  std::ostringstream log;  // the table a user would see, formatted but not printed
  Sweep s;
  const auto t0 = Clock::now();
  s.run = swft::runExperiment(spec, opt, log);
  s.wall = since(t0);
  s.artifact = readFile(s.run.artifactPath);
  return s;
}

// Redirects fd 2 into a file for its lifetime: with phase_timers=1,
// runSimulation reports each point's engine phase times on stderr.
class StderrToFile {
 public:
  explicit StderrToFile(const fs::path& path) {
    std::fflush(stderr);
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    saved_ = dup(2);
    if (fd < 0 || saved_ < 0 || dup2(fd, 2) < 0) {
      if (fd >= 0) close(fd);
      if (saved_ >= 0) close(saved_);
      throw std::runtime_error("cannot redirect stderr to " + path.string());
    }
    close(fd);
  }
  ~StderrToFile() {
    std::fflush(stderr);
    dup2(saved_, 2);
    close(saved_);
  }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

 private:
  int saved_ = -1;
};

// Sums "phase timers[i]: gen 0.061s inj 0.010s walk 0.500s ..." lines by
// phase name; returns the number of per-point lines read.
std::size_t parsePhaseTimers(const fs::path& path, std::map<std::string, double>& seconds) {
  std::size_t lines = 0;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("phase timers[", 0) != 0 || line.rfind("phase timers[merged]", 0) == 0) {
      continue;
    }
    ++lines;
    std::istringstream fields(line.substr(line.find(':') + 1));
    std::string name;
    std::string value;
    while (fields >> name >> value) seconds[name] += std::strtod(value.c_str(), nullptr);
  }
  return lines;
}

struct Traced {
  double wall = 0.0;
  std::vector<SweepRow> rows;
  std::vector<Metric> metrics;
};

// The cold sweep of runExperiment, step by step, with each module's calls
// timed from here. Network construction is repeated piecewise through the
// same public calls its constructor makes, to split set-up by module.
Traced tracedSweep(const Workload& w, int threads, const fs::path& dir, Gate& gate) {
  fs::remove_all(dir);
  fs::create_directories(dir / "out");
  Traced tr;
  double keyS = 0, storeS = 0;
  double faultS = 0, connectivityS = 0, softwareS = 0, simS = 0;
  const auto t0 = Clock::now();

  auto t = Clock::now();
  const std::vector<SweepPoint> points = w.spec.build();
  const double gridS = since(t);

  for (std::size_t i = 0; i < points.size(); ++i) {
    const swft::SimConfig& cfg = points[i].cfg;
    t = Clock::now();
    const swft::TorusTopology topo(cfg.radix, cfg.dims);
    swft::FaultSet faults(topo);
    for (const swft::RegionSpec& region : cfg.faults.regions) swft::applyRegion(faults, region);
    if (cfg.faults.randomNodes > 0) {
      // The fault stream Network's constructor draws from.
      swft::Rng rng = swft::Rng(cfg.seed).split(0xFA17);
      swft::applyRandomNodeFaults(faults, cfg.faults.randomNodes, rng);
    }
    faultS += since(t);
    t = Clock::now();
    const bool connected = swft::healthyNetworkConnected(faults);
    connectivityS += since(t);
    if (!connected) gate.fail(i, "fault pattern disconnects the network");
    t = Clock::now();
    { const swft::SoftwareLayer layer(topo, faults, cfg.livelockThreshold); }
    softwareS += since(t);
    t = Clock::now();
    { const swft::Network net(cfg); }
    simS += since(t);
  }

  swft::ResultCache cache((dir / "cache").string());
  std::vector<SweepPoint> misses;
  for (std::size_t i = 0; i < points.size(); ++i) {
    t = Clock::now();
    (void)cache.keyFor(points[i].cfg);
    keyS += since(t);
    if (cache.lookup(points[i].cfg)) gate.fail(i, "an empty store reported a hit");
    SweepPoint p = points[i];
    p.cfg.phaseTimers = true;
    misses.push_back(std::move(p));
  }

  // Pool occupancy from runSweep's completion callbacks: onDone runs on the
  // worker that finished the point, so each thread's last completion time
  // is how long it was busy (workers pull points until the grid is drained).
  const std::size_t poolThreads =
      std::min(static_cast<std::size_t>(threads), std::max<std::size_t>(1, misses.size()));
  std::map<std::thread::id, double> lastDone;
  const fs::path timerLog = dir / "phase_timers.txt";
  double sweepS = 0;
  {
    const StderrToFile capture(timerLog);
    const auto tSweep = Clock::now();
    tr.rows = swft::runSweep(misses, threads, [&](const SweepRow& row) {
      const auto ts = Clock::now();
      cache.store(row.point.cfg, row.result);
      storeS += since(ts);
      lastDone[std::this_thread::get_id()] = since(tSweep);
    });
    sweepS = since(tSweep);
  }
  double busyS = 0;
  for (const auto& [id, done] : lastDone) busyS += done;
  const double capacityS = static_cast<double>(poolThreads) * sweepS;

  t = Clock::now();
  (void)swft::formatTable(tr.rows, w.spec.columns);
  const double tableS = since(t);
  t = Clock::now();
  const fs::path artifactPath = dir / "out" / (w.spec.name + ".csv");
  swft::toCsv(tr.rows).writeFile(artifactPath.string());
  const double artifactS = since(t);
  tr.wall = since(t0);

  // Warm lookups against the store the sweep just filled (the replay path).
  constexpr int kWarmPasses = 5;
  swft::ResultCache warm((dir / "cache").string());
  double lookupWarmS = 0;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (const SweepPoint& p : points) {
      t = Clock::now();
      (void)warm.lookup(p.cfg);
      lookupWarmS += since(t);
    }
  }
  const double lookups = static_cast<double>(kWarmPasses * points.size());
  const double n = static_cast<double>(std::max<std::size_t>(1, points.size()));

  std::map<std::string, double> phase;
  const std::size_t timerLines = parsePhaseTimers(timerLog, phase);
  if (timerLines != misses.size()) {
    std::fprintf(stderr, "warning: %zu phase-timer lines for %zu simulated points\n",
                 timerLines, misses.size());
  }
  double engineS = 0;
  for (const auto& [name, sec] : phase) engineS += sec;

  double cycles = 0, nodeCycles = 0, generated = 0, delivered = 0, saturated = 0;
  double absorptions = 0, reversals = 0, detours = 0, escalations = 0;
  for (const SweepRow& row : tr.rows) {
    const swft::SimResult& r = row.result;
    const double nodes = std::pow(row.point.cfg.radix, row.point.cfg.dims);
    cycles += static_cast<double>(r.cycles);
    nodeCycles += static_cast<double>(r.cycles) * nodes;
    generated += static_cast<double>(r.generatedTotal);
    delivered += static_cast<double>(r.deliveredTotal);
    saturated += r.saturated ? 1 : 0;
    absorptions += static_cast<double>(r.messagesQueued);
    reversals += static_cast<double>(r.reversals);
    detours += static_cast<double>(r.detours);
    escalations += static_cast<double>(r.escalations);
  }

  tr.metrics = {
      {"engine.run_s", engineS, "s"},
      {"engine.walk_s", phase["walk"], "s"},
      {"engine.inj_s", phase["inj"], "s"},
      {"engine.gen_s", phase["gen"], "s"},
      {"engine.cycles", cycles, "count"},
      {"engine.node_cycles_per_s", engineS > 0 ? nodeCycles / engineS : 0.0, "1/s"},
      {"engine.ns_per_delivered_msg", delivered > 0 ? engineS * 1e9 / delivered : 0.0, "ns"},
      {"harness.pool.busy_s", busyS, "s"},
      {"harness.pool.idle_s", capacityS - busyS, "s"},
      {"harness.pool.efficiency", capacityS > 0 ? busyS / capacityS : 0.0, "ratio"},
      {"harness.cache.key_us", keyS * 1e6 / n, "us"},
      {"harness.cache.lookup_us", lookupWarmS * 1e6 / lookups, "us"},
      {"harness.cache.store_us", storeS * 1e6 / n, "us"},
      {"harness.cache.hit_ratio", static_cast<double>(warm.stats().hits) / lookups, "ratio"},
      {"harness.cache.store_bytes",
       static_cast<double>(swft::ResultCache::scanDir((dir / "cache").string()).bytes), "bytes"},
      {"harness.grid.build_s", gridS, "s"},
      {"harness.table.format_s", tableS, "s"},
      {"harness.artifact.write_s", artifactS, "s"},
      {"sim.build_s", simS, "s"},
      {"fault.build_s", faultS, "s"},
      {"fault.connectivity_s", connectivityS, "s"},
      {"routing.software_layer.build_s", softwareS, "s"},
      {"routing.absorptions", absorptions, "count"},
      {"routing.reversals", reversals, "count"},
      {"routing.detours", detours, "count"},
      {"routing.escalations", escalations, "count"},
      {"routing.absorptions_per_delivered", delivered > 0 ? absorptions / delivered : 0.0,
       "ratio"},
      {"traffic.generated", generated, "count"},
      {"traffic.delivered", delivered, "count"},
      {"traffic.saturated_points", saturated, "count"},
  };
  return tr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  fs::path work;
  bool toy = false;
  std::string corrupt;  // "", "row" or "cache"
};

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      haveWorkload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--work") {
      a.work = value;
    } else if (key == "--corrupt") {
      a.corrupt = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!haveWorkload || a.work.empty()) throw std::invalid_argument("need --workload and --work");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace takes 0 or 1");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  if (!a.corrupt.empty() && a.corrupt != "row" && a.corrupt != "cache") {
    throw std::invalid_argument("--corrupt takes row or cache");
  }
  return a;
}

// Plant a wrong result in a row the dense check samples (self-check only).
void corruptRow(const Workload& w, std::vector<SweepRow>& rows) {
  rows.at(w.gateSample.front()).result.messagesQueued += 1;
}

void printMachine(const Args& a, int threads, std::size_t points,
                  const std::map<std::string, double>& reps) {
  std::printf(
      "{\"machine\": {\"nproc\": %d, \"pool_threads\": %d, \"hardware_concurrency\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd_isa\": \"%s\", "
      "\"force_scalar\": %s}, \"run\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"toy\": %s, \"points\": %zu",
      nproc(), threads, std::thread::hardware_concurrency(), E2EBENCH_COMPILER,
      E2EBENCH_BUILD_TYPE, swft::simd::isaName(), swft::simd::forceScalar() ? "true" : "false",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), jsonNumber(a.seconds).c_str(),
      a.trace, a.toy ? "true" : "false", points);
  for (const auto& [name, count] : reps) {
    std::printf(", \"%s\": %s", name.c_str(), jsonNumber(count).c_str());
  }
  std::printf("}}\n");
}

void printResult(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              gate.failed() == 0 ? "true" : "false", gate.attempted(), gate.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), jsonNumber(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  const int threads = nproc();
  const Workload w = e2ebench::makeWorkload(a.workload, a.seed, a.toy);
  const std::vector<SweepPoint> points = w.spec.build();
  Gate gate(points);
  std::map<std::string, double> reps;
  fs::remove_all(a.work);
  fs::create_directories(a.work);

  if (!validatePoints(points, gate)) {
    printMachine(a, threads, points.size(), reps);
    printResult(gate, {});
    return 0;
  }

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    // Rounds of one cold sweep (into an empty store), warm replays against
    // the store it filled, and set-up repetitions, until `--seconds` are
    // spent. Interleaving spreads every metric's samples over the whole run,
    // so a slow spell on a shared host touches all three alike.
    std::vector<double> setup;
    std::vector<double> cold;
    std::vector<double> warm;
    Sweep first;
    const auto tRun = Clock::now();
    // A round is started only if it is expected to end within the budget.
    for (int round = 0;
         round < 3 || since(tRun) * (round + 1) / round <= a.seconds; ++round) {
      const fs::path dir = a.work / ("round" + std::to_string(round));
      Sweep s = runUserPath(w.spec, userOptions(threads, dir / "cache", dir / "out"));
      cold.push_back(s.wall);
      if (s.run.cache.inserts != points.size()) {
        gate.failAll("cold sweep did not store every point");
      }
      if (round > 0) checkArtifact(first.artifact, s.artifact, "cold repetition", gate);
      if (round == 0 && a.corrupt == "cache") {
        const SweepRow& row = s.run.rows.at(w.gateSample.front());
        swft::SimResult wrong = row.result;
        wrong.messagesQueued += 1;
        swft::ResultCache((dir / "cache").string()).store(row.point.cfg, wrong);
      }

      const std::size_t warmBefore = warm.size();
      const auto tWarm = Clock::now();
      while (warm.size() - warmBefore < 5 || since(tWarm) < 0.2 * s.wall) {
        const Sweep r = runUserPath(w.spec, userOptions(threads, dir / "cache", dir / "warm"));
        if (warm.size() == warmBefore) checkArtifact(s.artifact, r.artifact, "warm replay", gate);
        if (r.run.cache.hits != points.size()) gate.failAll("warm replay missed the cache");
        warm.push_back(r.wall);
      }

      const std::size_t setupBefore = setup.size();
      const auto tSetup = Clock::now();
      while (setup.size() - setupBefore < 2 || since(tSetup) < 0.15 * s.wall) {
        setup.push_back(setupOnce(w.spec));
      }
      std::fprintf(stderr, "round %d: cold %.3f s, warm %zu x %.6f s, set-up %zu x %.6f s\n",
                   round, s.wall, warm.size() - warmBefore,
                   median({warm.begin() + static_cast<std::ptrdiff_t>(warmBefore), warm.end()}),
                   setup.size() - setupBefore,
                   median({setup.begin() + static_cast<std::ptrdiff_t>(setupBefore), setup.end()}));
      if (round == 0) {
        first = std::move(s);
      } else {
        fs::remove_all(dir);
      }
    }
    const double rss = peakRssMb();

    if (a.corrupt == "row") corruptRow(w, first.run.rows);
    checkRows(first.run.rows, gate);
    checkDense(w, first.run.rows, threads, gate);

    reps = {{"rounds", static_cast<double>(cold.size())},
            {"warm_reps", static_cast<double>(warm.size())},
            {"setup_reps", static_cast<double>(setup.size())}};
    metrics = {
        {"cold_wall_s", median(cold), "s"},
        {"warm_wall_s", quantile(warm, kShortQuantile), "s"},
        {"setup_s", quantile(setup, kShortQuantile), "s"},
        {"peak_rss_mb", rss, "MB"},
    };
  } else {
    const auto untracedSweep = [&](const std::string& name) {
      const fs::path dir = a.work / name;
      return runUserPath(w.spec, userOptions(threads, dir / "cache", dir / "out"));
    };
    const Sweep ref = untracedSweep("cold0");
    Traced tr = tracedSweep(w, threads, a.work / "traced", gate);
    // A second untraced sweep after the traced one, so slow drift of the
    // host cancels out of the overhead.
    const double after = untracedSweep("cold1").wall;
    const double untraced = 0.5 * (ref.wall + after);
    std::fprintf(stderr, "untraced cold %.3f s and %.3f s, traced %.3f s\n", ref.wall, after,
                 tr.wall);
    std::vector<SweepRow> refRows = ref.run.rows;
    if (a.corrupt == "row") corruptRow(w, refRows);
    checkSameResults(refRows, tr.rows, "traced sweep", gate);
    checkRows(refRows, gate);
    checkDense(w, refRows, threads, gate);
    metrics = std::move(tr.metrics);
    metrics.push_back({"trace.cold_wall_s", untraced, "s"});
    metrics.push_back({"trace.overhead_s", tr.wall - untraced, "s"});
  }

  fs::remove_all(a.work);
  printMachine(a, threads, points.size(), reps);
  printResult(gate, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
