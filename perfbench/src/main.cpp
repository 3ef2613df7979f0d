// perfbench: the repository benchmark binary (perfbench/WORKLOADS.md).
//
//   perfbench --workload signup|audit|retrain --seed N --seconds S
//             --trace 0|1 [--scale X] [--corpus-entries N] [--setups K]
//             [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 sets up --setups times (setup_s is the median), runs the
// workload untraced and prints the end-to-end metrics. --trace 1 runs the
// workload half untraced, half traced (tracing_overhead_pct compares the
// two), then the layer probes, prints the per-layer metrics and writes
// every span to DIR/trace-<workload>-<seed>.jsonl. The last stdout line
// is the JSON result; the exit code is non-zero when any check failed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "artifact/checksum.h"
#include "bench.h"
#include "obs/metrics.h"

using namespace perfbench;

namespace {

// Layers whose self time the traced run reports (span name prefixes).
constexpr const char* kLayers[] = {"registry", "serve", "artifact",
                                   "online",   "train", "corpus",
                                   "analysis", "core",  "parallel"};

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Options parseArgs(int argc, char** argv) {
  Options o;
  o.cores = nproc();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = std::stod(value);
    } else if (flag == "--corpus-entries") {
      o.corpusEntries = std::stoull(value);
    } else if (flag == "--setups") {
      o.setups = std::stoi(value);
    } else if (flag == "--out-dir") {
      o.outDir = value;
    } else if (flag == "--git-sha") {
      o.gitSha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload != "signup" && o.workload != "audit" &&
      o.workload != "retrain") {
    throw std::invalid_argument("--workload must be signup, audit or retrain");
  }
  if (!(o.seconds > 0) || !(o.scale > 0) || o.setups < 1 ||
      o.corpusEntries == 0) {
    throw std::invalid_argument("--seconds, --scale, --setups and "
                                "--corpus-entries must be positive");
  }
  return o;
}

std::string provenance(const Options& o) {
  std::ostringstream out;
  out << "{\"provenance\":{\"git_sha\":\"" << o.gitSha
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"compiler\":\"" << __VERSION__
      << "\",\"fpsm_metrics\":" << (FPSM_METRICS_ENABLED ? "true" : "false")
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"nproc\":" << o.cores
      << ",\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"seconds\":" << o.seconds << ",\"trace\":" << o.trace
      << ",\"scale\":" << o.scale << ",\"corpus_entries\":"
      << (o.workload == "retrain" ? o.corpusEntries : 0)
      << ",\"setups\":" << o.setups << "}}";
  return out.str();
}

/// CPU ticks the hypervisor took from this machine, and all CPU ticks, so
/// far (the `steal` and summed columns of /proc/stat's first line).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int column = 0; column < 10 && stat >> v; ++column) {
    t.total += v;
    if (column == 7) t.steal = v;
  }
  return t;
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void setReference(Fixture& fx) {
  if (fx.options.workload != "retrain") return;
  const std::string bytes = trainCorpus(fx, 1, nullptr);
  fx.referenceDigest = fpsm::xxhash64(bytes.data(), bytes.size());
}

void printMetrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-26s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

std::string resultJson(const Tally& tally, const Metrics& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted.load()
      << ", \"failed\": " << tally.failed.load() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int run(const Options& o) {
  const std::string prov = provenance(o);
  std::printf("%s\n", prov.c_str());
  Tally tally;
  Metrics metrics;

  if (!o.trace) {
    std::vector<double> setupS;
    std::unique_ptr<Fixture> fx;
    for (int k = 0; k < o.setups; ++k) {
      fx.reset();
      const std::int64_t t0 = nowNs();
      fx = buildFixture(o, k);
      setupS.push_back((nowNs() - t0) / 1e9);
    }
    setReference(*fx);
    const CpuTicks before = cpuTicks();
    const WorkloadRun r = runWorkload(*fx, o.seconds, tally, nullptr);
    const CpuTicks after = cpuTicks();
    printMetrics(("workload " + o.workload).c_str(), r.extra);
    std::printf("  latency p50 %.6f ms, p%g %.6f ms, over %zu samples\n",
                r.latencyMs.p50, r.latencyMs.tailQ * 100, r.latencyMs.tail,
                r.latencyMs.n);
    // Steal is host CPU time given to other guests: a run with a high
    // share measured a slower host, not a slower program.
    std::printf("  host steal %.1f%% of CPU time during the workload\n",
                100.0 * static_cast<double>(after.steal - before.steal) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, after.total - before.total)));
    metrics["setup_s"] = {median(setupS), "s"};
    metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    metrics["throughput_kps"] = {r.throughputKps, "k/s"};
    metrics["latency_p50_ms"] = {r.latencyMs.p50, "ms"};
  } else {
    auto fx = buildFixture(o, 0);
    setReference(*fx);
    const WorkloadRun plain = runWorkload(*fx, o.seconds / 2, tally, nullptr);
    Tracer tracer;
    const WorkloadRun traced = runWorkload(*fx, o.seconds / 2, tally, &tracer);
    printMetrics("untraced half", plain.extra);
    printMetrics("traced half", traced.extra);
    metrics["tracing_overhead_pct"] = {
        (plain.throughputKps / traced.throughputKps - 1) * 100, "%"};
    probeLayers(*fx, tally, tracer, metrics);
    const auto layers = tracer.byLayer();
    for (const char* layer : kLayers) {
      const auto it = layers.find(layer);
      metrics[std::string(layer) + ".self_ms"] = {
          it == layers.end() ? 0.0 : it->second.selfMs, "ms"};
    }
    std::printf("spans (count, total ms, self ms):\n");
    for (const auto& [name, t] : tracer.byName()) {
      std::printf("  %-26s %9llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.totalMs,
                  t.selfMs);
    }
    const std::string path = o.outDir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".jsonl";
    tracer.write(path, prov);
    std::printf("wrote %zu spans to %s\n", tracer.spanCount(), path.c_str());
  }

  printMetrics(o.trace ? "per-layer metrics" : "end-to-end metrics", metrics);
  std::printf("%s\n", resultJson(tally, metrics).c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
