// Shared declarations of the perfbench binary: options, the per-run
// fixture (corpora, grammars, tenants, traffic), and the workload and
// layer-probe entry points. See perfbench/WORKLOADS.md for what each
// workload drives and which metric each layer probe should move.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"
#include "registry/grammar_registry.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fraction of the paper's Table VII corpus sizes for tenant grammars.
  double scale = 0.001;
  /// Lines of the retrain corpus file.
  std::size_t corpusEntries = 1'000'000;
  /// Set-ups per untraced run; setup_s is their median.
  int setups = 5;
  std::string outDir = ".";
  std::string gitSha = "unknown";
  unsigned cores = 1;  ///< CPUs the process may run on (nproc)
};

/// A seed for one input stream of a run, derived from --seed and a salt.
inline std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt) {
  fpsm::Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  return rng();
}

/// Correctness and operation tallies; workers add to them concurrently.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  /// Counts a failed check and reports the first few on stderr.
  void fail(const std::string& what);
};

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Latency summary: median, the `tailQ` quantile and the sample count.
/// Each workload fixes its tail quantile so that a run keeps at least ten
/// samples beyond it. The tail is printed, not bounded (WORKLOADS.md).
struct Latency {
  double p50 = 0;
  double tail = 0;
  double tailQ = 0;
  std::size_t n = 0;
};
Latency summarize(std::vector<double> samples, double tailQ);
double median(std::vector<double> samples);

/// A fixed-size uniform sample of a stream of values (Algorithm R), so the
/// memory a run uses does not grow with its throughput.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {
    samples_.reserve(capacity);
  }
  void add(double value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
    } else if (const std::uint64_t j = rng_.below(seen_); j < capacity_) {
      samples_[j] = value;
    }
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  fpsm::Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
};

/// Draws occurrences uniformly from a dataset's multiset, so popular
/// passwords come up in proportion to their count (the Zipf shape of
/// Dataset::sampleOccurrence, in O(log n) per draw).
class OccurrenceSampler {
 public:
  explicit OccurrenceSampler(const fpsm::Dataset& dataset);
  const std::string& draw(fpsm::Rng& rng) const;

 private:
  std::vector<const std::string*> passwords_;
  std::vector<std::uint64_t> cumulative_;
};

struct Tenant {
  std::string id;
  fpsm::FuzzyPsm grammar;  ///< the trained grammar registered as gen 1
  std::vector<fpsm::Dataset::Entry> training;  ///< what `grammar` learned
  /// Occurrence-weighted request draws (signup readers, cold-load probes).
  std::vector<std::string> zipf;
  /// Occurrence-weighted accepted passwords the signup writer feeds.
  std::vector<std::string> accepted;
  /// Mostly distinct held-out tail draws plus long (>= 16 char) passwords.
  std::vector<std::string> audit;
  /// strengthBits of `audit` from a standalone FlatGrammarView over the
  /// tenant's generation-1 artifact: the audit workload's reference.
  std::vector<double> auditBits;
};

struct Fixture {
  Options options;
  std::filesystem::path dir;  ///< fresh per fixture, removed on destruction
  std::unique_ptr<fpsm::GrammarRegistry> registry;
  std::vector<Tenant> tenants;
  /// Retrain: base dictionary the corpus is counted against, the corpus
  /// file, and the digest of the artifact a 1-thread pass produces.
  std::unique_ptr<fpsm::FuzzyPsm> corpusBase;
  std::string corpusPath;
  std::string corpusProbe;  ///< a corpus password, scored after each pass
  std::uint64_t referenceDigest = 0;
  std::uint64_t retrainPasses = 0;  ///< names each pass's new tenant

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture();

  std::string artifactPath(const Tenant& tenant) const;
};

/// Builds corpora, grammars, tenants and traffic for `options.workload`
/// under a fresh directory `<outDir>/run-<pid>-<index>`.
std::unique_ptr<Fixture> buildFixture(const Options& options, int index);

/// Writes `tenant`'s training corpus as a dataset file (layer probes).
std::string writeTrainingCorpus(const Fixture& fixture, const Tenant& tenant);

/// Counts the retrain corpus with `threads` workers and compiles it.
std::string trainCorpus(const Fixture& fixture, unsigned threads,
                        ThreadTrace* trace);

/// One measured stretch of a workload; a null `tracer` runs untraced.
struct WorkloadRun {
  double throughputKps = 0;  ///< thousand operations per second
  Latency latencyMs;         ///< per client operation
  Metrics extra;             ///< workload-specific detail (human output)
};
WorkloadRun runWorkload(Fixture& fixture, double seconds, Tally& tally,
                        Tracer* tracer);

/// The traced run's layer probes; fills per-layer metrics.
void probeLayers(Fixture& fixture, Tally& tally, Tracer& tracer,
                 Metrics& out);

}  // namespace perfbench
