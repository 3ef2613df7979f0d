#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "artifact/artifact.h"
#include "bench.h"
#include "corpus/dataset_reader.h"
#include "eval/harness.h"
#include "online/generation_log.h"
#include "train/sharded_trainer.h"

namespace perfbench {

using namespace fpsm;
namespace fs = std::filesystem;

namespace {

// Three tenants with deliberately different grammars (DESIGN.md §15): a
// Chinese service, an English one, and the paper's >= 8-char policy site.
// `heldOut` names the service whose unseen passwords make up audit traffic;
// Phpbb is capped at a few thousand accounts, so English audits draw from
// Rockyou.
struct TenantSpec {
  const char* id;
  const char* base;
  const char* train;
  const char* heldOut;
};
constexpr TenantSpec kTenants[] = {
    {"zh", "Tianya", "Dodonew", "Dodonew"},
    {"en", "Rockyou", "Phpbb", "Rockyou"},
    {"policy", "Tianya", "CSDN", "CSDN"},
};

// Signup draws come from a fixed pool of Zipf draws whose distinct count
// stays under the default 4096-entry score cache, so ~99% of scores hit.
constexpr std::size_t kZipfPool = 2048;
constexpr std::size_t kAcceptedPool = std::size_t{1} << 14;
// Audit batches cycle through more distinct passwords than the cache
// holds, so the cache misses.
constexpr std::size_t kAuditTail = 12288;
constexpr std::size_t kAuditLong = 4096;
constexpr std::size_t kLongChars = 16;
constexpr double kRockyouAccounts = 32581000;  // Table VII, scale 1

/// Corpora come from the harness's default population and generator, so
/// every seed serves the same tenant grammars; `generatorSeed` overrides
/// the generator for held-out traffic.
HarnessConfig harnessConfig(double scale, std::uint64_t generatorSeed = 0) {
  HarnessConfig cfg;
  cfg.scale = scale;
  cfg.chineseUsers = 100000;
  cfg.englishUsers = 100000;
  if (generatorSeed != 0) cfg.generatorSeed = generatorSeed;
  return cfg;
}

std::vector<std::string> draws(const OccurrenceSampler& sampler, Rng& rng,
                               std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sampler.draw(rng));
  return out;
}

/// Held-out tail: the rarest passwords of a second generation of the
/// service that the tenant never trained on, plus long concatenations.
std::vector<std::string> auditPool(const Dataset& heldOut,
                                   const Dataset& training, Rng& rng) {
  const auto& sorted = heldOut.sortedByFrequency();
  std::vector<std::string> tail;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (tail.size() == kAuditTail) break;
    if (!training.contains(it->password)) tail.push_back(it->password);
  }
  if (tail.size() < kAuditTail / 2) {
    throw std::runtime_error("audit pool: held-out corpus too small");
  }
  std::vector<std::string> pool = tail;
  for (std::size_t i = 0; i < kAuditLong; ++i) {
    std::string pw = tail[rng.below(tail.size())];
    while (pw.size() < kLongChars) pw += tail[rng.below(tail.size())];
    pool.push_back(std::move(pw));
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

void writeLines(const std::string& path, const std::vector<std::string>& pws) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& pw : pws) out << pw << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace

OccurrenceSampler::OccurrenceSampler(const Dataset& dataset) {
  std::uint64_t total = 0;
  for (const Dataset::Entry& e : dataset.sortedByFrequency()) {
    total += e.count;
    passwords_.push_back(&e.password);
    cumulative_.push_back(total);
  }
  if (total == 0) throw std::runtime_error("sampler: empty dataset");
}

const std::string& OccurrenceSampler::draw(Rng& rng) const {
  const std::uint64_t x = rng.below(cumulative_.back());
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), x);
  return *passwords_[static_cast<std::size_t>(it - cumulative_.begin())];
}

Fixture::~Fixture() {
  registry.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string Fixture::artifactPath(const Tenant& tenant) const {
  return (fs::path(registry->rootDir()) / tenant.id /
          GenerationLog::fileNameFor(1))
      .string();
}

std::unique_ptr<Fixture> buildFixture(const Options& options, int index) {
  auto fx = std::make_unique<Fixture>();
  fx->options = options;
  fx->dir = fs::path(options.outDir) /
            ("run-" + std::to_string(getpid()) + "-" + std::to_string(index));
  fs::remove_all(fx->dir);
  fs::create_directories(fx->dir);
  const std::string& workload = options.workload;
  Rng rng(deriveSeed(options.seed, 10));

  EvalHarness harness(harnessConfig(options.scale));
  std::vector<std::vector<std::byte>> artifacts;
  std::uint64_t largest = 0;
  for (const TenantSpec& spec : kTenants) {
    Tenant t;
    t.id = spec.id;
    const Dataset& training = harness.dataset(spec.train);
    t.grammar.loadBaseDictionary(harness.dataset(spec.base));
    t.grammar.train(training);
    t.training = training.sortedByFrequency();
    const OccurrenceSampler sampler(training);
    t.zipf = draws(sampler, rng, kZipfPool);
    if (workload == "signup") t.accepted = draws(sampler, rng, kAcceptedPool);
    artifacts.push_back(compileArtifact(t.grammar));
    largest = std::max<std::uint64_t>(largest, artifacts.back().size());
    fx->tenants.push_back(std::move(t));
  }

  GrammarRegistryConfig cfg;
  cfg.rootDir = (fx->dir / "registry").string();
  cfg.tenantConfig.compactionThreads = 1;
  // Retrain cycles tenants through a budget that holds about one of them,
  // so every touch of another tenant is a cold load.
  if (workload == "retrain") cfg.residentBytesBudget = largest + largest / 2;
  fx->registry = std::make_unique<GrammarRegistry>(cfg);
  for (std::size_t i = 0; i < fx->tenants.size(); ++i) {
    fx->registry->addTenant(fx->tenants[i].id, artifacts[i].data(),
                            artifacts[i].size());
  }

  if (workload == "audit") {
    EvalHarness heldOut(
        harnessConfig(options.scale * 4, deriveSeed(options.seed, 100)));
    for (std::size_t i = 0; i < fx->tenants.size(); ++i) {
      Tenant& t = fx->tenants[i];
      t.audit = auditPool(heldOut.dataset(kTenants[i].heldOut),
                          harness.dataset(kTenants[i].train), rng);
      const auto artifact = GrammarArtifact::open(fx->artifactPath(t));
      t.auditBits.reserve(t.audit.size());
      for (const std::string& pw : t.audit) {
        t.auditBits.push_back(artifact->grammar().strengthBits(pw));
      }
    }
  }

  if (workload == "retrain") {
    // A leak-file-shaped corpus: one line per account, drawn from a
    // Rockyou generation sized to the requested line count.
    const double corpusScale =
        static_cast<double>(options.corpusEntries) / kRockyouAccounts;
    EvalHarness big(harnessConfig(corpusScale));
    const OccurrenceSampler sampler(big.dataset("Rockyou"));
    fx->corpusPath = (fx->dir / "corpus.txt").string();
    const auto lines = draws(sampler, rng, options.corpusEntries);
    writeLines(fx->corpusPath, lines);
    fx->corpusProbe = lines.front();
    fx->corpusBase = std::make_unique<FuzzyPsm>();
    fx->corpusBase->loadBaseDictionary(harness.dataset("Rockyou"));
  } else {
    for (const Tenant& t : fx->tenants) fx->registry->loadTenant(t.id);
  }
  return fx;
}

std::string writeTrainingCorpus(const Fixture& fixture, const Tenant& tenant) {
  const std::string path =
      (fixture.dir / ("training-" + tenant.id + ".txt")).string();
  std::ofstream out(path, std::ios::trunc);
  for (const Dataset::Entry& e : tenant.training) {
    out << e.password << '\t' << e.count << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  return path;
}

std::string trainCorpus(const Fixture& fixture, unsigned threads,
                        ThreadTrace* trace) {
  const FuzzyPsm& base = *fixture.corpusBase;
  TrainOptions options;
  options.threads = threads;
  const ShardedTrainer trainer(base, options);
  DatasetReader reader(fixture.corpusPath);
  GrammarCounts counts;
  {
    const SpanScope span(trace, "train.count_stream");
    counts = trainer.countStream(reader);
  }
  const SpanScope span(trace, "artifact.write");
  std::ostringstream out;
  writeArtifact(out, base.config(), base.baseWords(), base.baseDictionary(),
                base.reversedDictionary(), counts);
  return std::move(out).str();
}

}  // namespace perfbench
