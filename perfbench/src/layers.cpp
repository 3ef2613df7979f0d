// Layer probes of the traced run. Each probe times calls into one layer's
// public functions on the workload's own inputs, so a later change to that
// layer shows here before (or instead of) the end-to-end metrics. The
// metric -> end-to-end map is in perfbench/WORKLOADS.md.
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>

#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "bench.h"
#include "corpus/dataset_reader.h"
#include "online/generation_log.h"
#include "online/online_updater.h"
#include "train/sharded_trainer.h"
#include "util/parallel.h"

namespace perfbench {

using namespace fpsm;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kKernelOps = 20000;  // per probe, >= one pool pass
constexpr std::size_t kPinOps = 200000;
constexpr std::size_t kKernelBatch = 64;
constexpr std::size_t kServeBatch = 3072;  // the audit batch size
constexpr std::size_t kReplayBatch = 4096;  // accepted occurrences
constexpr int kReps = 5;
constexpr int kForkJoins = 2000;

// Probe results feed this so the timed calls cannot be optimized away.
std::atomic<double> gSink{0};

/// Runs fn(i) for i in [0, ops) split into contiguous ranges over
/// `threads` threads, under one span; returns thread-ns per operation.
/// fn returns a value derived from the call it times. The first exception
/// a worker throws is rethrown here after every worker has joined.
template <typename Fn>
double perOpNs(ThreadTrace* trace, const char* name, unsigned threads,
               std::size_t ops, Fn&& fn) {
  const SpanScope span(trace, name);
  const std::int64_t t0 = nowNs();
  std::vector<std::exception_ptr> errors(threads);
  const std::size_t per = ops / threads;
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&fn, &errors, t, per] {
        try {
          double sink = 0;
          for (std::size_t i = t * per; i < (t + 1) * per; ++i) sink += fn(i);
          gSink.store(sink, std::memory_order_relaxed);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return static_cast<double>(nowNs() - t0) * threads /
         static_cast<double>(per * threads);
}

template <typename Fn>
double timedMs(ThreadTrace* trace, const char* name, Fn&& fn) {
  const SpanScope span(trace, name);
  const std::int64_t t0 = nowNs();
  fn();
  return (nowNs() - t0) / 1e6;
}

/// Clients the workload itself runs; the serve ladder uses as many.
unsigned workloadClients(const Fixture& fx) {
  return fx.options.workload == "signup" ? std::max(1u, fx.options.cores - 1)
                                         : 1u;
}

void probeArtifactAndServe(Fixture& fx, const Tenant& t,
                           const std::vector<std::string>& pool, Tally& tally,
                           ThreadTrace* trace, Metrics& out) {
  const auto artifact = GrammarArtifact::open(fx.artifactPath(t));
  const FlatGrammarView& view = artifact->grammar();
  const std::size_t n = pool.size();
  const std::size_t ops = std::max(kKernelOps, n);
  const unsigned clients = workloadClients(fx);
  std::vector<std::string_view> views(pool.begin(), pool.end());

  double sink = 0;
  out["artifact.score_ns"] = {
      perOpNs(trace, "artifact.log2prob", 1, ops,
              [&](std::size_t i) -> double {
                return view.log2Prob(pool[i % n]);
              }),
      "ns"};
  std::vector<double> bits(kKernelBatch);  // one batch probe thread
  const std::size_t batches = (ops + kKernelBatch - 1) / kKernelBatch;
  out["artifact.batch_ns_per_pw"] = {
      perOpNs(trace, "artifact.log2prob_batch", 1, batches,
              [&](std::size_t b) {
                const std::size_t lo = (b * kKernelBatch) % n;
                const std::size_t len = std::min(kKernelBatch, n - lo);
                view.log2ProbBatch(views.data() + lo, len, bits.data());
                return bits[0];
              }) /
          kKernelBatch,
      "ns"};
  out["artifact.bytes"] = {static_cast<double>(artifact->sizeBytes()), "B"};

  TenantMeterConfig noCache;
  noCache.cacheCapacity = 0;
  noCache.backgroundPublisher = false;
  TenantMeterConfig cached;
  cached.backgroundPublisher = false;
  const TenantMeter bare(artifact, noCache);
  const TenantMeter meter(artifact, cached);
  out["serve.pin_ns"] = {
      perOpNs(trace, "serve.snapshot", clients, kPinOps,
              [&](std::size_t) -> double {
                return static_cast<double>(meter.snapshot()->generation());
              }),
      "ns"};
  out["serve.score_nocache_ns"] = {
      perOpNs(trace, "serve.score_nocache", clients, ops,
              [&](std::size_t i) -> double {
                return bare.score(pool[i % n]).bits;
              }),
      "ns"};
  for (const std::string& pw : pool) sink += meter.score(pw).bits;  // warm
  const auto before = meter.stats().cache;
  out["serve.score_ns"] = {
      perOpNs(trace, "serve.score", clients, ops,
              [&](std::size_t i) -> double {
                return meter.score(pool[i % n]).bits;
              }),
      "ns"};
  const auto after = meter.stats().cache;
  const double lookups = static_cast<double>(after.hits + after.misses -
                                             before.hits - before.misses);
  out["serve.cache_hit_share"] = {
      static_cast<double>(after.hits - before.hits) / lookups, "ratio"};
  out["serve.cache_evictions"] = {
      static_cast<double>(after.capacityEvictions + after.staleEvictions -
                          before.capacityEvictions - before.staleEvictions),
      "count"};

  const std::size_t batchLen = std::min(kServeBatch, n);
  std::vector<std::vector<std::string>> serveBatches;
  for (std::size_t lo = 0; lo + batchLen <= n; lo += batchLen) {
    serveBatches.emplace_back(pool.begin() + lo, pool.begin() + lo + batchLen);
  }
  const std::size_t rounds = std::max<std::size_t>(1, ops / batchLen);
  out["serve.batch_ns_per_pw"] = {
      perOpNs(trace, "serve.score_batch", 1, rounds,
              [&](std::size_t r) {
                const auto& batch = serveBatches[r % serveBatches.size()];
                return meter.scoreBatch(batch, 0).front().bits;
              }) /
          batchLen,
      "ns"};

  // Registry route: the same draws through GrammarRegistry::score, minus
  // the TenantMeter::score cost just measured.
  GrammarRegistry& reg = *fx.registry;
  reg.loadTenant(t.id);
  for (const std::string& pw : pool) sink += reg.score(t.id, pw).bits;
  const double routed =
      perOpNs(trace, "registry.score", clients, ops,
              [&](std::size_t i) -> double {
                return reg.score(t.id, pool[i % n]).bits;
              });
  out["registry.route_ns"] = {routed - out["serve.score_ns"].value, "ns"};
  out["registry.update_ns"] = {
      perOpNs(trace, "registry.update", 1, kReplayBatch,
              [&](std::size_t i) {
                reg.update(t.id, pool[i % n]);
                return 0.0;
              }),
      "ns"};
  OnlineUpdater::CompactionResult res;
  out["online.compact_ms"] = {timedMs(trace, "registry.compact", [&] {
                                res = reg.compactTenant(t.id);
                              }),
                              "ms"};
  if (!res.published) tally.fail("probe: compaction not published");
  gSink.store(sink, std::memory_order_relaxed);
}

/// One compaction replayed stage by stage through public calls, kReps
/// times, plus OnlineUpdater::resume of the log it leaves behind.
void probeOnline(Fixture& fx, const Tenant& t,
                 const std::vector<std::string>& pool, Tally& tally,
                 ThreadTrace* trace, Metrics& out) {
  const fs::path dir = fx.dir / "replay";
  fs::remove_all(dir);
  OnlineUpdaterConfig cfg;
  cfg.compactionThreads = 1;
  const std::string updaterDir = (dir / "updater").string();
  {
    auto updater = OnlineUpdater::bootstrap(t.grammar, updaterDir, cfg);
    out["online.accept_ns"] = {
        perOpNs(trace, "online.accept", 1, kReplayBatch,
                [&](std::size_t i) {
                  updater->accept(pool[i % pool.size()]);
                  return 0.0;
                }),
        "ns"};
  }

  std::vector<Dataset::Entry> batch;
  for (std::size_t i = 0; i < kReplayBatch; ++i) {
    batch.push_back(Dataset::Entry{pool[i % pool.size()], 1});
  }
  TrainOptions one;
  one.threads = 1;
  const ShardedTrainer trainer(t.grammar, one);
  GenerationLog log((dir / "log").string());
  TenantMeterConfig meterCfg;
  meterCfg.backgroundPublisher = false;
  TenantMeter meter(GrammarArtifact::open(fx.artifactPath(t)), meterCfg);

  std::map<std::string, std::vector<double>> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    const SpanScope root(trace, "online.compact_replay");
    GrammarCounts delta;
    ms["train.batch_count_ms"].push_back(timedMs(
        trace, "train.count_entries",
        [&] { delta = trainer.countEntries(batch); }));
    GrammarCounts merged = t.grammar.counts();
    ms["core.merge_ms"].push_back(
        timedMs(trace, "core.merge", [&] { merged.merge(delta); }));
    std::string bytes;
    ms["artifact.write_ms"].push_back(timedMs(trace, "artifact.write", [&] {
      std::ostringstream os;
      writeArtifact(os, t.grammar.config(), t.grammar.baseWords(),
                    t.grammar.baseDictionary(), t.grammar.reversedDictionary(),
                    merged);
      bytes = std::move(os).str();
    }));
    std::uint64_t seq = 0;
    ms["online.append_ms"].push_back(timedMs(
        trace, "online.append",
        [&] { seq = log.append(bytes.data(), bytes.size()); }));
    std::shared_ptr<const GrammarArtifact> artifact;
    ms["artifact.open_ms"].push_back(timedMs(
        trace, "artifact.open",
        [&] { artifact = GrammarArtifact::open(log.pathFor(seq)); }));
    LintReport report;
    ms["analysis.lint_ms"].push_back(timedMs(trace, "analysis.lint", [&] {
      report = GrammarValidator().lint(artifact->grammar());
    }));
    if (!report.ok()) tally.fail("probe: replayed generation fails lint");
    ms["serve.publish_ms"].push_back(timedMs(
        trace, "serve.publish", [&] { meter.publishFromArtifact(artifact); }));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    ms["online.resume_ms"].push_back(timedMs(trace, "online.resume", [&] {
      if (!OnlineUpdater::resume(updaterDir, cfg)) {
        tally.fail("probe: resume returned no updater");
      }
    }));
  }
  for (auto& [name, samples] : ms) out[name] = {median(samples), "ms"};
}

/// Corpus read and training scaling on the workload's corpus: the retrain
/// file, or the tenant's training set written out in dataset format.
void probeTrain(Fixture& fx, const Tenant& t, ThreadTrace* trace,
                Metrics& out) {
  const bool retrain = fx.options.workload == "retrain";
  const std::string path = retrain ? fx.corpusPath : writeTrainingCorpus(fx, t);
  const FuzzyPsm& base = retrain ? *fx.corpusBase : t.grammar;
  const unsigned cores = fx.options.cores;

  std::vector<Dataset::Entry> entries;
  out["corpus.read_ms"] = {timedMs(trace, "corpus.read", [&] {
                             DatasetReader reader(path);
                             std::vector<Dataset::Entry> chunk;
                             while (reader.nextChunk(chunk, 1 << 16)) {
                               entries.insert(entries.end(), chunk.begin(),
                                              chunk.end());
                             }
                           }),
                           "ms"};
  out["corpus.entries"] = {static_cast<double>(entries.size()), "count"};

  const auto countStream = [&](unsigned threads, const char* name) {
    TrainOptions options;
    options.threads = threads;
    const ShardedTrainer trainer(base, options);
    return timedMs(trace, name, [&] {
      DatasetReader reader(path);
      (void)trainer.countStream(reader);
    });
  };
  const double one = countStream(1, "train.count_stream_1t");
  const double all = countStream(cores, "train.count_stream_nt");
  out["train.count_1t_ms"] = {one, "ms"};
  out["train.count_nt_ms"] = {all, "ms"};
  out["train.speedup"] = {one / all, "x"};

  // Per-slice counting (the work one worker does), then the shard merge.
  TrainOptions single;
  single.threads = 1;
  const ShardedTrainer trainer(base, single);
  std::vector<GrammarCounts> shards;
  std::vector<double> sliceMs;
  const std::size_t per = (entries.size() + cores - 1) / cores;
  for (std::size_t lo = 0; lo < entries.size(); lo += per) {
    const std::vector<Dataset::Entry> slice(
        entries.begin() + lo,
        entries.begin() + std::min(entries.size(), lo + per));
    sliceMs.push_back(timedMs(trace, "train.count_slice", [&] {
      shards.push_back(trainer.countEntries(slice));
    }));
  }
  out["train.slice_max_ms"] = {
      *std::max_element(sliceMs.begin(), sliceMs.end()), "ms"};
  out["train.slice_min_ms"] = {
      *std::min_element(sliceMs.begin(), sliceMs.end()), "ms"};
  const double mergeMs = timedMs(trace, "core.shard_merge", [&] {
    for (std::size_t i = 1; i < shards.size(); ++i) shards[0].merge(shards[i]);
  });
  out["core.shard_merge_ms"] = {mergeMs, "ms"};
}

void probeParallel(const Fixture& fx, ThreadTrace* trace, Metrics& out) {
  const unsigned cores = fx.options.cores;
  std::vector<double> us;
  std::vector<std::uint64_t> slots(cores);
  for (int i = 0; i < kForkJoins; ++i) {
    us.push_back(timedMs(trace, "parallel.for", [&] {
                   parallelFor(
                       cores, [&](std::size_t k) { slots[k] += k; }, cores);
                 }) *
                 1e3);
  }
  out["parallel.fork_join_us"] = {median(us), "us"};
}

}  // namespace

void probeLayers(Fixture& fx, Tally& tally, Tracer& tracer, Metrics& out) {
  const GrammarRegistry::Stats stats = fx.registry->stats();
  out["registry.cold_loads"] = {static_cast<double>(stats.coldLoads), "count"};
  out["registry.evictions"] = {static_cast<double>(stats.evictions), "count"};

  ThreadTrace* trace = tracer.slot(0);
  const Tenant& t = fx.tenants.front();
  const std::vector<std::string>& pool =
      fx.options.workload == "audit" ? t.audit : t.zipf;
  probeArtifactAndServe(fx, t, pool, tally, trace, out);
  probeOnline(fx, t, pool, tally, trace, out);
  probeTrain(fx, t, trace, out);
  probeParallel(fx, trace, out);
}

}  // namespace perfbench
