// The three workloads. Each drives one part of the stack hard and leaves
// the rest nearly idle (perfbench/WORKLOADS.md):
//   signup   closed loop, cores-1 readers + 1 paced writer, registry score
//            path with ~99% cache hits under periodic publishes;
//   audit    closed loop, 1 client, scoreBatch over mostly distinct
//            passwords (cache misses, parse/score kernel, fork/join);
//   retrain  operator loop, stream-train a corpus file into a registered
//            artifact, then evict -> first-score cold loads.
// Every output is checked; a failed check counts as a failed operation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <thread>

#include "artifact/checksum.h"
#include "bench.h"

namespace perfbench {

using namespace fpsm;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kWarmupSeconds = 0.5;
// Measured stretches are split into this many rounds; throughput is the
// median of the rounds' throughputs.
constexpr int kRounds = 10;
// Signup writer pacing: kAcceptPerTick accepted occurrences per 1 ms tick,
// and a compaction of the next tenant every kCompactEvery of them.
constexpr int kAcceptPerTick = 16;
constexpr std::uint64_t kCompactEvery = 4096;
// One signup score call in kLatencyStride is timed; one in kTraceStride
// gets a span in the traced run.
constexpr std::uint64_t kLatencyStride = 32;
constexpr std::uint64_t kTraceStride = 64;
constexpr std::size_t kLatencySamples = std::size_t{1} << 16;  // per reader
constexpr std::size_t kAuditBatch = 3072;
constexpr int kColdLoadsPerPass = 64;
// Printed tail quantiles: the highest that keeps >= 10 samples beyond it
// in a 15 s run (~1300 audit batches, ~380 retrain cold loads).
constexpr double kSignupTailQ = 0.99;
constexpr double kAuditTailQ = 0.99;
constexpr double kRetrainTailQ = 0.95;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

WorkloadRun runSignup(Fixture& fx, double seconds, Tally& tally,
                      Tracer* tracer) {
  GrammarRegistry& reg = *fx.registry;
  const auto& tenants = fx.tenants;
  const unsigned readers = std::max(1u, fx.options.cores - 1);
  std::vector<ThreadTrace*> slots(readers + 1, nullptr);
  if (tracer) {
    for (unsigned i = 0; i <= readers; ++i) slots[i] = tracer->slot(i);
  }

  // jthreads request stop and join on every exit path, exceptions too.
  std::atomic<bool> measuring{false};
  std::vector<double> compactMs;
  std::jthread writer([&](const std::stop_token& stop) {
    Rng rng(deriveSeed(fx.options.seed, 99));
    ThreadTrace* trace = slots[readers];
    std::uint64_t accepted = 0;
    std::uint64_t compactions = 0;
    auto tick = Clock::now();
    while (!stop.stop_requested()) {
      try {
        for (int k = 0; k < kAcceptPerTick; ++k) {
          const Tenant& t = tenants[rng.below(tenants.size())];
          const SpanScope span(trace, "registry.update");
          reg.update(t.id, t.accepted[rng.below(t.accepted.size())]);
        }
        accepted += kAcceptPerTick;
        if (accepted % kCompactEvery == 0) {
          const Tenant& t = tenants[compactions++ % tenants.size()];
          const std::int64_t t0 = nowNs();
          OnlineUpdater::CompactionResult res;
          {
            const SpanScope span(trace, "registry.compact");
            res = reg.compactTenant(t.id);
          }
          if (measuring.load(std::memory_order_acquire)) {
            compactMs.push_back((nowNs() - t0) / 1e6);
          }
          tally.attempted.fetch_add(1, std::memory_order_relaxed);
          if (!res.published) {
            tally.fail("signup: compaction not published: " + res.rejection);
          }
        }
      } catch (const std::exception& e) {
        tally.fail(std::string("signup writer: ") + e.what());
      }
      tick += std::chrono::milliseconds(1);
      const auto now = Clock::now();
      if (tick < now - std::chrono::milliseconds(10)) tick = now;
      std::this_thread::sleep_until(tick);
    }
  });

  // Readers run in rounds with fresh threads, so one run samples several
  // thread placements; throughput is the median over rounds. A reader
  // slot keeps its last-seen generations across rounds.
  std::vector<std::vector<std::uint64_t>> lastGeneration(
      readers, std::vector<std::uint64_t>(tenants.size(), 0));
  std::vector<double> roundKps;
  std::vector<Reservoir> latencyMs;
  for (unsigned r = 0; r < readers; ++r) {
    latencyMs.emplace_back(kLatencySamples,
                           deriveSeed(fx.options.seed, 50 + r));
  }
  const auto round = [&](std::uint64_t index, double secs, bool measure) {
    std::vector<std::uint64_t> scores(readers, 0);
    std::vector<std::jthread> threads;
    for (unsigned r = 0; r < readers; ++r) {
      threads.emplace_back([&, r](const std::stop_token& stop) {
        Rng rng(deriveSeed(fx.options.seed, 1000 * index + r));
        std::vector<std::uint64_t>& last = lastGeneration[r];
        std::uint64_t calls = 0;
        while (!stop.stop_requested()) {
          const std::size_t t = rng.below(tenants.size());
          const auto& pool = tenants[t].zipf;
          const std::string& pw = pool[rng.below(pool.size())];
          const bool timed = ++calls % kLatencyStride == 0;
          ThreadTrace* trace = calls % kTraceStride == 0 ? slots[r] : nullptr;
          const std::int64_t t0 = timed ? nowNs() : 0;
          TenantMeter::Score s{};
          try {
            const SpanScope span(trace, "registry.score");
            s = reg.score(tenants[t].id, pw);
          } catch (const std::exception& e) {
            tally.fail(std::string("signup score: ") + e.what());
            continue;
          }
          if (timed && measure) latencyMs[r].add((nowNs() - t0) / 1e6);
          if (!std::isfinite(s.bits)) tally.fail("signup: non-finite score");
          if (s.generation < last[t]) {
            tally.fail("signup: generation went backwards");
          }
          last[t] = s.generation;
        }
        scores[r] = calls;
        tally.attempted.fetch_add(calls, std::memory_order_relaxed);
      });
    }
    const auto start = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    for (auto& t : threads) t.request_stop();
    for (auto& t : threads) t.join();
    const double elapsed = secondsSince(start);
    if (!measure) return;
    std::uint64_t total = 0;
    for (const std::uint64_t n : scores) total += n;
    roundKps.push_back(static_cast<double>(total) / elapsed / 1e3);
  };

  round(0, kWarmupSeconds, false);
  measuring.store(true, std::memory_order_release);
  for (int i = 1; i <= kRounds; ++i) round(i, seconds / kRounds, true);
  writer.request_stop();
  writer.join();

  std::vector<double> latency;
  for (const Reservoir& r : latencyMs) {
    latency.insert(latency.end(), r.samples().begin(), r.samples().end());
  }
  WorkloadRun run;
  run.throughputKps = median(roundKps);
  run.latencyMs = summarize(std::move(latency), kSignupTailQ);
  const Latency compact = summarize(compactMs, 0.5);
  double hits = 0;
  for (const auto& info : reg.tenants()) hits += info.cacheHitRate;
  run.extra["score_kps"] = {run.throughputKps, "k/s"};
  run.extra["score_p50_us"] = {run.latencyMs.p50 * 1e3, "us"};
  run.extra["score_p99_us"] = {run.latencyMs.tail * 1e3, "us"};
  run.extra["compact_p50_ms"] = {compact.p50, "ms"};
  run.extra["compactions"] = {static_cast<double>(compact.n), "count"};
  run.extra["cache_hit_share"] = {hits / tenants.size(), "ratio"};
  run.extra["readers"] = {static_cast<double>(readers), "count"};
  return run;
}

WorkloadRun runAudit(Fixture& fx, double seconds, Tally& tally,
                     Tracer* tracer) {
  GrammarRegistry& reg = *fx.registry;
  ThreadTrace* trace = tracer ? tracer->slot(0) : nullptr;
  struct Batch {
    const Tenant* tenant;
    std::vector<std::string> pws;
    std::vector<double> bits;
  };
  // Tenants interleave batch by batch; each tenant's batches walk its
  // whole pool before repeating, so a password recurs only after more
  // distinct ones than its cache holds.
  std::vector<Batch> batches;
  for (std::size_t start = 0;; start += kAuditBatch) {
    bool any = false;
    for (const Tenant& t : fx.tenants) {
      if (start + kAuditBatch > t.audit.size()) continue;
      any = true;
      Batch b{&t, {}, {}};
      b.pws.assign(t.audit.begin() + start,
                   t.audit.begin() + start + kAuditBatch);
      b.bits.assign(t.auditBits.begin() + start,
                    t.auditBits.begin() + start + kAuditBatch);
      batches.push_back(std::move(b));
    }
    if (!any) break;
  }

  std::size_t next = 0;
  std::vector<double> latency;
  // Scores batches for `secs`; returns passwords per second.
  const auto round = [&](double secs, bool measure) {
    std::uint64_t passwords = 0;
    const auto start = Clock::now();
    while (secondsSince(start) < secs) {
      const Batch& b = batches[next++ % batches.size()];
      const std::int64_t t0 = nowNs();
      std::vector<TenantMeter::Score> res;
      try {
        const SpanScope span(trace, "registry.score_batch");
        res = reg.scoreBatch(b.tenant->id, b.pws, 0);
      } catch (const std::exception& e) {
        tally.fail(std::string("audit: ") + e.what());
        continue;
      }
      const double ms = (nowNs() - t0) / 1e6;
      tally.attempted.fetch_add(b.pws.size(), std::memory_order_relaxed);
      if (res.size() != b.pws.size()) {
        tally.fail("audit: short batch");
        continue;
      }
      for (std::size_t k = 0; k < res.size(); ++k) {
        if (!sameBits(res[k].bits, b.bits[k])) {
          tally.fail("audit: bits differ from the standalone reference for '" +
                     b.pws[k] + "'");
        }
      }
      if (measure) latency.push_back(ms);
      passwords += b.pws.size();
    }
    return static_cast<double>(passwords) / secondsSince(start);
  };

  round(kWarmupSeconds, false);
  std::vector<double> roundKps;
  for (int i = 0; i < kRounds; ++i) {
    roundKps.push_back(round(seconds / kRounds, true) / 1e3);
  }
  WorkloadRun run;
  run.throughputKps = median(roundKps);
  run.latencyMs = summarize(std::move(latency), kAuditTailQ);
  double hits = 0;
  for (const auto& info : reg.tenants()) hits += info.cacheHitRate;
  run.extra["batch_kpw_s"] = {run.throughputKps, "k/s"};
  run.extra["batch_p50_ms"] = {run.latencyMs.p50, "ms"};
  run.extra["batch_p99_ms"] = {run.latencyMs.tail, "ms"};
  run.extra["batch_size"] = {static_cast<double>(kAuditBatch), "count"};
  run.extra["cache_hit_share"] = {hits / fx.tenants.size(), "ratio"};
  return run;
}

WorkloadRun runRetrain(Fixture& fx, double seconds, Tally& tally,
                       Tracer* tracer) {
  GrammarRegistry& reg = *fx.registry;
  ThreadTrace* trace = tracer ? tracer->slot(0) : nullptr;
  Rng rng(deriveSeed(fx.options.seed, 7));

  std::vector<double> passRate;  // entries per second, one per pass
  std::vector<double> firstScoreMs;
  std::vector<double> coldMs;
  const auto onePass = [&] {
    const SpanScope root(trace, "retrain.pass");
    const std::int64_t t0 = nowNs();
    const std::string bytes = trainCorpus(fx, fx.options.cores, trace);
    if (xxhash64(bytes.data(), bytes.size()) != fx.referenceDigest) {
      tally.fail("retrain: artifact digest differs from the 1-thread one");
    }
    const std::string id = "retrain-" + std::to_string(++fx.retrainPasses);
    {
      const SpanScope span(trace, "registry.add_tenant");
      reg.addTenant(id, bytes.data(), bytes.size());
    }
    const std::int64_t t1 = nowNs();
    double bits = 0;
    {
      const SpanScope span(trace, "registry.first_score");
      bits = reg.score(id, fx.corpusProbe).bits;
    }
    const std::int64_t t2 = nowNs();
    tally.attempted.fetch_add(1, std::memory_order_relaxed);
    if (!std::isfinite(bits)) tally.fail("retrain: non-finite first score");
    passRate.push_back(static_cast<double>(fx.options.corpusEntries) /
                       ((t1 - t0) / 1e9));
    firstScoreMs.push_back((t2 - t1) / 1e6);
  };
  const auto coldLoads = [&](int n, bool measuring) {
    for (int c = 0; c < n; ++c) {
      const Tenant& t =
          fx.tenants[static_cast<std::size_t>(c) % fx.tenants.size()];
      const SpanScope root(trace, "retrain.cold_cycle");
      if (reg.resident(t.id)) {
        const SpanScope span(trace, "registry.evict");
        if (!reg.evictTenant(t.id)) tally.fail("retrain: eviction refused");
      }
      const std::string& pw = t.zipf[rng.below(t.zipf.size())];
      const std::int64_t t0 = nowNs();
      double bits = 0;
      {
        const SpanScope span(trace, "registry.cold_score");
        bits = reg.score(t.id, pw).bits;
      }
      const double ms = (nowNs() - t0) / 1e6;
      tally.attempted.fetch_add(1, std::memory_order_relaxed);
      if (!std::isfinite(bits)) tally.fail("retrain: non-finite cold score");
      if (measuring) coldMs.push_back(ms);
    }
  };

  try {
    coldLoads(kColdLoadsPerPass / 4, false);
    const auto start = Clock::now();
    do {
      onePass();
      coldLoads(kColdLoadsPerPass, true);
    } while (secondsSince(start) < seconds);
  } catch (const std::exception& e) {
    tally.fail(std::string("retrain: ") + e.what());
  }

  WorkloadRun run;
  run.throughputKps = median(passRate) / 1e3;
  run.latencyMs = summarize(coldMs, kRetrainTailQ);
  run.extra["train_kentries_s"] = {run.throughputKps, "k/s"};
  run.extra["passes"] = {static_cast<double>(passRate.size()), "count"};
  run.extra["cold_load_p50_ms"] = {run.latencyMs.p50, "ms"};
  run.extra["cold_load_p95_ms"] = {run.latencyMs.tail, "ms"};
  run.extra["first_score_p50_ms"] = {median(firstScoreMs), "ms"};
  run.extra["corpus_entries"] = {static_cast<double>(fx.options.corpusEntries),
                                 "count"};
  return run;
}

}  // namespace

void Tally::fail(const std::string& what) {
  if (failed.fetch_add(1, std::memory_order_relaxed) < 5) {
    std::cerr << "check failed: " << what << '\n';
  }
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

Latency summarize(std::vector<double> samples, double tailQ) {
  Latency out;
  out.n = samples.size();
  out.tailQ = tailQ;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const auto rank = static_cast<std::size_t>(q * samples.size());
    return samples[std::min(rank, samples.size() - 1)];
  };
  out.p50 = at(0.5);
  out.tail = at(tailQ);
  return out;
}

WorkloadRun runWorkload(Fixture& fx, double seconds, Tally& tally,
                        Tracer* tracer) {
  const std::string& w = fx.options.workload;
  if (w == "signup") return runSignup(fx, seconds, tally, tracer);
  if (w == "audit") return runAudit(fx, seconds, tally, tracer);
  return runRetrain(fx, seconds, tally, tracer);
}

}  // namespace perfbench
