// End-to-end benchmark of the Figure 2 pipeline. Runs one named workload
// against the public MediationEngine / FederatedSource / net APIs with a
// closed loop of client threads, checks every answer against a serial
// oracle, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: perfbench --workload <inproc-3200|uds-200|durable-mix> --seed <n>
//                  --seconds <s> --trace <0|1> [--workdir <dir>]
//                  [--git-sha <sha>]
// Normally started through run.py, which builds it first.

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "deployment.h"
#include "trace_log.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using piye::mediator::MediationEngine;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_run/perfbench";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// The engine's six stages, in the order it records them.
constexpr const char* kStages[] = {"warehouse-lookup", "fragment",
                                   "source-execution", "privacy-control",
                                   "integrate",        "record"};
constexpr size_t kNumStages = 6;
enum StageIndex { kLookup, kFragment, kFanout, kPrivacy, kIntegrate, kRecord };

struct QueryRecord {
  double wall_us = 0.0;
  double stage_us[kNumStages] = {-1, -1, -1, -1, -1, -1};  ///< -1 = absent
  bool ok = false;
  bool mismatch = false;
  bool from_warehouse = false;
  uint64_t rows = 0;
  uint64_t digest = 0;   ///< TableDigest of the answer
  uint64_t span_id = 0;  ///< engine.execute span (traced phases only)
};

/// One attempted query, compact so the benchmark's own bookkeeping barely
/// shows in peak_rss_mb.
struct Sample {
  float end_s;    ///< completion time, seconds from the phase start
  float wall_ms;  ///< Execute wall time
};

struct PhaseResult {
  std::vector<Sample> samples;       ///< every attempted query, by end_s
  std::vector<QueryRecord> records;  ///< full records, traced phases only
  double elapsed_s = 0.0;
  size_t failed = 0;      ///< non-OK returns + mismatching answers
  size_t mismatches = 0;  ///< OK answers that differ from the oracle
  size_t verified = 0;    ///< OK answers equal to the oracle's

  double qps() const { return verified / elapsed_s; }

  /// Appends a phase run right after this one, shifting its completion
  /// times past this one's end.
  void Append(PhaseResult&& later) {
    for (Sample& s : later.samples) s.end_s += static_cast<float>(elapsed_s);
    samples.insert(samples.end(), later.samples.begin(), later.samples.end());
    records.insert(records.end(), later.records.begin(), later.records.end());
    elapsed_s += later.elapsed_s;
    failed += later.failed;
    mismatches += later.mismatches;
    verified += later.verified;
  }
};

/// Issues queries against one engine and checks each answer.
class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, const std::vector<Template>& templates,
         const std::vector<uint64_t>& expected)
      : spec_(spec), templates_(templates), expected_(expected) {}

  QueryRecord RunOne(MediationEngine* engine, const QueryStream::Pick& pick,
                     SpanLog* log) {
    const Template& t = templates_[pick.tmpl];
    piye::mediator::QueryOptions options = t.options;
    options.requester = pick.requester;
    QueryRecord rec;
    const bool traced = log->enabled();
    if (traced) rec.span_id = log->BeginExecute(pick.requester);
    const auto start = Clock::now();
    auto result = engine->Execute(t.query, options);
    const auto end = Clock::now();
    if (traced) log->EndExecute(rec.span_id, pick.requester, start, end);
    rec.wall_us = std::chrono::duration<double, std::micro>(end - start).count();
    if (result.ok()) {
      rec.ok = true;
      rec.from_warehouse = result->from_warehouse;
      rec.rows = result->table().num_rows();
      for (const auto& timing : result->timings) {
        for (size_t s = 0; s < kNumStages; ++s) {
          if (timing.stage == kStages[s]) rec.stage_us[s] = timing.micros;
        }
      }
      rec.digest = TableDigest(result->table());
      rec.mismatch = rec.digest != expected_[pick.tmpl];
    }
    if (spec_.mix && (issued_.fetch_add(1) + 1) % spec_.epoch_every == 0) {
      engine->AdvanceEpoch();
      // Entries older than warehouse_max_age (1) can never be served again;
      // evicting them keeps the warehouse, and every snapshot of it, at a
      // steady size. A failure here fails the engine closed, which the
      // following queries report.
      if (engine->epoch() > 1) {
        (void)engine->EvictWarehouseOlderThan(engine->epoch() - 1);
      }
    }
    return rec;
  }

  /// Closed loop: each client sends its next query only after the previous
  /// one returned, until `seconds` have passed. Full records are kept only
  /// while `log` is recording.
  PhaseResult Run(MediationEngine* engine, std::vector<QueryStream>* streams,
                  double seconds, SpanLog* log) {
    struct ClientResult {
      std::vector<Sample> samples;
      std::deque<QueryRecord> records;
      size_t verified = 0, mismatches = 0, failed = 0;
    };
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<ClientResult> per_client(streams->size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < streams->size(); ++c) {
      threads.emplace_back([&, c] {
        ClientResult& out = per_client[c];
        while (Clock::now() < deadline) {
          const QueryRecord rec = RunOne(engine, (*streams)[c].Next(), log);
          const double end_s =
              std::chrono::duration<double>(Clock::now() - start).count();
          out.samples.push_back({static_cast<float>(end_s),
                                 static_cast<float>(rec.wall_us / 1000)});
          if (rec.ok && !rec.mismatch) ++out.verified;
          if (rec.mismatch) ++out.mismatches;
          if (!rec.ok || rec.mismatch) ++out.failed;
          if (log->enabled()) out.records.push_back(rec);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    PhaseResult phase;
    phase.elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    size_t queries = 0, records = 0;
    for (const auto& out : per_client) {
      queries += out.samples.size();
      records += out.records.size();
    }
    phase.samples.reserve(queries);
    phase.records.reserve(records);
    for (const auto& out : per_client) {
      phase.samples.insert(phase.samples.end(), out.samples.begin(),
                           out.samples.end());
      phase.records.insert(phase.records.end(), out.records.begin(),
                           out.records.end());
      phase.verified += out.verified;
      phase.mismatches += out.mismatches;
      phase.failed += out.failed;
    }
    std::sort(phase.samples.begin(), phase.samples.end(),
              [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
    return phase;
  }

 private:
  const WorkloadSpec& spec_;
  const std::vector<Template>& templates_;
  const std::vector<uint64_t>& expected_;
  std::atomic<uint64_t> issued_{0};
};

/// p-th percentile, p in [0, 100], linearly interpolated; 0 if empty.
double Percentile(std::vector<double> values, double p) {
  return piye::stats::Percentile(std::move(values), p / 100.0);
}

/// The timed phase cut, in completion order, into up to kMaxBlocks
/// consecutive blocks of at least kMinBlockSamples queries each (so a block's
/// p99 has at least ten samples beyond it). The latency percentiles are
/// medians over blocks, so a burst of outside load during a minority of the
/// run does not move them.
struct Block {
  const Sample* begin;
  const Sample* end;
};
using Blocks = std::vector<Block>;

Blocks SplitBlocks(const std::vector<Sample>& samples) {
  constexpr size_t kMaxBlocks = 10, kMinBlockSamples = 1000;
  const size_t count = std::clamp<size_t>(samples.size() / kMinBlockSamples, 1,
                                          kMaxBlocks);
  Blocks blocks;
  for (size_t b = 0; b < count; ++b) {
    const size_t lo = samples.size() * b / count;
    const size_t hi = samples.size() * (b + 1) / count;
    if (lo < hi) blocks.push_back({samples.data() + lo, samples.data() + hi});
  }
  return blocks;
}

/// Median over blocks of each block's p-th latency percentile.
double MedianBlockPercentile(const Blocks& blocks, double p) {
  std::vector<double> per_block;
  for (const auto& block : blocks) {
    std::vector<double> wall_ms;
    for (const Sample* s = block.begin; s != block.end; ++s) {
      wall_ms.push_back(s->wall_ms);
    }
    per_block.push_back(Percentile(wall_ms, p));
  }
  return Percentile(per_block, 50);
}

std::vector<double> StageSamples(const std::vector<QueryRecord>& records,
                                 size_t stage) {
  std::vector<double> out;
  for (const auto& rec : records) {
    if (rec.stage_us[stage] >= 0.0) out.push_back(rec.stage_us[stage]);
  }
  return out;
}

std::vector<double> SpanSamples(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (std::string(span.name) == name) out.push_back(span.micros());
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Tears down a deployment built only to time set-up, with its persist
/// directory.
void Discard(std::unique_ptr<Deployment> d) {
  if (d == nullptr) return;
  const std::string dir = d->persist_dir;
  d.reset();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::remove_all(dir, ec);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool applies = true;  ///< false: the layer is not on this workload's path
  std::string note;
};

/// Exact counts and the answer digest of a serial replay of client 0's first
/// `replay_queries` queries on a fresh deployment. Serial execution makes
/// warehouse hits, epochs, frames and WAL records a pure function of the
/// seed, so these repeat exactly across runs with the same seed.
struct Replay {
  uint64_t answer_digest = 0;
  size_t queries = 0;
  size_t failed = 0;      ///< non-OK returns + mismatching answers
  size_t mismatches = 0;  ///< OK answers that differ from the oracle
  double frames_per_query = 0.0;
  double wal_records_per_release = 0.0;
};

uint64_t TransportFrames(const MediationEngine::HealthReport& health) {
  uint64_t frames = 0;
  for (const auto& source : health.sources) {
    frames += source.transport.frames_sent + source.transport.frames_received;
  }
  return frames;
}

piye::Result<Replay> RunReplay(const WorkloadSpec& spec, const Args& args,
                               const std::vector<Template>& templates,
                               const std::vector<uint64_t>& expected) {
  SpanLog quiet;
  PIYE_ASSIGN_OR_RETURN(auto d, BuildDeployment(spec, args.seed, args.workdir,
                                                 "replay", &quiet));
  LoadGenerator load(spec, templates, expected);
  QueryStream stream(spec, templates.size(), args.seed, /*client=*/0);
  const uint64_t frames_before = TransportFrames(d->engine->Health());
  const uint64_t wal_before = d->engine->metrics()->counter("engine.wal_records");
  const size_t releases_before = d->engine->history()->size();
  Replay replay;
  for (size_t i = 0; i < spec.replay_queries; ++i) {
    const QueryStream::Pick pick = stream.Next();
    const QueryRecord rec = load.RunOne(d->engine.get(), pick, &quiet);
    if (rec.mismatch) ++replay.mismatches;
    if (!rec.ok || rec.mismatch) ++replay.failed;
    replay.answer_digest = Mix(replay.answer_digest ^ Mix(rec.digest + i));
    ++replay.queries;
  }
  const uint64_t frames = TransportFrames(d->engine->Health()) - frames_before;
  const uint64_t wal =
      d->engine->metrics()->counter("engine.wal_records") - wal_before;
  const size_t releases = d->engine->history()->size() - releases_before;
  replay.frames_per_query = static_cast<double>(frames) / replay.queries;
  replay.wal_records_per_release =
      releases == 0 ? 0.0 : static_cast<double>(wal) / releases;
  return replay;
}

void PrintMetric(const Metric& m) {
  if (!m.applies) {
    std::printf("  %-36s %14s %-6s (layer not on this workload's path)\n",
                m.name.c_str(), "n/a", m.unit.c_str());
    return;
  }
  std::printf("  %-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].applies ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--git-sha <sha>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  piye::Logger::SetLevel(piye::LogLevel::kError);
  ::signal(SIGPIPE, SIG_IGN);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  std::printf("perfbench workload=%s seed=%llu clients=%zu seconds=%g "
              "trace=%d build=%s nproc=%u git=%s\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              spec->clients, args.seconds, args.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              args.git_sha.c_str());

  const std::vector<Template> templates = Templates(*spec);
  auto expected = ExpectedDigests(*spec, args.seed, templates);
  if (!expected.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", expected.status().ToString().c_str());
    return 2;
  }

  // Set-up is timed in kSetupRounds rounds spread over the run: one before
  // warm-up, whose last deployment serves the run, and one in each pause
  // between segments of the untraced phase. setup_s thus samples the host
  // over the whole run, as the other metrics do, not only its first second.
  constexpr size_t kSetupRounds = 6;
  constexpr double kSetupRoundSeconds = 0.5;
  SpanLog log;
  std::vector<double> setup_s;
  size_t setups_built = 0;
  // Builds deployments for at least kSetupRoundSeconds, timing each, and
  // returns the last one.
  auto time_setups = [&]() -> piye::Result<std::unique_ptr<Deployment>> {
    std::unique_ptr<Deployment> last;
    double spent = 0.0;
    while (last == nullptr || spent < kSetupRoundSeconds) {
      Discard(std::move(last));
      const auto start = Clock::now();
      PIYE_ASSIGN_OR_RETURN(
          last, BuildDeployment(*spec, args.seed, args.workdir,
                                "setup" + std::to_string(setups_built++), &log));
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
      spent += setup_s.back();
    }
    return last;
  };
  auto built = time_setups();
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Deployment> live = std::move(*built);
  MediationEngine* engine = live->engine.get();

  LoadGenerator load(*spec, templates, *expected);
  std::vector<QueryStream> streams;
  for (size_t c = 0; c < spec->clients; ++c) {
    streams.emplace_back(*spec, templates.size(), args.seed, c);
  }
  // Warm-up. Durable state grows until the resident history ring is full;
  // keep warming up until then so the timed phase sees a steady state.
  constexpr double kWarmupSeconds = 1.0, kMaxWarmupSeconds = 20.0;
  const size_t steady_history =
      spec->durable ? EngineOptions(*spec).max_resident_history : 0;
  PhaseResult warmup = load.Run(engine, &streams, kWarmupSeconds, &log);
  while (engine->history()->size() < steady_history &&
         warmup.elapsed_s < kMaxWarmupSeconds) {
    warmup.Append(load.Run(engine, &streams, 0.5, &log));
  }

  // --trace 0: the untraced phase in kSetupRounds segments, with the
  // remaining set-up rounds in the pauses between them. --trace 1: an
  // untraced half, then a traced half; the throughput difference is the
  // tracing overhead.
  const auto trace_origin = Clock::now();
  PhaseResult untraced;
  PhaseResult traced;
  std::vector<Span> spans;
  if (!args.trace) {
    for (size_t round = 1; round <= kSetupRounds; ++round) {
      untraced.Append(
          load.Run(engine, &streams, args.seconds / kSetupRounds, &log));
      if (round == kSetupRounds) break;
      auto extra = time_setups();
      if (!extra.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     extra.status().ToString().c_str());
        return 2;
      }
      Discard(std::move(*extra));
    }
  } else {
    untraced = load.Run(engine, &streams, args.seconds / 2, &log);
    log.Enable(true);
    traced = load.Run(engine, &streams, args.seconds / 2, &log);
    log.Enable(false);
    spans = log.Take();
  }
  // Engine state is read once, after the timed phases.
  const MediationEngine::HealthReport health = engine->Health();
  const uint64_t queries_total = engine->metrics()->counter("engine.queries");
  const uint64_t coalesced_total =
      engine->metrics()->counter("engine.singleflight_coalesced");
  const size_t releases_total = engine->history()->size();
  const uint64_t persist_bytes =
      spec->durable ? DirectoryBytes(live->persist_dir) : 0;

  size_t attempted = untraced.samples.size() + traced.samples.size();
  size_t failed = untraced.failed + traced.failed;
  size_t mismatches =
      warmup.mismatches + untraced.mismatches + traced.mismatches;

  std::printf("oracle: %zu template(s); warm-up %zu queries (%zu failed)\n",
              templates.size(), warmup.samples.size(), warmup.failed);
  std::vector<Metric> metrics;
  if (!args.trace) {
    const Blocks blocks = SplitBlocks(untraced.samples);
    const std::string n = "(n=" + std::to_string(untraced.samples.size()) +
                          ", median of " + std::to_string(blocks.size()) +
                          " blocks)";
    metrics = {
        {"query_p50_ms", MedianBlockPercentile(blocks, 50), "ms", true,
         n},
        {"query_p95_ms", MedianBlockPercentile(blocks, 95), "ms", true,
         n},
        {"throughput_qps", untraced.qps(), "1/s", true,
         "(" + std::to_string(spec->clients) + " closed-loop clients, " +
             std::to_string(untraced.elapsed_s).substr(0, 6) + " s)"},
        {"setup_s", Percentile(setup_s, 50), "s", true,
         "(median of " + std::to_string(setup_s.size()) + " in " +
             std::to_string(kSetupRounds) + " rounds)"},
        {"peak_rss_mb", PeakRssMb(), "MB", true, ""},
    };
    std::printf("end-to-end:\n");
    for (const auto& m : metrics) PrintMetric(m);
    // Printed, but not in the JSON line: p99 follows the host's wake-up
    // latency more than the program, and failed_share is 0 by construction.
    PrintMetric({"query_p99_ms", MedianBlockPercentile(blocks, 99), "ms", true,
                 n + " (not bounded)"});
    std::printf("  %-36s %14.4f %-6s (%zu failed of %zu attempted)\n",
                "failed_share", attempted ? double(failed) / attempted : 0.0,
                "share", failed, attempted);
  } else {
    auto replay = RunReplay(*spec, args, templates, *expected);
    if (!replay.ok()) {
      std::fprintf(stderr, "perfbench: replay failed: %s\n",
                   replay.status().ToString().c_str());
      return 2;
    }
    attempted += replay->queries;
    failed += replay->failed;
    mismatches += replay->mismatches;
    std::printf("exact: workload=%s seed=%llu replay_queries=%zu "
                "answer_digest=%016llx frames_per_query=%.6f "
                "wal_records_per_release=%.6f\n",
                spec->name, static_cast<unsigned long long>(args.seed),
                replay->queries,
                static_cast<unsigned long long>(replay->answer_digest),
                replay->frames_per_query, replay->wal_records_per_release);

    const auto& recs = traced.records;
    std::vector<double> overhead;
    size_t hits = 0;
    for (const auto& rec : recs) {
      if (rec.from_warehouse) ++hits;
      if (!rec.ok) continue;
      double stages = 0.0;
      for (double s : rec.stage_us) stages += std::max(s, 0.0);
      overhead.push_back(rec.wall_us - stages);
    }
    // Rows kept: answer rows over the rows their fragments returned, for
    // every traced Execute whose fragments could be attributed to it.
    std::map<uint64_t, uint64_t> fragment_rows;
    uint64_t fragments = 0, rows_out = 0;
    for (const auto& span : spans) {
      if (std::string(span.name) != "source.fragment") continue;
      ++fragments;
      rows_out += span.rows;
      if (span.parent != 0) fragment_rows[span.parent] += span.rows;
    }
    uint64_t kept = 0, returned = 0;
    for (const auto& rec : recs) {
      auto it = fragment_rows.find(rec.span_id);
      if (rec.ok && it != fragment_rows.end()) {
        kept += rec.rows;
        returned += it->second;
      }
    }
    const auto fanout = StageSamples(recs, kFanout);
    const auto integrate = StageSamples(recs, kIntegrate);
    const auto record = StageSamples(recs, kRecord);
    const auto source_fragment = SpanSamples(spans, "source.fragment");
    const auto client_fragment = SpanSamples(spans, "net.client_fragment");
    uint64_t reconnects = 0;
    for (const auto& source : health.sources) reconnects += source.transport.reconnects;
    const bool wh = spec->durable;  // the warehouse is on only with durability
    const bool net = spec->over_uds;
    const bool disk = spec->durable;
    const std::string n_q = "(n=" + std::to_string(recs.size()) + " queries)";
    const std::string n_f = "(n=" + std::to_string(fragments) + " fragments)";
    metrics = {
        {"engine.overhead_us.p50", Percentile(overhead, 50), "us", true, n_q},
        {"warehouse.lookup_us.p50", Percentile(StageSamples(recs, kLookup), 50),
         "us", wh, n_q},
        {"warehouse.hit_share", recs.empty() ? 0.0 : double(hits) / recs.size(),
         "share", wh, ""},
        {"singleflight.coalesced_share",
         queries_total ? double(coalesced_total) / queries_total : 0.0, "share",
         true, "(engine lifetime)"},
        {"fragmenter.fragment_us.p50",
         Percentile(StageSamples(recs, kFragment), 50), "us", true, ""},
        {"privacy_control.check_us.p50",
         Percentile(StageSamples(recs, kPrivacy), 50), "us", true, ""},
        {"source.fanout_us.p50", Percentile(fanout, 50), "us", true, ""},
        {"source.fanout_us.p99", Percentile(fanout, 99), "us", true, ""},
        {"source.fragment_us.p50", Percentile(source_fragment, 50), "us", true,
         n_f},
        {"source.fragment_us.p99", Percentile(source_fragment, 99), "us", true,
         n_f},
        {"source.rows_out_per_fragment",
         fragments ? double(rows_out) / fragments : 0.0, "rows", true, ""},
        {"net.client_fragment_us.p50", Percentile(client_fragment, 50), "us",
         net, ""},
        {"net.wire_us.p50",
         Percentile(client_fragment, 50) - Percentile(source_fragment, 50), "us",
         net, "(client span p50 - server span p50)"},
        {"net.frames_per_query", replay->frames_per_query, "count", net,
         "(exact, serial replay)"},
        {"net.reconnects", double(reconnects), "count", net, ""},
        {"result_integrator.integrate_us.p50", Percentile(integrate, 50), "us",
         true, ""},
        {"result_integrator.integrate_us.p99", Percentile(integrate, 99), "us",
         true, ""},
        {"result_integrator.rows_kept_share",
         returned ? double(kept) / returned : 0.0, "share", true, ""},
        {"persist.record_us.p50", Percentile(record, 50), "us", disk, ""},
        {"persist.record_us.p99", Percentile(record, 99), "us", disk, ""},
        {"persist.wal_records_per_release", replay->wal_records_per_release,
         "count", disk, "(exact, serial replay)"},
        {"persist.disk_bytes_per_release",
         releases_total ? double(persist_bytes) / releases_total : 0.0, "bytes",
         disk, ""},
        {"persist.snapshots", double(health.snapshots_total), "count", disk, ""},
        {"persist.snapshot_ms", double(health.last_snapshot_duration_ms), "ms",
         disk, "(last rotation)"},
        {"trace.overhead_share", 1.0 - traced.qps() / untraced.qps(), "share",
         true,
         "(untraced " + std::to_string(untraced.qps()) + " qps, traced " +
             std::to_string(traced.qps()) + " qps)"},
    };
    std::printf("per-layer (traced half: %zu queries, %zu spans):\n",
                recs.size(), spans.size());
    for (const auto& m : metrics) PrintMetric(m);
    const std::string trace_path =
        (std::filesystem::path(args.workdir).parent_path() /
         ("trace-" + std::string(spec->name) + ".json"))
            .string();
    if (WriteChromeTrace(spans, trace_origin, trace_path)) {
      std::printf("spans written to %s\n", trace_path.c_str());
    }
  }
  live.reset();
  std::filesystem::remove_all(args.workdir, ec);

  // The workloads are built so that no query is ever refused: any non-OK
  // return, in warm-up or measurement, is a defect just as a wrong answer is.
  const size_t refused = failed + warmup.failed - mismatches;
  const bool correct = mismatches == 0 && refused == 0;
  if (mismatches != 0) {
    std::printf("ANSWER MISMATCH: %zu answer(s) differ from the oracle\n",
                mismatches);
  }
  if (refused != 0) {
    std::printf("QUERY FAILED: %zu quer(ies) returned an error\n", refused);
  }
  PrintJson(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
