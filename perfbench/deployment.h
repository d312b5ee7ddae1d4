// The benchmark's workloads and the federations they run against: three
// clinical sources (hospital, pharmacy, lab) behind one MediationEngine,
// reached in-process or over Unix sockets, volatile or durable.
#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "mediator/engine.h"
#include "net/client.h"
#include "net/net_source.h"
#include "net/server.h"
#include "source/remote_source.h"
#include "trace_log.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  size_t rows_per_source;
  bool over_uds;  ///< sources served by SourceServers, reached via NetSource
  bool durable;   ///< Recover into a fresh directory; warehouse on
  /// Fragments run one after another on the client's own thread
  /// (worker_threads = 0) instead of on the engine's fan-out pool.
  bool serial_fanout;
  size_t clients;
  /// Requester and template mix: a Zipf population of `population`
  /// requesters over every template, with AdvanceEpoch every
  /// `epoch_every` queries. Without a mix, client i always asks template 0
  /// as requester "analyst-<i>".
  bool mix;
  size_t population;
  size_t epoch_every;
  /// Queries in the serial replay that yields the exact counts.
  size_t replay_queries;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// One query shape: the PIQL query plus its dedup keys.
struct Template {
  std::string label;
  piye::source::PiqlQuery query;
  piye::mediator::QueryOptions options;
};
std::vector<Template> Templates(const WorkloadSpec& spec);

/// The per-client query sequence, a pure function of (seed, client).
class QueryStream {
 public:
  QueryStream(const WorkloadSpec& spec, size_t num_templates, uint64_t seed,
              size_t client);
  struct Pick {
    size_t tmpl = 0;
    std::string requester;
  };
  Pick Next();

 private:
  double Uniform();

  const WorkloadSpec* spec_;
  size_t num_templates_;
  size_t client_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;
};

constexpr size_t kNumSources = 3;

/// The three clinical sources with the patient policies, every requester
/// authorized through the RBAC wildcard user.
std::vector<std::unique_ptr<piye::source::RemoteSource>> MakeSources(
    size_t rows_per_source, uint64_t seed);

/// The engine configuration of `spec`'s deployment.
piye::mediator::MediationEngine::Options EngineOptions(const WorkloadSpec& spec);

/// A running federation. Members are declared in construction order; the
/// destructor drops the engine first, then closes clients before stopping
/// the servers they talk to.
struct Deployment {
  std::vector<std::unique_ptr<piye::source::RemoteSource>> sources;
  /// Timers around the in-process sources: registered with the engine, or
  /// served by the SourceServers on the wire path.
  std::vector<std::unique_ptr<TimingSource>> source_timers;
  std::vector<std::unique_ptr<piye::net::SourceServer>> servers;
  std::vector<std::shared_ptr<piye::net::NetClient>> clients;
  std::vector<std::unique_ptr<piye::net::NetSource>> net_sources;
  /// Timers around the mediator-side NetSources (wire path only).
  std::vector<std::unique_ptr<TimingSource>> wire_timers;
  std::unique_ptr<piye::mediator::MediationEngine> engine;
  std::string persist_dir;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();
};

/// Builds and starts a federation for `spec`: data generation, sources,
/// servers, schema generation, and Recover when durable. Sockets and the
/// persist directory are named `<workdir>/<tag>-*`.
piye::Result<std::unique_ptr<Deployment>> BuildDeployment(
    const WorkloadSpec& spec, uint64_t seed, const std::string& workdir,
    const std::string& tag, SpanLog* log);

/// SplitMix64 finalizer: a bijective 64-bit mix.
uint64_t Mix(uint64_t x);

/// Typed digest of a table: column names and types, then every cell as
/// (validity, type, raw value). Independent of the library's own cell
/// encodings.
uint64_t TableDigest(const piye::relational::Table& table);

/// Expected answer of each template, computed on a separate serial,
/// volatile, warehouse-less engine over freshly built sources.
piye::Result<std::vector<uint64_t>> ExpectedDigests(
    const WorkloadSpec& spec, uint64_t seed,
    const std::vector<Template>& templates);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
