#include "deployment.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/scenario.h"

namespace perfbench {

using piye::Result;
using piye::Status;
using piye::mediator::MediationEngine;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // name, rows, uds, durable, serial, clients, mix, population, epoch,
      // replay
      {"inproc-3200", 3200, false, false, true, 1, false, 0, 0, 16},
      {"uds-200", 200, true, false, false, 2, false, 0, 0, 64},
      {"durable-mix", 50, false, true, true, 2, true, 256, 128, 512},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

Template MakeTemplate(const std::vector<std::string>& select, bool dedup) {
  std::string xml =
      "<query requester=\"analyst\" purpose=\"research\" maxLoss=\"0.95\">";
  std::string label;
  for (const auto& column : select) {
    xml += "<select>" + column + "</select>";
    label += (label.empty() ? "" : ",") + column;
  }
  xml += "</query>";
  Template t;
  t.label = label + (dedup ? " dedup(patient_id)" : "");
  // The query text is a fixed literal above; parsing cannot fail.
  t.query = *piye::source::PiqlQuery::Parse(xml);
  if (dedup) t.options.dedup_keys = {"patient_id"};
  return t;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<Template> Templates(const WorkloadSpec& spec) {
  // Template 0 is the Figure 2 query of bench_fig2_pipeline.
  std::vector<Template> templates = {
      MakeTemplate({"patient_id", "dob"}, true)};
  if (!spec.mix) return templates;
  templates.push_back(MakeTemplate({"patient_id", "sex"}, false));
  templates.push_back(MakeTemplate({"patient_id", "zip"}, true));
  templates.push_back(MakeTemplate({"patient_id", "diagnosis"}, false));
  templates.push_back(MakeTemplate({"patient_id", "drug"}, true));
  templates.push_back(MakeTemplate({"patient_id", "test", "result"}, false));
  templates.push_back(MakeTemplate({"dob", "zip", "sex"}, false));
  templates.push_back(MakeTemplate({"patient_id", "dob", "sex", "zip"}, true));
  return templates;
}

QueryStream::QueryStream(const WorkloadSpec& spec, size_t num_templates,
                         uint64_t seed, size_t client)
    : spec_(&spec),
      num_templates_(num_templates),
      client_(client),
      rng_(Mix(seed * 0x100000001B3ULL + client + 1)) {
  if (!spec.mix) return;
  // Zipf(s = 1) over the requester population: rank k has weight 1/(k+1).
  double total = 0.0;
  for (size_t k = 0; k < spec.population; ++k) total += 1.0 / (k + 1.0);
  double acc = 0.0;
  for (size_t k = 0; k < spec.population; ++k) {
    acc += 1.0 / (k + 1.0) / total;
    zipf_cdf_.push_back(acc);
  }
  zipf_cdf_.back() = 1.0;
}

double QueryStream::Uniform() {
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

QueryStream::Pick QueryStream::Next() {
  Pick pick;
  if (!spec_->mix) {
    pick.requester = "analyst-" + std::to_string(client_);
    return pick;
  }
  const double u = Uniform();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  pick.requester = "u" + std::to_string(rank);
  pick.tmpl = static_cast<size_t>(Uniform() * num_templates_);
  return pick;
}

std::vector<std::unique_ptr<piye::source::RemoteSource>> MakeSources(
    size_t rows_per_source, uint64_t seed) {
  auto tables =
      piye::core::ClinicalScenario::MakePatientTables(rows_per_source, 0.4, seed);
  piye::relational::Table data[] = {std::move(tables.hospital),
                                    std::move(tables.pharmacy),
                                    std::move(tables.lab)};
  const char* owners[kNumSources] = {"hospital", "pharmacy", "lab"};
  const char* table_names[kNumSources] = {"patients", "rx", "tests"};
  std::vector<std::unique_ptr<piye::source::RemoteSource>> sources;
  for (size_t i = 0; i < kNumSources; ++i) {
    auto src = std::make_unique<piye::source::RemoteSource>(
        owners[i], table_names[i], std::move(data[i]), /*seed=*/i + 1);
    piye::core::ClinicalScenario::ApplyPatientPolicies(src.get());
    // Every requester of the generated population acts as an analyst. The
    // role exists (ApplyPatientPolicies adds it), so this cannot fail.
    (void)src->mutable_rbac()->AssignRole("*", "analyst");
    sources.push_back(std::move(src));
  }
  return sources;
}

Deployment::~Deployment() {
  engine.reset();
  for (auto& client : clients) client->Close();
  for (auto& server : servers) server->Stop();
}

MediationEngine::Options EngineOptions(const WorkloadSpec& spec) {
  MediationEngine::Options options;
  options.max_combined_loss = 0.95;
  // No budget refusals: every answer has one expected value in any order.
  options.max_cumulative_loss = 1e12;
  options.enable_warehouse = spec.durable;
  options.sync_wal = true;
  // Every hand-off between threads costs a wake-up, which on a shared host
  // can take milliseconds; serial fan-out keeps an in-process query on one
  // thread. The wire path keeps the default pool (one thread per core) so
  // the three round trips overlap.
  if (spec.serial_fanout) options.worker_threads = 0;
  // At most one snapshot rotation per second, about 30 per run. Unlimited,
  // the count trigger rotated several times a second, and each rotation
  // writes and fsyncs a whole snapshot, so the run measured the host's disk.
  if (spec.durable) options.snapshot_min_interval_ms = 1000;
  return options;
}

Result<std::unique_ptr<Deployment>> BuildDeployment(
    const WorkloadSpec& spec, uint64_t seed, const std::string& workdir,
    const std::string& tag, SpanLog* log) {
  auto d = std::make_unique<Deployment>();
  d->sources = MakeSources(spec.rows_per_source, seed);
  std::vector<piye::source::FederatedSource*> registered;
  for (size_t i = 0; i < d->sources.size(); ++i) {
    d->source_timers.push_back(std::make_unique<TimingSource>(
        d->sources[i].get(), log, "source.fragment"));
    if (!spec.over_uds) {
      registered.push_back(d->source_timers.back().get());
      continue;
    }
    piye::net::ServerConfig server_config;
    server_config.listen_address =
        "unix:" + workdir + "/" + tag + "-" + std::to_string(i) + ".sock";
    auto server = std::make_unique<piye::net::SourceServer>(server_config);
    server->AddSource(d->source_timers.back().get());
    PIYE_RETURN_NOT_OK(server->Start());
    piye::net::ClientConfig client_config;
    client_config.address = server->bound_address();
    auto client = std::make_shared<piye::net::NetClient>(client_config);
    d->servers.push_back(std::move(server));
    d->net_sources.push_back(
        std::make_unique<piye::net::NetSource>(d->sources[i]->owner(), client));
    d->clients.push_back(std::move(client));
    d->wire_timers.push_back(std::make_unique<TimingSource>(
        d->net_sources.back().get(), log, "net.client_fragment"));
    registered.push_back(d->wire_timers.back().get());
  }
  d->engine = std::make_unique<MediationEngine>(EngineOptions(spec));
  for (auto* src : registered) PIYE_RETURN_NOT_OK(d->engine->RegisterSource(src));
  PIYE_RETURN_NOT_OK(d->engine->GenerateMediatedSchema("shared-key"));
  if (spec.durable) {
    d->persist_dir = workdir + "/" + tag + "-persist";
    PIYE_RETURN_NOT_OK(d->engine->Recover(d->persist_dir));
  }
  return d;
}

namespace {

/// 64-bit streaming hash; each word is mixed before it is folded in, so
/// order and position matter.
class Hasher {
 public:
  void Word(uint64_t w) { state_ = Mix(state_ ^ Mix(w + ++count_)); }
  void Bytes(std::string_view s) {
    Word(s.size());
    size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      Word(w);
    }
    uint64_t tail = 0;
    if (i < s.size()) std::memcpy(&tail, s.data() + i, s.size() - i);
    Word(tail);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0x243F6A8885A308D3ULL;
  uint64_t count_ = 0;
};

}  // namespace

uint64_t TableDigest(const piye::relational::Table& table) {
  using piye::relational::ColumnType;
  Hasher h;
  h.Word(table.num_rows());
  h.Word(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto& meta = table.schema().column(c);
    h.Bytes(meta.name);
    h.Word(static_cast<uint64_t>(meta.type));
    const auto& col = table.col(c);
    h.Word(static_cast<uint64_t>(col.type()));
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (col.IsNull(r)) {
        h.Word(0);
        continue;
      }
      switch (col.type()) {
        case ColumnType::kInt64:
          h.Word(1);
          h.Word(static_cast<uint64_t>(col.IntAt(r)));
          break;
        case ColumnType::kDouble: {
          const double v = col.RealAt(r);
          uint64_t bits;
          std::memcpy(&bits, &v, sizeof(bits));
          h.Word(2);
          h.Word(bits);
          break;
        }
        case ColumnType::kString:
          h.Word(3);
          h.Bytes(col.StrAt(r));
          break;
        case ColumnType::kBool:
          h.Word(4);
          h.Word(col.BoolAt(r) ? 1 : 0);
          break;
      }
    }
  }
  return h.value();
}

Result<std::vector<uint64_t>> ExpectedDigests(
    const WorkloadSpec& spec, uint64_t seed,
    const std::vector<Template>& templates) {
  auto sources = MakeSources(spec.rows_per_source, seed);
  MediationEngine::Options options = EngineOptions(spec);
  options.enable_warehouse = false;
  options.worker_threads = 0;  // serial, in-line fan-out
  MediationEngine oracle(options);
  for (auto& src : sources) PIYE_RETURN_NOT_OK(oracle.RegisterSource(src.get()));
  PIYE_RETURN_NOT_OK(oracle.GenerateMediatedSchema("shared-key"));
  std::vector<uint64_t> digests;
  for (const auto& t : templates) {
    piye::mediator::QueryOptions options_for_oracle = t.options;
    options_for_oracle.requester = "oracle";
    auto result = oracle.Execute(t.query, options_for_oracle);
    if (!result.ok()) {
      return Status::Internal("oracle could not answer '" + t.label +
                              "': " + result.status().ToString());
    }
    if (result->sources_answered.size() != sources.size()) {
      return Status::Internal("oracle answer to '" + t.label +
                              "' is missing a source");
    }
    digests.push_back(TableDigest(result->table()));
  }
  return digests;
}

}  // namespace perfbench
