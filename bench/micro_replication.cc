// micro_replication: journal-streaming replication baselines.
//
// Drives a real leader mlaked + one read replica on loopback and
// records the three replication numbers the design cares about:
//
//   catchup    a fresh replica pulls the leader's whole op log (entries
//              + digest-verified blobs over HTTP) through one timed
//              SyncOnce — entries/s and models/s of catch-up
//              throughput.
//   replica_read  saturated keyword-search QPS against the caught-up
//              replica server, closed-loop clients. Replica reads are
//              the whole point of read replicas; this is their ceiling
//              on this host.
//   failover   routed reads prefer the replica, so two loss modes are
//              timed from kill to the first successful routed read:
//                read_backend_loss  the preferred read backend (the
//                                   replica) dies with no heartbeat
//                                   tick in between — the scatter leg's
//                                   in-request failover walks to the
//                                   leader. This is the real failover
//                                   cost.
//                leader_loss        the leader dies. Reads were already
//                                   on the replica, so this should cost
//                                   roughly one normal round trip —
//                                   tracked to prove the insulation.
//   catchup_seed / catchup_log  an empty replica caught up from a
//              leader of 5,120 metadata-only models (512-card ingest
//              batches, default lake options): one leader
//              compacted (the replica installs the replication seed
//              with the leader's index generation), one never
//              compacted (the replica replays the JSON op log). Timed
//              like the perfbench set-up: SyncOnce plus the replica's
//              own CompactIndices.
//   fingerprint_us  one ModelLake::ReplicationFingerprint() call (the
//              replica's periodic divergence check, run on leader and
//              replica alike) on a lake of 5,000 metadata-only models,
//              and on the same lake at 1,000 models to show the cost
//              does not grow with the lake.
//
// Emits BENCH_replication.json (shared JsonBench schema).
//
// Usage: micro_replication [--quick] [--out PATH]
//   --quick  CI-sized run (fewer models, shorter measurement windows)
//   --out    JSON path (default: BENCH_replication.json in the cwd)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/exp_util.h"
#include "cluster/router.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "nn/trainer.h"
#include "replication/replicator.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/server.h"

namespace mlake::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kDim = 16;
constexpr int64_t kClasses = 4;
constexpr int kClients = 16;

core::LakeOptions LakeOpts(const std::string& root) {
  core::LakeOptions options;
  options.root = root;
  options.input_dim = kDim;
  options.num_classes = kClasses;
  options.probe_count = 8;
  options.background_compaction = false;
  options.replication_log = true;
  return options;
}

/// Populates the leader with `count` models (rotating families and
/// domains so keyword queries have varied hits), a finetune edge every
/// fourth model, and one dataset registration — every replicated op
/// kind shows up in the log.
void PopulateLeader(core::ModelLake* leader, size_t count) {
  const char* families[] = {"sum", "mean"};
  const char* domains[] = {"legal", "news", "social", "finance"};
  std::string previous;
  for (uint64_t i = 0; i < count; ++i) {
    Rng rng(2000 + i);
    auto model = Unwrap(nn::BuildModel(nn::MlpSpec(kDim, {8}, kClasses), &rng),
                        "BuildModel");
    metadata::ModelCard card;
    card.model_id = StrFormat("%s-%s-%04llu", domains[i % 4], families[i % 2],
                              static_cast<unsigned long long>(i));
    card.name = card.model_id;
    card.task = families[i % 2];
    card.training_datasets = {std::string(domains[i % 4]) + "/synthetic"};
    card.creator = "micro-replication";
    Unwrap(leader->IngestModel(*model, card), "IngestModel");
    if (i % 4 == 3 && !previous.empty()) {
      versioning::VersionEdge edge;
      edge.parent = previous;
      edge.child = card.model_id;
      edge.type = versioning::EdgeType::kFinetune;
      Check(leader->RecordEdge(edge), "RecordEdge");
    }
    previous = card.model_id;
  }
  Check(leader->RegisterDataset("bench/corpus", {"s1", "s2"}),
        "RegisterDataset");
}

#ifndef MLAKE_BUILD_TYPE
#define MLAKE_BUILD_TYPE "unknown"
#endif

constexpr size_t kFingerprintModels = 5000;
constexpr size_t kFingerprintSmallModels = 1000;

/// Adds metadata-only models [from, to) to `lake` (cards shaped like the
/// perfbench population's, random unit embeddings), in batches of 512.
void IngestMetadataModels(core::ModelLake* lake, size_t from, size_t to) {
  const char* tasks[] = {"summarization", "classification", "retrieval",
                         "translation"};
  const char* domains[] = {"legal", "news", "social", "finance", "medical"};
  Rng rng(9000 + from);
  std::vector<core::CardIngest> batch;
  for (size_t i = from; i < to; ++i) {
    core::CardIngest ingest;
    metadata::ModelCard& card = ingest.card;
    card.model_id = StrFormat("fp-%06zu", i);
    card.name = card.model_id;
    card.task = tasks[i % 4];
    card.tags = {domains[i % 5]};
    card.architecture = "mlp";
    card.description = StrFormat("Synthetic %s model for %s text.",
                                 card.task.c_str(), domains[i % 5]);
    card.training_datasets = {card.task + "/" + domains[i % 5]};
    card.creator = "micro-replication";
    card.license = "apache-2.0";
    double norm = 0.0;
    for (int64_t d = 0; d < lake->EmbeddingDim(); ++d) {
      float x = static_cast<float>(rng.Normal());
      ingest.embedding.push_back(x);
      norm += double(x) * x;
    }
    for (float& x : ingest.embedding) {
      x = static_cast<float>(x / std::sqrt(norm > 0 ? norm : 1.0));
    }
    batch.push_back(std::move(ingest));
    if (batch.size() == 512 || i + 1 == to) {
      Unwrap(lake->IngestCards(batch), "IngestCards");
      batch.clear();
    }
  }
}

/// Median per-call wall time of ReplicationFingerprint(), in
/// microseconds, over up to 200 samples (at least 3, stopping after
/// ~2 s). A sample averages enough back-to-back calls to span ~1 ms, so
/// clock overhead does not swamp a microsecond call.
Json FingerprintEntryJson(const std::string& name,
                          const core::ModelLake& lake, size_t models) {
  auto probe = Clock::now();
  std::string fingerprint = lake.ReplicationFingerprint();
  const double probe_us =
      std::chrono::duration<double, std::micro>(Clock::now() - probe).count();
  const int calls_per_sample =
      static_cast<int>(std::clamp(1000.0 / std::max(probe_us, 0.001), 1.0,
                                  1000.0));
  std::vector<double> us;
  auto start = Clock::now();
  while (us.size() < 200 &&
         (us.size() < 3 || Clock::now() - start < std::chrono::seconds(2))) {
    auto t0 = Clock::now();
    for (int c = 0; c < calls_per_sample; ++c) {
      fingerprint = lake.ReplicationFingerprint();
    }
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
        calls_per_sample);
  }
  std::sort(us.begin(), us.end());
  double median = us[us.size() / 2];
  Json entry = Json::MakeObject();
  entry.Set("name", name);
  entry.Set("models", models);
  entry.Set("samples", us.size());
  entry.Set("calls_per_sample", calls_per_sample);
  entry.Set("median_us", median);
  entry.Set("min_us", us.front());
  entry.Set("max_us", us.back());
  entry.Set("ns_per_op", median * 1000.0);
  std::printf("  %-28s %10.2f us median of %zu samples x %d calls  (%zu "
              "models, min %.2f, max %.2f)\n",
              name.c_str(), median, us.size(), calls_per_sample, models,
              us.front(), us.back());
  return entry;
}

const std::vector<std::string>& KeywordBodies() {
  static const std::vector<std::string> bodies = {
      R"({"type": "keyword", "query": "legal synthetic", "k": 10})",
      R"({"type": "keyword", "query": "news sum", "k": 10})",
      R"({"type": "keyword", "query": "social mean", "k": 10})",
      R"({"type": "keyword", "query": "finance synthetic", "k": 10})",
  };
  return bodies;
}

struct LoadResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  double seconds = 0.0;
  server::LatencyHistogram latency;

  double Qps() const { return seconds > 0 ? double(requests) / seconds : 0; }
};

/// Closed-loop load: `clients` threads POST the rotating bodies back to
/// back for `window`. Latency is per round trip, recorded client-side.
LoadResult RunLoad(int port, int clients, Clock::duration window,
                   const std::vector<std::string>& bodies) {
  std::vector<LoadResult> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  std::atomic<bool> go{false};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::HttpClient client("127.0.0.1", port);
      LoadResult& mine = per_client[static_cast<size_t>(c)];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t body_index = static_cast<size_t>(c);
      auto start = Clock::now();
      auto deadline = start + window;
      while (Clock::now() < deadline) {
        auto sent = Clock::now();
        auto response =
            client.Post("/v1/search", bodies[body_index++ % bodies.size()]);
        auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - sent)
                      .count();
        ++mine.requests;
        if (!response.ok() || response.ValueUnsafe().status != 200) {
          ++mine.errors;
        } else {
          mine.latency.Record(static_cast<uint64_t>(us < 0 ? 0 : us));
        }
      }
      mine.seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  LoadResult merged;
  for (const LoadResult& r : per_client) {
    merged.requests += r.requests;
    merged.errors += r.errors;
    merged.seconds = std::max(merged.seconds, r.seconds);
    merged.latency.Merge(r.latency);
  }
  return merged;
}

Json LoadEntryJson(const std::string& name, const LoadResult& r) {
  Json entry = Json::MakeObject();
  entry.Set("name", name);
  entry.Set("clients", kClients);
  entry.Set("qps", r.Qps());
  entry.Set("p50_us", r.latency.PercentileUs(50));
  entry.Set("p99_us", r.latency.PercentileUs(99));
  entry.Set("mean_us", r.latency.MeanUs());
  entry.Set("requests", r.requests);
  entry.Set("errors", r.errors);
  entry.Set("seconds", r.seconds);
  entry.Set("ns_per_op", r.latency.MeanUs() * 1000.0);
  std::printf("  %-28s %9.0f qps  p50 %7.0f us  p99 %7.0f us  (%llu reqs, "
              "%llu errors)\n",
              name.c_str(), r.Qps(), r.latency.PercentileUs(50),
              r.latency.PercentileUs(99),
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.errors));
  return entry;
}

struct FailoverResult {
  double first_read_us = 0.0;
  int64_t attempts = 0;
  bool succeeded = false;
};

/// Time from "the backend just died" to the first successful routed
/// read, including every failed attempt in between. The router gets no
/// heartbeat tick — this measures in-request failover, not detection.
FailoverResult TimeFirstSuccessfulRead(int router_port,
                                       const std::string& body) {
  FailoverResult result;
  server::HttpClient client("127.0.0.1", router_port);
  auto start = Clock::now();
  auto give_up = start + std::chrono::seconds(20);
  while (Clock::now() < give_up) {
    ++result.attempts;
    auto response = client.Post("/v1/search", body);
    if (response.ok() && response.ValueUnsafe().status == 200) {
      result.succeeded = true;
      break;
    }
  }
  result.first_read_us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  return result;
}

Json FailoverEntryJson(const std::string& name, const FailoverResult& r) {
  Json entry = Json::MakeObject();
  entry.Set("name", name);
  entry.Set("first_read_us", r.first_read_us);
  entry.Set("attempts", r.attempts);
  entry.Set("succeeded", r.succeeded);
  entry.Set("ns_per_op", r.first_read_us * 1000.0);
  std::printf("  %-28s first read after %8.0f us  (%lld attempt%s)\n",
              name.c_str(), r.first_read_us,
              static_cast<long long>(r.attempts), r.attempts == 1 ? "" : "s");
  return entry;
}

cluster::RouterOptions RouterOpts(int leader_port, int replica_port) {
  cluster::RouterOptions options;
  options.cluster_size = 1;
  options.backends = {
      {"127.0.0.1", leader_port, 0},
      {"127.0.0.1", replica_port, 0},
  };
  options.heartbeat_misses_down = 1;
  // One synchronous heartbeat at Start seeds the role-aware map; no
  // background ticks after that, so the failover measurements see the
  // pre-loss map (in-request failover only).
  options.heartbeat_interval_ms = 600000;
  options.enable_hedging = false;
  options.threads = kClients + 4;
  return options;
}

constexpr size_t kCatchupModels = 5120;

/// Catches an empty replica up from `leader` (served on loopback) the
/// way perfbench's set-up does: SyncOnce, then CompactIndices until a
/// pass completes. Returns the entry; `*converged` is false when the
/// replica's fingerprint or watermark disagrees with the leader's.
Json CatchupEntry(const std::string& name, core::ModelLake* leader,
                  const std::string& replica_root, bool* converged) {
  server::ServerOptions server_options;
  server_options.threads = 4;
  server::LakeServer server(leader, server_options);
  Check(server.Start(), "catchup leader Start");
  core::LakeOptions replica_options;
  replica_options.root = replica_root;
  replica_options.replication_log = true;
  auto replica = Unwrap(core::ModelLake::Open(replica_options),
                        "catchup replica lake");
  replication::ReplicaOptions options;
  options.leader_port = server.port();
  auto replicator =
      Unwrap(replication::Replicator::Open(replica.get(), options),
             "Replicator::Open");
  auto start = Clock::now();
  size_t applied = Unwrap(replicator->SyncOnce(), "SyncOnce");
  const double sync_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  Status compacted;
  for (int attempt = 0; attempt < 50; ++attempt) {
    compacted = replica->CompactIndices();
    if (!compacted.IsUnavailable()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Check(compacted, "replica CompactIndices");
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  *converged = replicator->AppliedSeq() == leader->ReplicationLastSeq() &&
               replica->ReplicationFingerprint() ==
                   leader->ReplicationFingerprint();
  Json passes = *replica->IndexStatsJson().Find("compactions");
  Json entry = Json::MakeObject();
  entry.Set("name", name);
  entry.Set("models", kCatchupModels);
  entry.Set("seconds", seconds);
  entry.Set("sync_once_s", sync_s);
  entry.Set("entries_applied", applied);
  entry.Set("seed_installs", replicator->seed_installs());
  entry.Set("leader_generation", leader->IndexGeneration());
  entry.Set("replica_generation", replica->IndexGeneration());
  entry.Set("replica_compactions", std::move(passes));
  entry.Set("converged", *converged);
  entry.Set("ns_per_op", seconds * 1e9 / double(kCatchupModels));
  std::printf("  %-14s %.3f s (SyncOnce %.3f s), %zu log entries, "
              "%llu seed install(s), converged %s\n",
              name.c_str(), seconds, sync_s, applied,
              static_cast<unsigned long long>(replicator->seed_installs()),
              *converged ? "yes" : "NO");
  Check(replicator->Stop(), "replicator Stop");
  Check(server.Stop(), "catchup leader Stop");
  return entry;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_replication.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: micro_replication [--quick] [--out PATH]\n");
      return 2;
    }
  }

  Banner("micro_replication", "journal-streaming replication baselines");

  const size_t num_models = quick ? 24 : 96;
  const auto window =
      quick ? std::chrono::milliseconds(800) : std::chrono::milliseconds(2500);

  std::printf("populating leader with %zu models...\n", num_models);
  TempDir root("mlake-micro-replication");
  auto leader_lake = Unwrap(
      core::ModelLake::Open(LakeOpts(JoinPath(root.path(), "leader"))),
      "leader lake");
  PopulateLeader(leader_lake.get(), num_models);
  const uint64_t leader_last_seq = leader_lake->ReplicationLastSeq();

  server::ServerOptions leader_server_options;
  leader_server_options.threads = kClients + 4;
  server::LakeServer leader_server(leader_lake.get(), leader_server_options);
  Check(leader_server.Start(), "leader server Start");

  Json entries = Json::MakeArray();

  // -- catchup: one timed SyncOnce over the whole log -------------------
  std::printf("\ncatchup: fresh replica pulls the full log over HTTP:\n");
  auto replica_lake = Unwrap(
      core::ModelLake::Open(LakeOpts(JoinPath(root.path(), "replica"))),
      "replica lake");
  replication::ReplicaOptions replica_options;
  replica_options.leader_port = leader_server.port();
  auto replicator = Unwrap(
      replication::Replicator::Open(replica_lake.get(), replica_options),
      "Replicator::Open");

  auto catchup_start = Clock::now();
  size_t applied = Unwrap(replicator->SyncOnce(), "SyncOnce");
  double catchup_seconds =
      std::chrono::duration<double>(Clock::now() - catchup_start).count();
  bool converged =
      replicator->AppliedSeq() == leader_last_seq &&
      replica_lake->ReplicationFingerprint() ==
          leader_lake->ReplicationFingerprint();
  double catchup_entries_per_s =
      catchup_seconds > 0 ? double(applied) / catchup_seconds : 0.0;
  double catchup_models_per_s =
      catchup_seconds > 0 ? double(num_models) / catchup_seconds : 0.0;
  {
    Json entry = Json::MakeObject();
    entry.Set("name", "catchup_sync_once");
    entry.Set("entries_applied", applied);
    entry.Set("models", num_models);
    entry.Set("seconds", catchup_seconds);
    entry.Set("entries_per_s", catchup_entries_per_s);
    entry.Set("models_per_s", catchup_models_per_s);
    entry.Set("converged", converged);
    entry.Set("ns_per_op",
              applied > 0 ? catchup_seconds * 1e9 / double(applied) : 0.0);
    entries.Append(std::move(entry));
  }
  std::printf("  %zu entries in %.3f s  (%.0f entries/s, %.0f models/s), "
              "fingerprints %s\n",
              applied, catchup_seconds, catchup_entries_per_s,
              catchup_models_per_s, converged ? "match" : "MISMATCH");

  // -- replica_read: saturated search QPS on the replica ----------------
  std::printf("\nreplica_read: %d closed-loop clients on the replica:\n",
              kClients);
  server::ServerOptions replica_server_options;
  replica_server_options.threads = kClients + 4;
  replica_server_options.replication = replicator.get();
  auto replica_server = std::make_unique<server::LakeServer>(
      replica_lake.get(), replica_server_options);
  Check(replica_server->Start(), "replica server Start");

  LoadResult replica_read =
      RunLoad(replica_server->port(), kClients, window, KeywordBodies());
  entries.Append(LoadEntryJson("replica_read_keyword", replica_read));
  double replica_read_qps = replica_read.Qps();

  // -- failover: kill-to-first-successful-routed-read -------------------
  std::printf("\nfailover: routed reads, no heartbeat tick after the "
              "kill:\n");
  const std::string probe = KeywordBodies()[0];

  // Mode 1: the preferred read backend (the replica) dies; the scatter
  // leg's in-request failover walks to the leader.
  FailoverResult backend_loss;
  {
    cluster::Router router(
        RouterOpts(leader_server.port(), replica_server->port()));
    Check(router.Start(), "router Start");
    router.TickNow();
    server::HttpClient warm("127.0.0.1", router.port());
    auto warmed = warm.Post("/v1/search", probe);
    if (!warmed.ok() || warmed.ValueUnsafe().status != 200) {
      std::fprintf(stderr, "FATAL: routed warm-up read failed\n");
      return 1;
    }
    Check(replica_server->Stop(), "replica server Stop");
    backend_loss = TimeFirstSuccessfulRead(router.port(), probe);
    entries.Append(
        FailoverEntryJson("failover_read_backend_loss", backend_loss));
    Check(router.Stop(), "router Stop");
  }

  // Mode 2: the leader dies. The replica (restarted — same lake, same
  // replicator seam) was already serving the reads.
  FailoverResult leader_loss;
  {
    replica_server = std::make_unique<server::LakeServer>(
        replica_lake.get(), replica_server_options);
    Check(replica_server->Start(), "replica server restart");
    cluster::Router router(
        RouterOpts(leader_server.port(), replica_server->port()));
    Check(router.Start(), "router Start (leader loss)");
    router.TickNow();
    server::HttpClient warm("127.0.0.1", router.port());
    auto warmed = warm.Post("/v1/search", probe);
    if (!warmed.ok() || warmed.ValueUnsafe().status != 200) {
      std::fprintf(stderr, "FATAL: routed warm-up read failed\n");
      return 1;
    }
    Check(leader_server.Stop(), "leader server Stop");
    leader_loss = TimeFirstSuccessfulRead(router.port(), probe);
    entries.Append(FailoverEntryJson("failover_leader_loss", leader_loss));
    Check(router.Stop(), "router Stop (leader loss)");
  }

  Check(replica_server->Stop(), "replica server final Stop");

  // -- catchup_seed / catchup_log: empty replica vs 5k-model leaders ----
  std::printf("\ncatchup from a %zu-model leader, compacted (seed) vs not "
              "(log):\n", kCatchupModels);
  bool seed_converged = false;
  bool log_converged = false;
  for (bool compacted : {true, false}) {
    core::LakeOptions leader_options;
    leader_options.root = JoinPath(root.path(), compacted ? "seed-leader"
                                                          : "log-leader");
    leader_options.replication_log = true;
    // The log leader must not publish a generation in the background.
    leader_options.background_compaction = compacted;
    auto leader = Unwrap(core::ModelLake::Open(leader_options),
                         "catchup leader lake");
    for (size_t from = 0; from < kCatchupModels; from += 1024) {
      IngestMetadataModels(leader.get(), from, from + 1024);
    }
    if (compacted) {
      Status st;
      for (int attempt = 0; attempt < 50; ++attempt) {
        st = leader->CompactIndices();
        if (!st.IsUnavailable()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      Check(st, "leader CompactIndices");
    }
    entries.Append(CatchupEntry(
        compacted ? "catchup_seed" : "catchup_log", leader.get(),
        JoinPath(root.path(), compacted ? "seed-replica" : "log-replica"),
        compacted ? &seed_converged : &log_converged));
  }

  // -- fingerprint: one divergence-check fingerprint on a 5k-model lake --
  std::printf("\nfingerprint: ReplicationFingerprint() on a metadata-only "
              "lake:\n");
  // Default lake dimensions, as mlaked and the perfbench shards use.
  core::LakeOptions fingerprint_options;
  fingerprint_options.root = JoinPath(root.path(), "fingerprint");
  fingerprint_options.background_compaction = false;
  fingerprint_options.replication_log = true;
  auto fingerprint_lake = Unwrap(core::ModelLake::Open(fingerprint_options),
                                 "fingerprint lake");
  IngestMetadataModels(fingerprint_lake.get(), 0, kFingerprintSmallModels);
  Json small_entry = FingerprintEntryJson(
      "fingerprint_us_1k", *fingerprint_lake, kFingerprintSmallModels);
  const double fingerprint_small_us = small_entry.GetDouble("median_us");
  entries.Append(std::move(small_entry));
  IngestMetadataModels(fingerprint_lake.get(), kFingerprintSmallModels,
                       kFingerprintModels);
  Json large_entry = FingerprintEntryJson("fingerprint_us", *fingerprint_lake,
                                          kFingerprintModels);
  const double fingerprint_us = large_entry.GetDouble("median_us");
  entries.Append(std::move(large_entry));
  fingerprint_lake.reset();

  Json report = Json::MakeObject();
  report.Set("suite", "replication");

  Json meta = Json::MakeObject();
  meta.Set("cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
  meta.Set("build_type", MLAKE_BUILD_TYPE);
  meta.Set("clients", static_cast<int64_t>(kClients));
  meta.Set("models", num_models);
  meta.Set("log_entries", leader_last_seq);
  meta.Set("window_ms",
           static_cast<int64_t>(
               std::chrono::duration_cast<std::chrono::milliseconds>(window)
                   .count()));
  meta.Set("quick", quick);
  meta.Set("catchup_converged", converged);
  meta.Set("fingerprint_models", kFingerprintModels);
  meta.Set("catchup_models", kCatchupModels);
  meta.Set(
      "failover_note",
      "Routed reads prefer the replica, so failover_read_backend_loss "
      "(kill the replica, scatter leg fails over to the leader in-"
      "request, no heartbeat tick) is the real failover-to-first-"
      "successful-read latency; failover_leader_loss shows leader death "
      "does not interrupt reads already served by the replica.");
  report.Set("meta", std::move(meta));
  report.Set("entries", std::move(entries));

  Json derived = Json::MakeObject();
  derived.Set("catchup_entries_per_s", catchup_entries_per_s);
  derived.Set("catchup_models_per_s", catchup_models_per_s);
  derived.Set("replica_read_qps", replica_read_qps);
  derived.Set("failover_first_read_us", backend_loss.first_read_us);
  derived.Set("leader_loss_first_read_us", leader_loss.first_read_us);
  derived.Set("fingerprint_us", fingerprint_us);
  derived.Set("fingerprint_growth_1k_to_5k",
              fingerprint_small_us > 0 ? fingerprint_us / fingerprint_small_us
                                       : 0.0);
  report.Set("derived", std::move(derived));

  Check(mlake::WriteFile(out, report.Dump(2) + "\n"), "WriteFile");
  std::printf("\nwrote %s\n", out.c_str());
  std::printf("catchup: %.0f entries/s   replica reads: %.0f qps   "
              "failover first read: %.0f us\n",
              catchup_entries_per_s, replica_read_qps,
              backend_loss.first_read_us);
  if (!converged || !seed_converged || !log_converged ||
      !backend_loss.succeeded || !leader_loss.succeeded) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mlake::bench

int main(int argc, char** argv) { return mlake::bench::Main(argc, argv); }
