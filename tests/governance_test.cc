// Governance layer tests (DESIGN.md §15): the citation document, the
// streaming machine-readable export (schema, determinism, change-key
// behavior), the governance HTTP endpoints (citation/doc/audit/export
// with ETag conditional requests), and the replica staleness fence.

#include "governance/governance.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/string_util.h"
#include "core/model_lake.h"
#include "lakegen/lakegen.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"

namespace mlake::governance {
namespace {

/// One metadata-only lake (streaming generator: fast, no training)
/// shared across the core-level tests.
class GovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-governance");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  core::LakeOptions Options(const std::string& name) {
    core::LakeOptions options;
    options.root = JoinPath(dir_, name);
    options.probe_count = 4;
    options.background_compaction = false;
    return options;
  }

  std::unique_ptr<core::ModelLake> MakeLake(const std::string& name,
                                            size_t num_models) {
    auto lake = core::ModelLake::Open(Options(name)).MoveValueUnsafe();
    lakegen::StreamGenConfig config;
    config.num_models = num_models;
    config.batch_size = 64;
    config.num_families = 4;
    config.seed = 11;
    auto gen = lakegen::GenerateStreamingLake(lake.get(), config);
    MLAKE_CHECK(gen.ok());
    return lake;
  }

  static std::string Drain(core::ModelLake* lake) {
    auto iterator = lake->OpenExport();
    std::string out;
    std::string line;
    while (iterator->Next(&line)) out += line;
    return out;
  }

  std::string dir_;
};

TEST_F(GovernanceTest, CitationDocFieldsAndHeritage) {
  auto lake = MakeLake("cite", 60);
  std::vector<std::string> ids = lake->ListModels();
  // The streaming generator records no lineage; give the cited model a
  // two-hop heritage chain so the walk is non-trivial.
  versioning::VersionEdge first;
  first.parent = ids[0];
  first.child = ids[1];
  first.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(lake->RecordEdge(first).ok());
  versioning::VersionEdge second;
  second.parent = ids[1];
  second.child = ids[2];
  second.type = versioning::EdgeType::kDistill;
  ASSERT_TRUE(lake->RecordEdge(second).ok());
  std::string child = ids[2];

  auto doc = lake->CitationDoc(child);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Json& cite = doc.ValueUnsafe();
  EXPECT_EQ(cite.GetString("schema"), "mlake.citation");
  EXPECT_EQ(cite.GetInt64("schema_version"), kSchemaVersion);
  EXPECT_EQ(cite.GetString("model_id"), child);
  EXPECT_FALSE(cite.GetBool("degraded"));
  EXPECT_GT(cite.GetInt64("graph_revision"), 0);

  const Json* path = cite.Find("lineage_path");
  ASSERT_NE(path, nullptr);
  ASSERT_TRUE(path->is_array());
  ASSERT_GE(path->AsArray().size(), 2u);  // at least parent -> child
  EXPECT_EQ(path->AsArray().back().AsString(), child);

  const Json* heritage = cite.Find("heritage");
  ASSERT_NE(heritage, nullptr);
  ASSERT_TRUE(heritage->is_array());
  EXPECT_EQ(heritage->AsArray().size(), path->AsArray().size() - 1);
  for (const Json& hop : heritage->AsArray()) {
    EXPECT_FALSE(hop.GetString("parent").empty());
    EXPECT_FALSE(hop.GetString("child").empty());
  }

  // Both renderings are pinned to the graph revision.
  std::string revision =
      std::to_string(cite.GetInt64("graph_revision"));
  EXPECT_NE(cite.GetString("text").find(revision), std::string::npos);
  EXPECT_NE(cite.GetString("bibtex").find("@misc{" + child),
            std::string::npos);
  EXPECT_NE(cite.GetString("bibtex").find(revision), std::string::npos);
}

TEST_F(GovernanceTest, CitationDocMissingModel) {
  auto lake = MakeLake("cite-missing", 10);
  EXPECT_TRUE(lake->CitationDoc("no-such-model").status().IsNotFound());
}

TEST_F(GovernanceTest, ExportSchemaAndCounts) {
  auto lake = MakeLake("export", 60);
  auto iterator = lake->OpenExport();
  std::vector<Json> records;
  std::string line;
  while (iterator->Next(&line)) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    records.push_back(parsed.MoveValueUnsafe());
  }
  ASSERT_GE(records.size(), 3u);

  const Json& header = records.front();
  EXPECT_EQ(header.GetString("kind"), "header");
  EXPECT_EQ(header.GetString("schema"), "mlake.export");
  EXPECT_EQ(header.GetInt64("schema_version"), kSchemaVersion);
  const Json* counts = header.Find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->GetInt64("models"),
            static_cast<int64_t>(lake->NumModels()));

  const Json& footer = records.back();
  EXPECT_EQ(footer.GetString("kind"), "footer");
  EXPECT_EQ(footer.GetInt64("records"),
            static_cast<int64_t>(records.size()) - 2);
  EXPECT_EQ(iterator->records_emitted(), records.size());

  // Body records arrive grouped and ordered: models (by id), then
  // edges, then datasets.
  size_t models = 0, edges = 0, datasets = 0;
  std::string last_kind = "header", last_id;
  for (size_t i = 1; i + 1 < records.size(); ++i) {
    std::string kind = records[i].GetString("kind");
    if (kind == "model") {
      EXPECT_EQ(last_kind, i == 1 ? "header" : "model");
      std::string id = records[i].GetString("id");
      EXPECT_LT(last_id, id);  // strictly ascending
      last_id = id;
      EXPECT_NE(records[i].Find("model"), nullptr);
      EXPECT_NE(records[i].Find("card"), nullptr);
      ++models;
    } else if (kind == "edge") {
      EXPECT_NE(last_kind, "dataset");
      ++edges;
    } else {
      ASSERT_EQ(kind, "dataset");
      ++datasets;
    }
    last_kind = kind;
  }
  EXPECT_EQ(models, lake->NumModels());
  EXPECT_EQ(static_cast<int64_t>(edges), counts->GetInt64("edges"));
  EXPECT_EQ(static_cast<int64_t>(datasets), counts->GetInt64("datasets"));
}

TEST_F(GovernanceTest, ExportDeterministicAt10kAndBoundedRecords) {
  auto lake = MakeLake("export-10k", 10000);
  auto it = lake->OpenExport();
  std::string first;
  std::string line;
  size_t max_line = 0;
  while (it->Next(&line)) {
    max_line = std::max(max_line, line.size());
    first += line;
  }
  EXPECT_EQ(it->num_models(), 10000u);
  // O(1)-memory contract: the unit of buffering is one record, and no
  // record is remotely lake-sized.
  EXPECT_LT(max_line, size_t{64} << 10);
  // Byte-identical across runs on the same content.
  EXPECT_EQ(first, Drain(lake.get()));
  // And across a close/reopen (everything is rebuilt from disk).
  lake.reset();
  auto reopened = core::ModelLake::Open(Options("export-10k"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(first, Drain(reopened.ValueUnsafe().get()));
}

TEST_F(GovernanceTest, RecordEdgeMovesTheChangeKey) {
  auto lake = MakeLake("epoch", 20);
  uint64_t epoch_before = lake->MutationEpoch();
  std::string etag_before =
      ExportEtag(lake->MutationEpoch(), lake->IndexGeneration());

  std::vector<std::string> ids = lake->ListModels();
  versioning::VersionEdge edge;
  edge.parent = ids[0];
  edge.child = ids[1];
  edge.type = versioning::EdgeType::kFinetune;
  ASSERT_TRUE(lake->RecordEdge(edge).ok());

  EXPECT_GT(lake->MutationEpoch(), epoch_before);
  EXPECT_NE(ExportEtag(lake->MutationEpoch(), lake->IndexGeneration()),
            etag_before);
}

TEST_F(GovernanceTest, IteratorSnapshotCarriesTheChangeKey) {
  auto lake = MakeLake("snapshot", 20);
  auto iterator = lake->OpenExport();
  EXPECT_EQ(iterator->mutation_epoch(), lake->MutationEpoch());
  EXPECT_EQ(iterator->index_generation(), lake->IndexGeneration());
}

TEST_F(GovernanceTest, GeneratedDocEnvelope) {
  auto lake = MakeLake("doc", 30);
  std::string id = lake->ListModels().front();
  auto doc = GeneratedDoc(*lake, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.ValueUnsafe().GetString("schema"), "mlake.modeldoc");
  EXPECT_EQ(doc.ValueUnsafe().GetInt64("schema_version"), kSchemaVersion);
  EXPECT_EQ(doc.ValueUnsafe().GetString("model_id"), id);
  EXPECT_NE(doc.ValueUnsafe().Find("card"), nullptr);
  EXPECT_TRUE(GeneratedDoc(*lake, "missing").status().IsNotFound());
}

TEST_F(GovernanceTest, AuditDocEnvelope) {
  auto lake = MakeLake("audit", 30);
  std::string id = lake->ListModels().front();
  auto doc = AuditDoc(*lake, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.ValueUnsafe().GetString("schema"), "mlake.audit");
  EXPECT_EQ(doc.ValueUnsafe().GetString("model_id"), id);
  EXPECT_FALSE(doc.ValueUnsafe().GetBool("quarantined"));
  EXPECT_NE(doc.ValueUnsafe().Find("report"), nullptr);
  EXPECT_TRUE(AuditDoc(*lake, "missing").status().IsNotFound());
}

TEST(RetryAfterSecondsTest, DerivesFromLagAndCadence) {
  // 0 lag (unknown) gets the 1 s floor.
  EXPECT_EQ(RetryAfterSeconds(0, 64, 200), 1);
  // 640 entries at 64/poll, 200 ms/poll = 10 polls = 2 s.
  EXPECT_EQ(RetryAfterSeconds(640, 64, 200), 2);
  // Huge lag clamps at 30 s.
  EXPECT_EQ(RetryAfterSeconds(1'000'000, 64, 200), 30);
  // Degenerate options fall back to conservative defaults (1 entry per
  // 1 s poll) and hit the 30 s ceiling.
  EXPECT_EQ(RetryAfterSeconds(100, 0, 0), 30);
}

TEST(ExportEtagTest, StrongTagOverBothCounters) {
  EXPECT_EQ(ExportEtag(3, 7), "\"3-7\"");
  EXPECT_NE(ExportEtag(3, 7), ExportEtag(7, 3));
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

using server::HttpClient;
using server::HttpResponse;
using server::LakeServer;
using server::ServerOptions;

/// ReplicationControl stub the staleness-fence tests flip.
class FakeReplication : public server::ReplicationControl {
 public:
  bool IsReplica() const override { return is_replica; }
  uint64_t AppliedSeq() const override { return 5; }
  Json StatszJson() const override {
    Json out = Json::MakeObject();
    out.Set("role", std::string(is_replica ? "replica" : "leader"));
    return out;
  }
  Result<Json> Ship(const Json&) override {
    return Status::Unimplemented("fake");
  }
  Status Promote() override { return Status::OK(); }
  uint64_t LagEntries() const override { return lag; }
  bool CaughtUp() const override { return caught_up; }
  int StaleRetryAfterSeconds() const override {
    return RetryAfterSeconds(lag, 64, 200);
  }

  bool is_replica = true;
  bool caught_up = true;
  uint64_t lag = 0;
};

class GovernanceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-governance-http");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
    core::LakeOptions options;
    options.root = JoinPath(dir_, "lake");
    options.probe_count = 4;
    options.background_compaction = false;
    lake_ = core::ModelLake::Open(options).MoveValueUnsafe();
    lakegen::StreamGenConfig config;
    config.num_models = 80;
    config.batch_size = 64;
    config.seed = 11;
    ASSERT_TRUE(lakegen::GenerateStreamingLake(lake_.get(), config).ok());

    ServerOptions server_options;
    server_options.threads = 4;
    server_options.replication = &replication_;
    server_ = std::make_unique<LakeServer>(lake_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_.reset();
    lake_.reset();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server_->port()); }

  std::string dir_;
  std::unique_ptr<core::ModelLake> lake_;
  FakeReplication replication_;
  std::unique_ptr<LakeServer> server_;
};

TEST_F(GovernanceServerTest, CitationEndpointFormats) {
  auto client = Client();
  std::string id = lake_->ListModels().front();

  auto json = client.Get("/v1/models/" + id + "/citation");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_EQ(json.ValueUnsafe().status, 200);
  auto body = Json::Parse(json.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(body.GetString("schema"), "mlake.citation");
  EXPECT_EQ(body.GetString("model_id"), id);

  auto bibtex = client.Get("/v1/models/" + id + "/citation?format=bibtex");
  ASSERT_TRUE(bibtex.ok());
  ASSERT_EQ(bibtex.ValueUnsafe().status, 200);
  EXPECT_TRUE(StartsWith(bibtex.ValueUnsafe().content_type, "text/plain"));
  EXPECT_TRUE(StartsWith(bibtex.ValueUnsafe().body, "@misc{" + id));

  auto text = client.Get("/v1/models/" + id + "/citation?format=text");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.ValueUnsafe().status, 200);
  EXPECT_NE(text.ValueUnsafe().body.find(id), std::string::npos);

  auto bad = client.Get("/v1/models/" + id + "/citation?format=yaml");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.ValueUnsafe().status, 400);

  auto missing = client.Get("/v1/models/zzz-no-such/citation");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueUnsafe().status, 404);
}

TEST_F(GovernanceServerTest, DocAndAuditEndpoints) {
  auto client = Client();
  std::string id = lake_->ListModels().front();

  auto doc = client.Get("/v1/models/" + id + "/doc");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc.ValueUnsafe().status, 200);
  auto doc_body = Json::Parse(doc.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(doc_body.GetString("schema"), "mlake.modeldoc");
  EXPECT_NE(doc_body.Find("card"), nullptr);

  auto audit = client.Get("/v1/audit/" + id);
  ASSERT_TRUE(audit.ok());
  ASSERT_EQ(audit.ValueUnsafe().status, 200);
  auto audit_body = Json::Parse(audit.ValueUnsafe().body).ValueOrDie();
  EXPECT_EQ(audit_body.GetString("schema"), "mlake.audit");
  EXPECT_FALSE(audit_body.GetBool("quarantined"));

  EXPECT_EQ(client.Get("/v1/models/zzz/doc").ValueOrDie().status, 404);
  EXPECT_EQ(client.Get("/v1/audit/zzz").ValueOrDie().status, 404);
}

TEST_F(GovernanceServerTest, ExportStreamsChunkedWithEtag) {
  auto client = Client();
  auto response = client.Get("/v1/export");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const HttpResponse& res = response.ValueUnsafe();
  ASSERT_EQ(res.status, 200);
  EXPECT_EQ(res.content_type, "application/x-ndjson");
  std::string etag(res.Header("etag"));
  ASSERT_FALSE(etag.empty());
  EXPECT_EQ(etag, ExportEtag(lake_->MutationEpoch(),
                             lake_->IndexGeneration()));

  // The chunk-decoded body is the same byte stream the core iterator
  // produces. (Scoped: the iterator pins a shared lock, and RecordEdge
  // below needs the exclusive one.)
  std::string expected;
  {
    auto iterator = lake_->OpenExport();
    std::string line;
    while (iterator->Next(&line)) expected += line;
  }
  EXPECT_EQ(res.body, expected);

  // Conditional re-poll: unchanged tag -> 304 with no body.
  auto cached = client.Get("/v1/export", {{"If-None-Match", etag}});
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(cached.ValueUnsafe().status, 304);
  EXPECT_TRUE(cached.ValueUnsafe().body.empty());
  EXPECT_EQ(cached.ValueUnsafe().Header("etag"), etag);

  // A content mutation (lineage edge) moves the tag: same request now
  // re-downloads.
  std::vector<std::string> ids = lake_->ListModels();
  versioning::VersionEdge edge;
  edge.parent = ids[0];
  edge.child = ids[1];
  edge.type = versioning::EdgeType::kDistill;
  ASSERT_TRUE(lake_->RecordEdge(edge).ok());
  auto fresh = client.Get("/v1/export", {{"If-None-Match", etag}});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.ValueUnsafe().status, 200);
  EXPECT_NE(fresh.ValueUnsafe().Header("etag"), etag);
  EXPECT_NE(fresh.ValueUnsafe().body, expected);  // one more edge record

  // Stats surface saw all of it.
  auto statsz = client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto stats = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* governance = stats.Find("governance");
  ASSERT_NE(governance, nullptr);
  EXPECT_EQ(governance->GetInt64("exports"), 2);
  EXPECT_EQ(governance->GetInt64("export_not_modified"), 1);
  EXPECT_GT(governance->GetInt64("export_bytes"), 0);
}

TEST_F(GovernanceServerTest, StaleReplicaAnswers503WithRetryAfter) {
  replication_.caught_up = false;
  replication_.lag = 640;
  auto client = Client();
  std::string id = lake_->ListModels().front();

  for (const std::string& path :
       {"/v1/models/" + id + "/citation", "/v1/models/" + id + "/doc",
        "/v1/audit/" + id, std::string("/v1/export")}) {
    auto response = client.Get(path);
    ASSERT_TRUE(response.ok()) << path;
    EXPECT_EQ(response.ValueUnsafe().status, 503) << path;
    // Retry-After derives from the watermark lag: 640 entries at
    // 64/200ms = 2 s.
    EXPECT_EQ(response.ValueUnsafe().Header("retry-after"), "2") << path;
  }

  // Plain reads are NOT fenced — only governance documents refuse to
  // be stale.
  EXPECT_EQ(client.Get("/v1/models/" + id).ValueOrDie().status, 200);

  // Catching up un-fences without a restart, and the rejections were
  // counted.
  replication_.caught_up = true;
  EXPECT_EQ(client.Get("/v1/export").ValueOrDie().status, 200);
  auto stats =
      Json::Parse(client.Get("/statsz").ValueOrDie().body).ValueOrDie();
  EXPECT_EQ(stats.Find("governance")->GetInt64("stale_rejected"), 4);
}

}  // namespace
}  // namespace mlake::governance
