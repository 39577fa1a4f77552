#include "storage/catalog.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "digest_reference.h"

namespace mlake::storage {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-catalog");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
    path_ = JoinPath(dir_, "catalog.log");
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string dir_;
  std::string path_;
};

Json Doc(const std::string& value) {
  Json j = Json::MakeObject();
  j.Set("v", value);
  return j;
}

TEST_F(CatalogTest, PutGetByKind) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "m1", Doc("card1")).ok());
  ASSERT_TRUE(catalog->PutDoc("model", "m1", Doc("model1")).ok());

  EXPECT_EQ(catalog->GetDoc("card", "m1").ValueOrDie().GetString("v"),
            "card1");
  EXPECT_EQ(catalog->GetDoc("model", "m1").ValueOrDie().GetString("v"),
            "model1");
  EXPECT_TRUE(catalog->Contains("card", "m1"));
  EXPECT_FALSE(catalog->Contains("card", "m2"));
  EXPECT_TRUE(catalog->GetDoc("card", "m2").status().IsNotFound());
}

TEST_F(CatalogTest, KindsAreIsolatedInListing) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "b", Doc("x")).ok());
  ASSERT_TRUE(catalog->PutDoc("card", "a", Doc("x")).ok());
  ASSERT_TRUE(catalog->PutDoc("model", "z", Doc("x")).ok());
  EXPECT_EQ(catalog->ListIds("card"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog->ListIds("model"), (std::vector<std::string>{"z"}));
  EXPECT_EQ(catalog->ListIds("card").size(), 2u);
  EXPECT_TRUE(catalog->ListIds("nothing").empty());
}

TEST_F(CatalogTest, IdsMayContainSlashes) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("dataset", "legal-sum/us-courts", Doc("d")).ok());
  EXPECT_TRUE(catalog->Contains("dataset", "legal-sum/us-courts"));
  EXPECT_EQ(catalog->ListIds("dataset"),
            (std::vector<std::string>{"legal-sum/us-courts"}));
}

TEST_F(CatalogTest, InvalidKindOrIdRejected) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  EXPECT_TRUE(catalog->PutDoc("", "id", Doc("x")).IsInvalidArgument());
  EXPECT_TRUE(catalog->PutDoc("kind", "", Doc("x")).IsInvalidArgument());
  EXPECT_TRUE(catalog->PutDoc("bad/kind", "id", Doc("x")).IsInvalidArgument());
}

TEST_F(CatalogTest, DeleteAndReplace) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "m", Doc("v1")).ok());
  ASSERT_TRUE(catalog->PutDoc("card", "m", Doc("v2")).ok());
  EXPECT_EQ(catalog->GetDoc("card", "m").ValueOrDie().GetString("v"), "v2");
  ASSERT_TRUE(catalog->DeleteDoc("card", "m").ok());
  EXPECT_FALSE(catalog->Contains("card", "m"));
}

TEST_F(CatalogTest, PersistsAcrossReopenWithCompaction) {
  {
    auto catalog = Catalog::Open(path_).MoveValueUnsafe();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(catalog->PutDoc("card", "m", Doc(std::to_string(i))).ok());
    }
    ASSERT_TRUE(catalog->PutDoc("graph", "main", Doc("g")).ok());
    ASSERT_TRUE(catalog->Compact().ok());
  }
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(catalog->GetDoc("card", "m").ValueOrDie().GetString("v"), "19");
  EXPECT_EQ(catalog->GetDoc("graph", "main").ValueOrDie().GetString("v"),
            "g");
}

TEST_F(CatalogTest, ComplexDocumentRoundTrip) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  Json doc = Json::MakeObject();
  doc.Set("nested", Json::Parse(R"({"a": [1, 2, {"b": true}]})").ValueOrDie());
  doc.Set("num", 3.125);
  ASSERT_TRUE(catalog->PutDoc("meta", "m", doc).ok());
  Json back = catalog->GetDoc("meta", "m").ValueOrDie();
  EXPECT_TRUE(back == doc);
}

TEST_F(CatalogTest, DeleteRejectsKindWithSlash) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "a/b", Doc("x")).ok());
  // "card/a" + "b" would alias key "card/a/b" of kind "card".
  EXPECT_TRUE(catalog->DeleteDoc("card/a", "b").IsInvalidArgument());
  EXPECT_TRUE(catalog->Contains("card", "a/b"));
}

// ---------------------------------------------------------------------------
// Per-kind digests
// ---------------------------------------------------------------------------

const std::vector<std::string>& DigestedKinds() {
  static const std::vector<std::string> kinds = {"model", "card", "embedding",
                                                 "dataset"};
  return kinds;
}

/// The digest of `kind` rebuilt from the catalog's current contents.
digest_reference::Bytes32 ReferenceDigest(const Catalog& catalog,
                                          const std::string& kind) {
  std::vector<digest_reference::Bytes32> records;
  for (const std::string& id : catalog.ListIds(kind)) {
    std::string bytes = catalog.GetDoc(kind, id).ValueOrDie().Dump();
    records.push_back(digest_reference::Record(kind, id, bytes));
  }
  return digest_reference::Sum(records);
}

/// Maintained counts (digested kinds) and scanned counts (the others)
/// both equal the number of listed ids.
void ExpectCountsMatchListing(const Catalog& catalog,
                              const std::string& where) {
  for (const char* kind :
       {"model", "card", "embedding", "dataset", "degraded", "graph"}) {
    ASSERT_EQ(catalog.KindCount(kind), catalog.ListIds(kind).size())
        << kind << " " << where;
  }
}

void ExpectDigestsMatchReference(const Catalog& catalog,
                                 const std::string& where) {
  ExpectCountsMatchListing(catalog, where);
  for (const std::string& kind : DigestedKinds()) {
    EXPECT_EQ(catalog.KindDigest(kind).bytes(),
              ReferenceDigest(catalog, kind))
        << kind << " " << where;
  }
  // Kinds not named at Open carry no digest.
  EXPECT_EQ(catalog.KindDigest("degraded"), SetDigest());
  EXPECT_EQ(catalog.KindDigest("graph"), SetDigest());
}

class CatalogDigestTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("mlake-catalog-digest").ValueOrDie();
    path_ = JoinPath(dir_, "catalog.log");
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::unique_ptr<Catalog> OpenDigested(Fs* fs) {
    auto catalog = Catalog::Open(path_, fs, DigestedKinds());
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return catalog.ok() ? catalog.MoveValueUnsafe() : nullptr;
  }

  std::string dir_;
  std::string path_;
};

// A seeded random sequence of puts, overwrites and deletes on every
// kind (digested and local-only), with reopens, a torn tail and the
// KV store's auto-compaction in between: the maintained digests always
// equal the rebuilt reference, and the counts the listing.
TEST_P(CatalogDigestTest, MaintainedDigestsMatchReference) {
  Rng rng(GetParam());
  const std::vector<std::string> kinds = {"model",   "card",     "embedding",
                                          "dataset", "degraded", "graph"};
  auto catalog = OpenDigested(nullptr);
  uint64_t last_size = 0;
  int compactions_seen = 0;
  for (int op = 0; op < 3000; ++op) {
    const std::string& kind = kinds[rng.NextBelow(kinds.size())];
    const std::string id =
        StrFormat("m-%02d", static_cast<int>(rng.NextBelow(24)));
    std::vector<SetDigest> before;
    for (const std::string& k : DigestedKinds()) {
      before.push_back(catalog->KindDigest(k));
    }
    if (rng.NextDouble() < 0.65) {
      Json doc = Json::MakeObject();
      doc.Set("op", op);
      doc.Set("pad", std::string(rng.NextBelow(400), 'x'));
      ASSERT_TRUE(catalog->PutDoc(kind, id, doc).ok());
    } else {
      ASSERT_TRUE(catalog->DeleteDoc(kind, id).ok());
    }
    if (kind == "degraded" || kind == "graph") {
      for (size_t k = 0; k < DigestedKinds().size(); ++k) {
        EXPECT_EQ(catalog->KindDigest(DigestedKinds()[k]), before[k])
            << "write to local-only kind " << kind << " moved a digest";
      }
    }
    ExpectCountsMatchListing(*catalog, StrFormat("after op %d", op));
    uint64_t size = FileExists(path_) ? FileSize(path_).ValueOrDie() : 0;
    if (size < last_size) ++compactions_seen;
    last_size = size;

    if (op % 250 == 249) {
      ExpectDigestsMatchReference(*catalog, StrFormat("after op %d", op));
    }
    if (op % 1000 == 999) {
      catalog.reset();
      if (op == 1999) {
        // Torn tail: a partial record the next replay must drop.
        ASSERT_TRUE(AppendFile(path_, std::string("\x17\x00\x00\x00\x01"
                                                  "card/m-0", 13))
                        .ok());
      }
      catalog = OpenDigested(nullptr);
      ExpectDigestsMatchReference(*catalog, StrFormat("reopen at %d", op));
      last_size = FileSize(path_).ValueOrDie();
    }
  }
  EXPECT_GT(compactions_seen, 0) << "auto-compaction never fired";
}

// Writes that fail (a failed append is not applied) or half-fail (the
// write lands, then the auto-compaction after it errors) leave the
// digests and counts exact either way.
TEST_P(CatalogDigestTest, FailedWritesKeepDigestsExact) {
  Rng rng(GetParam());
  FaultPlan plan;
  plan.seed = GetParam();
  for (uint64_t i = 3; i < 4000; i += 7) plan.fail_ops.push_back(i);
  FaultInjectingFs fs(RealFs(), plan);
  auto catalog = OpenDigested(&fs);
  int failures = 0;
  for (int op = 0; op < 1500; ++op) {
    const std::string& kind =
        DigestedKinds()[rng.NextBelow(DigestedKinds().size())];
    const std::string id =
        StrFormat("m-%02d", static_cast<int>(rng.NextBelow(16)));
    Status st;
    if (rng.NextDouble() < 0.7) {
      Json doc = Json::MakeObject();
      doc.Set("op", op);
      doc.Set("pad", std::string(rng.NextBelow(600), 'y'));
      st = catalog->PutDoc(kind, id, doc);
    } else {
      st = catalog->DeleteDoc(kind, id);
    }
    if (!st.ok()) ++failures;
    ExpectCountsMatchListing(*catalog, StrFormat("after op %d", op));
  }
  EXPECT_GT(failures, 0);
  ExpectDigestsMatchReference(*catalog, "after faulted writes");
  // The durable log agrees with the in-memory index after a reopen.
  catalog.reset();
  catalog = OpenDigested(nullptr);
  ExpectDigestsMatchReference(*catalog, "after reopen");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogDigestTest,
                         ::testing::Values(1u, 7u, 42u));

}  // namespace
}  // namespace mlake::storage
