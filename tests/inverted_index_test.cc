#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace mlake::index {
namespace {

InvertedIndex MakeCorpus() {
  InvertedIndex index;
  index.Add("m1",
            "legal summarization model trained on US court opinions legal "
            "legal");
  index.Add("m2", "medical summarization model for clinical notes");
  index.Add("m3", "legal entity tagger for contracts");
  index.Add("m4", "translation model for news articles");
  return index;
}

TEST(InvertedIndexTest, FindsMatchingDocs) {
  InvertedIndex index = MakeCorpus();
  auto hits = index.Search("legal", 10);
  ASSERT_EQ(hits.size(), 2u);
  // m1 mentions "legal" three times and should outrank m3.
  EXPECT_EQ(hits[0].doc_id, "m1");
  EXPECT_EQ(hits[1].doc_id, "m3");
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(InvertedIndexTest, MultiTermQueryAccumulates) {
  InvertedIndex index = MakeCorpus();
  auto hits = index.Search("legal summarization", 10);
  ASSERT_GE(hits.size(), 3u);
  EXPECT_EQ(hits[0].doc_id, "m1");  // matches both terms
}

TEST(InvertedIndexTest, RareTermsWeighMoreThanCommon) {
  InvertedIndex index;
  index.Add("common1", "model model alpha");
  index.Add("common2", "model beta");
  index.Add("common3", "model gamma");
  index.Add("rare", "model zeta special");
  // "special" appears in one doc; "model" in all. A doc matching the
  // rare term outranks docs matching only the common term.
  auto hits = index.Search("model special", 10);
  EXPECT_EQ(hits[0].doc_id, "rare");
}

TEST(InvertedIndexTest, NoMatchesReturnsEmpty) {
  InvertedIndex index = MakeCorpus();
  EXPECT_TRUE(index.Search("nonexistentterm", 10).empty());
  EXPECT_TRUE(index.Search("", 10).empty());
  EXPECT_TRUE(index.Search("!!!", 10).empty());
}

TEST(InvertedIndexTest, KLimitsResults) {
  InvertedIndex index = MakeCorpus();
  EXPECT_EQ(index.Search("model", 2).size(), 2u);
}

TEST(InvertedIndexTest, QueryIsCaseInsensitive) {
  InvertedIndex index = MakeCorpus();
  auto hits = index.Search("LEGAL", 10);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(InvertedIndexTest, ReAddReplacesDocument) {
  InvertedIndex index = MakeCorpus();
  index.Add("m1", "now a translation model");
  auto legal_hits = index.Search("legal", 10);
  ASSERT_EQ(legal_hits.size(), 1u);
  EXPECT_EQ(legal_hits[0].doc_id, "m3");
  auto translation_hits = index.Search("translation", 10);
  EXPECT_EQ(translation_hits.size(), 2u);
  EXPECT_EQ(index.NumDocs(), 4u);
}

TEST(InvertedIndexTest, RemoveDropsDocument) {
  InvertedIndex index = MakeCorpus();
  index.Remove("m1");
  auto hits = index.Search("legal", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, "m3");
  index.Remove("m1");      // idempotent
  index.Remove("ghost");   // no-op
}

TEST(InvertedIndexTest, EmptyIndexSearch) {
  InvertedIndex index;
  EXPECT_TRUE(index.Search("anything", 5).empty());
  EXPECT_EQ(index.NumDocs(), 0u);
}

TEST(InvertedIndexTest, TieBrokenByDocId) {
  InvertedIndex index;
  index.Add("b", "identical text");
  index.Add("a", "identical text");
  auto hits = index.Search("identical", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, "a");
}

TEST(InvertedIndexTest, SearchBatchBitIdenticalToSolo) {
  InvertedIndex index = MakeCorpus();
  // Duplicates, non-matching and empty queries in one batch; every
  // slot must carry exactly the solo result (same docs, same bits).
  std::vector<std::string> queries = {
      "legal",       "legal summarization", "model",
      "legal",       "nonexistentterm",     "",
      "clinical notes"};
  auto batch = index.SearchBatch(queries, 3);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = index.Search(queries[i], 3);
    ASSERT_EQ(batch[i].size(), solo.size()) << "slot " << i;
    for (size_t j = 0; j < solo.size(); ++j) {
      EXPECT_EQ(batch[i][j].doc_id, solo[j].doc_id) << "slot " << i;
      EXPECT_EQ(std::memcmp(&batch[i][j].score, &solo[j].score,
                            sizeof(double)),
                0)
          << "slot " << i << " rank " << j;
    }
  }
}

TEST(InvertedIndexTest, SearchWithOwnStatsBitIdenticalToSearch) {
  InvertedIndex index = MakeCorpus();
  for (const char* query :
       {"legal", "legal summarization", "model", "clinical notes", ""}) {
    Bm25Stats stats = index.CollectStats(query);
    auto solo = index.Search(query, 10);
    auto with = index.SearchWithStats(query, 10, stats);
    ASSERT_EQ(with.size(), solo.size()) << query;
    for (size_t i = 0; i < solo.size(); ++i) {
      EXPECT_EQ(with[i].doc_id, solo[i].doc_id) << query;
      EXPECT_EQ(
          std::memcmp(&with[i].score, &solo[i].score, sizeof(double)), 0)
          << query << " rank " << i;
    }
  }
}

TEST(InvertedIndexTest, SummedShardStatsScoreLikeMergedCorpus) {
  // The distributed-BM25 invariant the cluster router relies on: split
  // the corpus across two indexes, sum their integer stats, and every
  // document scores bit-identically to the one merged index.
  InvertedIndex merged = MakeCorpus();
  InvertedIndex shard_a;
  shard_a.Add("m1",
              "legal summarization model trained on US court opinions legal "
              "legal");
  shard_a.Add("m4", "translation model for news articles");
  InvertedIndex shard_b;
  shard_b.Add("m2", "medical summarization model for clinical notes");
  shard_b.Add("m3", "legal entity tagger for contracts");

  for (const char* query : {"legal", "legal summarization model", "model"}) {
    Bm25Stats global = shard_a.CollectStats(query);
    global.Merge(shard_b.CollectStats(query));
    auto oracle = merged.Search(query, 10);

    // Scatter-gather: each shard scores with the summed stats, the
    // "router" merges by (score desc, id asc) — the executor's final
    // comparator.
    std::vector<TextHit> gathered;
    for (auto hits : {shard_a.SearchWithStats(query, 10, global),
                      shard_b.SearchWithStats(query, 10, global)}) {
      gathered.insert(gathered.end(), hits.begin(), hits.end());
    }
    std::sort(gathered.begin(), gathered.end(),
              [](const TextHit& a, const TextHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc_id < b.doc_id;
              });

    ASSERT_EQ(gathered.size(), oracle.size()) << query;
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(gathered[i].doc_id, oracle[i].doc_id) << query;
      EXPECT_EQ(std::memcmp(&gathered[i].score, &oracle[i].score,
                            sizeof(double)),
                0)
          << query << " rank " << i;
    }
  }
}

TEST(InvertedIndexTest, LongDocumentPenalizedByLengthNorm) {
  InvertedIndex index;
  std::string filler;
  for (int i = 0; i < 200; ++i) filler += " filler" + std::to_string(i);
  index.Add("long", "target" + filler);
  index.Add("short", "target focused");
  auto hits = index.Search("target", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, "short");
}

}  // namespace
}  // namespace mlake::index
