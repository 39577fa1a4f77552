#include "index/hnsw_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/file_util.h"
#include "common/fs.h"
#include "common/random.h"
#include "index/brute_force_index.h"

namespace mlake::index {
namespace {

std::vector<std::vector<float>> RandomVectors(size_t n, int64_t dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out(n);
  for (auto& v : out) {
    v.resize(static_cast<size_t>(dim));
    for (float& x : v) x = static_cast<float>(rng.Normal());
  }
  return out;
}

TEST(BruteForceTest, ExactOrderingL2) {
  BruteForceIndex index(2, Metric::kL2);
  ASSERT_TRUE(index.Add(1, {0, 0}).ok());
  ASSERT_TRUE(index.Add(2, {1, 0}).ok());
  ASSERT_TRUE(index.Add(3, {3, 0}).ok());
  auto hits = index.Search({0.4f, 0}, 3).ValueOrDie();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 1);
  EXPECT_EQ(hits[1].id, 2);
  EXPECT_EQ(hits[2].id, 3);
  EXPECT_FLOAT_EQ(hits[0].distance, 0.16f);
}

TEST(BruteForceTest, CosineMetric) {
  BruteForceIndex index(2, Metric::kCosine);
  ASSERT_TRUE(index.Add(1, {1, 0}).ok());
  ASSERT_TRUE(index.Add(2, {0, 1}).ok());
  ASSERT_TRUE(index.Add(3, {-1, 0}).ok());
  auto hits = index.Search({2, 0}, 3).ValueOrDie();
  EXPECT_EQ(hits[0].id, 1);
  EXPECT_EQ(hits[2].id, 3);
  EXPECT_NEAR(hits[2].distance, 2.0f, 1e-3);  // opposite direction
}

TEST(BruteForceTest, ValidatesInput) {
  BruteForceIndex index(3, Metric::kL2);
  EXPECT_TRUE(index.Add(1, {1, 2}).IsInvalidArgument());
  ASSERT_TRUE(index.Add(1, {1, 2, 3}).ok());
  EXPECT_TRUE(index.Add(1, {4, 5, 6}).IsAlreadyExists());
  EXPECT_TRUE(index.Search({1}, 2).status().IsInvalidArgument());
  // k larger than size returns all.
  EXPECT_EQ(index.Search({0, 0, 0}, 10).ValueOrDie().size(), 1u);
}

TEST(RecallTest, Math) {
  std::vector<Neighbor> exact{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  std::vector<Neighbor> approx{{1, 0}, {9, 0}, {3, 0}, {8, 0}};
  EXPECT_DOUBLE_EQ(RecallAtK(exact, approx, 4), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(exact, exact, 4), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK({}, approx, 4), 1.0);
}

TEST(HnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(4);
  EXPECT_TRUE(index.Search({0, 0, 0, 0}, 5).ValueOrDie().empty());
}

TEST(HnswTest, ValidatesInput) {
  HnswIndex index(4);
  EXPECT_TRUE(index.Add(1, {0, 0}).IsInvalidArgument());
  ASSERT_TRUE(index.Add(1, {0, 0, 0, 1}).ok());
  EXPECT_TRUE(index.Add(1, {0, 0, 1, 0}).IsAlreadyExists());
  EXPECT_TRUE(index.Search({0}, 1).status().IsInvalidArgument());
}

TEST(HnswTest, SingleAndFewElements) {
  HnswIndex index(3);
  ASSERT_TRUE(index.Add(7, {1, 0, 0}).ok());
  auto hits = index.Search({1, 0, 0}, 5).ValueOrDie();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 7);

  ASSERT_TRUE(index.Add(8, {0, 1, 0}).ok());
  ASSERT_TRUE(index.Add(9, {0, 0, 1}).ok());
  hits = index.Search({0, 0.9f, 0.1f}, 2).ValueOrDie();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 8);
}

struct RecallCase {
  const char* name;
  Metric metric;
  int ef_search;
  double min_recall;
};

class HnswRecallTest : public ::testing::TestWithParam<RecallCase> {};

TEST_P(HnswRecallTest, RecallAgainstBruteForce) {
  const RecallCase& param = GetParam();
  const size_t n = 2000;
  const int64_t dim = 16;
  auto vectors = RandomVectors(n, dim, 42);

  HnswConfig config;
  config.metric = param.metric;
  config.m = 12;
  config.ef_construction = 80;
  config.ef_search = param.ef_search;
  HnswIndex hnsw(dim, config);
  BruteForceIndex exact(dim, param.metric);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(hnsw.Add(static_cast<int64_t>(i), vectors[i]).ok());
    ASSERT_TRUE(exact.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }

  auto queries = RandomVectors(50, dim, 77);
  double total_recall = 0.0;
  for (const auto& q : queries) {
    auto approx = hnsw.Search(q, 10).ValueOrDie();
    auto truth = exact.Search(q, 10).ValueOrDie();
    total_recall += RecallAtK(truth, approx, 10);
  }
  double recall = total_recall / static_cast<double>(queries.size());
  EXPECT_GE(recall, param.min_recall) << "mean recall@10";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HnswRecallTest,
    ::testing::Values(RecallCase{"l2_ef64", Metric::kL2, 64, 0.9},
                      RecallCase{"l2_ef128", Metric::kL2, 128, 0.95},
                      RecallCase{"cosine_ef64", Metric::kCosine, 64, 0.9},
                      RecallCase{"cosine_ef128", Metric::kCosine, 128, 0.95}),
    [](const ::testing::TestParamInfo<RecallCase>& info) {
      return info.param.name;
    });

TEST(HnswTest, HigherEfSearchNeverHurtsRecallMuch) {
  const size_t n = 1000;
  const int64_t dim = 8;
  auto vectors = RandomVectors(n, dim, 5);
  HnswConfig config;
  config.ef_search = 8;
  HnswIndex hnsw(dim, config);
  BruteForceIndex exact(dim, config.metric);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(hnsw.Add(static_cast<int64_t>(i), vectors[i]).ok());
    ASSERT_TRUE(exact.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }
  auto queries = RandomVectors(30, dim, 6);
  auto mean_recall = [&](int ef) {
    hnsw.set_ef_search(ef);
    double total = 0.0;
    for (const auto& q : queries) {
      total += RecallAtK(exact.Search(q, 10).ValueOrDie(),
                         hnsw.Search(q, 10).ValueOrDie(), 10);
    }
    return total / static_cast<double>(queries.size());
  };
  double low = mean_recall(10);
  double high = mean_recall(200);
  EXPECT_GE(high + 1e-9, low);
  EXPECT_GE(high, 0.97);
}

TEST(HnswTest, ExactMatchIsTopHit) {
  const int64_t dim = 8;
  auto vectors = RandomVectors(500, dim, 11);
  HnswIndex hnsw(dim);
  for (size_t i = 0; i < vectors.size(); ++i) {
    ASSERT_TRUE(hnsw.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }
  // Querying with an indexed vector returns that vector first.
  for (size_t i = 0; i < vectors.size(); i += 50) {
    auto hits = hnsw.Search(vectors[i], 1).ValueOrDie();
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, static_cast<int64_t>(i));
    EXPECT_NEAR(hits[0].distance, 0.0f, 1e-5);
  }
}

TEST(HnswTest, NormalizeAtAddPreservesCosineResults) {
  // HNSW stores cosine vectors pre-normalized (distance = 1 - dot); the
  // brute-force index computes the classic two-norm form per pair. If
  // normalize-at-Add changed semantics, recall against brute force
  // would collapse and distances would disagree. Vectors get wildly
  // varying magnitudes to make any norm-handling bug visible.
  const size_t n = 1500;
  const int64_t dim = 24;
  auto vectors = RandomVectors(n, dim, 21);
  Rng rng(22);
  for (auto& v : vectors) {
    float scale = std::exp(static_cast<float>(rng.Normal()) * 2.0f);
    for (float& x : v) x *= scale;
  }

  HnswConfig config;
  config.metric = Metric::kCosine;
  config.m = 12;
  config.ef_construction = 80;
  config.ef_search = 128;
  HnswIndex hnsw(dim, config);
  BruteForceIndex exact(dim, Metric::kCosine);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(hnsw.Add(static_cast<int64_t>(i), vectors[i]).ok());
    ASSERT_TRUE(exact.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }

  auto queries = RandomVectors(40, dim, 23);
  double total_recall = 0.0;
  for (const auto& q : queries) {
    auto approx = hnsw.Search(q, 10).ValueOrDie();
    auto truth = exact.Search(q, 10).ValueOrDie();
    total_recall += RecallAtK(truth, approx, 10);
    // The reported distances must still be true (un-normalized-input)
    // cosine distances.
    ASSERT_FALSE(approx.empty());
    EXPECT_NEAR(approx[0].distance, truth[0].distance, 1e-4);
  }
  EXPECT_GE(total_recall / static_cast<double>(queries.size()), 0.95);
}

// SearchBatch must return, for every slot, exactly the bits a solo
// Search would have produced — the solo path delegates to it with a
// batch of one, so the two must never diverge. Exercised on both
// sides of the dense-GEMM segment threshold (128) so the brute-force
// block path and the graph-walk path are both covered.
void ExpectBatchMatchesSolo(const HnswIndex& index,
                            const std::vector<std::vector<float>>& queries,
                            size_t k) {
  auto batch = index.SearchBatch(queries, k).ValueOrDie();
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = index.Search(queries[i], k).ValueOrDie();
    ASSERT_EQ(batch[i].size(), solo.size()) << "slot " << i;
    for (size_t j = 0; j < solo.size(); ++j) {
      EXPECT_EQ(batch[i][j].id, solo[j].id) << "slot " << i;
      // Bit-identical, not approximately equal: memcmp the floats.
      EXPECT_EQ(std::memcmp(&batch[i][j].distance, &solo[j].distance,
                            sizeof(float)),
                0)
          << "slot " << i << " rank " << j;
    }
  }
}

TEST(HnswBatchTest, BitIdenticalToSoloDensePath) {
  const int64_t dim = 16;
  auto vectors = RandomVectors(100, dim, 31);  // <= 128: dense GEMM path
  HnswIndex index(dim);
  for (size_t i = 0; i < vectors.size(); ++i) {
    ASSERT_TRUE(index.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }
  auto queries = RandomVectors(9, dim, 32);
  queries.push_back(queries[2]);  // duplicate probes dedup correctly
  queries.push_back(queries[2]);
  ExpectBatchMatchesSolo(index, queries, 7);
}

TEST(HnswBatchTest, BitIdenticalToSoloGraphPath) {
  const int64_t dim = 16;
  auto vectors = RandomVectors(500, dim, 41);  // > 128: graph walk
  HnswIndex index(dim);
  for (size_t i = 0; i < vectors.size(); ++i) {
    ASSERT_TRUE(index.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }
  ExpectBatchMatchesSolo(index, RandomVectors(11, dim, 42), 10);
}

TEST(HnswBatchTest, BitIdenticalAcrossBaseDeltaAndTombstones) {
  const int64_t dim = 12;
  auto vectors = RandomVectors(400, dim, 51);
  std::vector<int64_t> ids(300);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);

  HnswIndex built(dim);
  ASSERT_TRUE(
      built
          .Build(ids, std::vector<std::vector<float>>(
                          vectors.begin(), vectors.begin() + 300), {})
          .ok());
  auto dir = MakeTempDir("mlake-hnsw-batch");
  ASSERT_TRUE(dir.ok());
  std::string path = JoinPath(dir.ValueUnsafe(), "hnsw.snap");
  ASSERT_TRUE(built.SaveSnapshot(RealFs(), path, 1).ok());

  HnswIndex index(dim);
  ASSERT_TRUE(index.LoadSnapshot(RealFs(), path).ok());
  for (size_t i = 300; i < 400; ++i) {  // delta segment on top of base
    ASSERT_TRUE(index.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }
  for (int64_t id : {7, 130, 299, 310, 399}) {  // tombstones in both
    ASSERT_TRUE(index.Remove(id).ok());
  }
  ExpectBatchMatchesSolo(index, RandomVectors(8, dim, 52), 12);
  ASSERT_TRUE(RemoveAll(dir.ValueUnsafe()).ok());
}

TEST(HnswBatchTest, ValidatesInputAndHandlesEmpty) {
  HnswIndex index(4);
  EXPECT_TRUE(index.SearchBatch({}, 3).ValueOrDie().empty());
  ASSERT_TRUE(index.Add(1, {1, 0, 0, 0}).ok());
  // A bad dim in any slot fails the whole batch (callers validated
  // per-request earlier; a mismatch here is a programming error).
  EXPECT_TRUE(index.SearchBatch({{1, 0, 0, 0}, {1, 0}}, 3)
                  .status()
                  .IsInvalidArgument());
  auto one = index.SearchBatch({{1, 0, 0, 0}}, 3).ValueOrDie();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].size(), 1u);
}

TEST(HnswTest, DeterministicGivenSeed) {
  auto vectors = RandomVectors(300, 8, 13);
  HnswConfig config;
  config.seed = 99;
  HnswIndex a(8, config), b(8, config);
  for (size_t i = 0; i < vectors.size(); ++i) {
    ASSERT_TRUE(a.Add(static_cast<int64_t>(i), vectors[i]).ok());
    ASSERT_TRUE(b.Add(static_cast<int64_t>(i), vectors[i]).ok());
  }
  auto queries = RandomVectors(10, 8, 14);
  for (const auto& q : queries) {
    auto ha = a.Search(q, 5).ValueOrDie();
    auto hb = b.Search(q, 5).ValueOrDie();
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id);
    }
  }
  EXPECT_EQ(a.max_level(), b.max_level());
}

}  // namespace
}  // namespace mlake::index
