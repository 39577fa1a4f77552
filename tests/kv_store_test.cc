#include "storage/kv_store.h"

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/string_util.h"

namespace mlake::storage {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-kv");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
    path_ = JoinPath(dir_, "kv.log");
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string dir_;
  std::string path_;
};

TEST_F(KvStoreTest, PutGetDelete) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Put("k1", "v1").ok());
  ASSERT_TRUE(store->Put("k2", "v2").ok());
  EXPECT_EQ(store->Get("k1").ValueOrDie(), "v1");
  EXPECT_TRUE(store->Contains("k2"));
  EXPECT_FALSE(store->Contains("k3"));
  EXPECT_TRUE(store->Get("k3").status().IsNotFound());
  EXPECT_EQ(store->Count(), 2u);

  ASSERT_TRUE(store->Delete("k1").ok());
  EXPECT_FALSE(store->Contains("k1"));
  EXPECT_EQ(store->Count(), 1u);
  // Deleting a missing key is a no-op.
  ASSERT_TRUE(store->Delete("never-there").ok());
}

TEST_F(KvStoreTest, OverwriteKeepsLatest) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Put("k", "v1").ok());
  ASSERT_TRUE(store->Put("k", "v2").ok());
  EXPECT_EQ(store->Get("k").ValueOrDie(), "v2");
  EXPECT_EQ(store->Count(), 1u);
}

TEST_F(KvStoreTest, EmptyKeyRejected) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_TRUE(store->Put("", "v").IsInvalidArgument());
}

TEST_F(KvStoreTest, BinarySafeValues) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  std::string value("\x00\x01\xff ramble\n\r", 10);
  ASSERT_TRUE(store->Put("bin", value).ok());
  EXPECT_EQ(store->Get("bin").ValueOrDie(), value);
}

TEST_F(KvStoreTest, PersistsAcrossReopen) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Put("b", "2").ok());
    ASSERT_TRUE(store->Delete("a").ok());
    ASSERT_TRUE(store->Put("c", "3").ok());
  }
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 2u);
  EXPECT_FALSE(store->Contains("a"));
  EXPECT_EQ(store->Get("b").ValueOrDie(), "2");
  EXPECT_EQ(store->Get("c").ValueOrDie(), "3");
}

TEST_F(KvStoreTest, ScanPrefixSorted) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Put("card/m2", "x").ok());
  ASSERT_TRUE(store->Put("card/m1", "x").ok());
  ASSERT_TRUE(store->Put("model/m1", "x").ok());
  ASSERT_TRUE(store->Put("carding/oops", "x").ok());
  EXPECT_EQ(store->ScanPrefix("card/"),
            (std::vector<std::string>{"card/m1", "card/m2"}));
  EXPECT_EQ(store->ScanPrefix("zzz").size(), 0u);
  EXPECT_EQ(store->ScanPrefix("").size(), 4u);
}

TEST_F(KvStoreTest, CompactShrinksLogAndKeepsData) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  // Many overwrites of the same key bloat the log.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put("hot", StrFormat("v%d", i)).ok());
  }
  ASSERT_TRUE(store->Put("cold", "stable").ok());
  uint64_t before = store->LogBytes();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->LogBytes(), before / 10);
  EXPECT_EQ(store->Get("hot").ValueOrDie(), "v99");
  EXPECT_EQ(store->Get("cold").ValueOrDie(), "stable");

  // Still intact after reopen.
  auto reopened = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(reopened->Get("hot").ValueOrDie(), "v99");
  EXPECT_EQ(reopened->Count(), 2u);
}

TEST_F(KvStoreTest, TornTailRecovered) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("good1", "v1").ok());
    ASSERT_TRUE(store->Put("good2", "v2").ok());
  }
  // Simulate a crash mid-append: garbage bytes at the tail.
  ASSERT_TRUE(AppendFile(path_, "\x13\x37garbage-torn-record").ok());

  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 2u);
  EXPECT_EQ(store->Get("good1").ValueOrDie(), "v1");
  EXPECT_EQ(store->Get("good2").ValueOrDie(), "v2");
  // The corrupt tail was truncated; new appends work and survive.
  ASSERT_TRUE(store->Put("good3", "v3").ok());
  auto reopened = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(reopened->Count(), 3u);
  EXPECT_EQ(reopened->Get("good3").ValueOrDie(), "v3");
}

TEST_F(KvStoreTest, CorruptedMiddleRecordStopsReplayAtLastValidPrefix) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("first", "1").ok());
    ASSERT_TRUE(store->Put("second", "2").ok());
  }
  // Flip one byte inside the *second* record's payload region.
  auto content = ReadFile(path_).MoveValueUnsafe();
  content[content.size() - 2] ^= 0x5A;
  ASSERT_TRUE(WriteFile(path_, content).ok());

  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 1u);
  EXPECT_EQ(store->Get("first").ValueOrDie(), "1");
  EXPECT_FALSE(store->Contains("second"));
}

TEST_F(KvStoreTest, TruncatedLengthPrefixRecovered) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("key", "value").ok());
  }
  // Append a record header claiming a huge value that never arrives.
  std::string partial;
  partial.append("\x01\x02\x03\x04", 4);  // bogus crc
  partial.push_back('\x01');              // type put
  partial.append("\x02\x00\x00\x00" "ab", 6);  // key length 2, "ab"
  partial.append("\xff\xff\x00\x00", 4);  // value length 65535, missing
  ASSERT_TRUE(AppendFile(path_, partial).ok());
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 1u);
}

TEST_F(KvStoreTest, ManyKeysStressAndReopen) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          store->Put(StrFormat("key-%04d", i), StrFormat("val-%d", i)).ok());
    }
    for (int i = 0; i < 1000; i += 3) {
      ASSERT_TRUE(store->Delete(StrFormat("key-%04d", i)).ok());
    }
  }
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 1000u - 334u);
  EXPECT_FALSE(store->Contains("key-0000"));
  EXPECT_EQ(store->Get("key-0001").ValueOrDie(), "val-1");
}

}  // namespace
}  // namespace mlake::storage
