#include "server/http.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/file_util.h"
#include "common/json.h"
#include "core/model_lake.h"
#include "server/client.h"
#include "server/server.h"

namespace mlake::server {
namespace {

TEST(HttpParseTest, SimpleGet) {
  std::string wire =
      "GET /v1/models?k=5&q=legal%20sum HTTP/1.1\r\n"
      "Host: x\r\n"
      "X-Mlake-Deadline-Ms: 250\r\n"
      "\r\n";
  HttpRequest req;
  auto parsed = ParseHttpRequest(wire, 1 << 20, &req);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueUnsafe(), wire.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/v1/models");
  EXPECT_EQ(req.QueryParam("k"), "5");
  EXPECT_EQ(req.QueryParam("q"), "legal sum");
  EXPECT_EQ(req.QueryParam("absent", "fallback"), "fallback");
  EXPECT_EQ(req.Header("x-mlake-deadline-ms"), "250");
  EXPECT_EQ(req.Header("X-Mlake-Deadline-Ms"), "250");  // case-insensitive
  EXPECT_TRUE(req.KeepAlive());
  EXPECT_TRUE(req.body.empty());
}

TEST(HttpParseTest, PostBodyAndPipelining) {
  std::string one =
      "POST /v1/search HTTP/1.1\r\n"
      "Content-Length: 9\r\n"
      "Connection: close\r\n"
      "\r\n"
      "{\"k\": 3}\n";
  std::string wire = one + "GET /healthz HTTP/1.1\r\n\r\n";
  HttpRequest req;
  auto parsed = ParseHttpRequest(wire, 1 << 20, &req);
  ASSERT_TRUE(parsed.ok());
  // Only the first request is consumed; the next one stays buffered.
  EXPECT_EQ(parsed.ValueUnsafe(), one.size());
  EXPECT_EQ(req.body, "{\"k\": 3}\n");
  EXPECT_FALSE(req.KeepAlive());
}

TEST(HttpParseTest, IncompleteReturnsZero) {
  HttpRequest req;
  // Truncated at every boundary: mid-request-line, mid-headers, mid-body.
  EXPECT_EQ(ParseHttpRequest("GET /x HT", 1024, &req).ValueOrDie(), 0u);
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/1.1\r\nHost: a\r\n", 1024, &req)
                .ValueOrDie(),
            0u);
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024,
                &req)
                .ValueOrDie(),
            0u);
}

TEST(HttpParseTest, MalformedAndOversized) {
  HttpRequest req;
  EXPECT_TRUE(ParseHttpRequest("NONSENSE\r\n\r\n", 1024, &req)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseHttpRequest("GET /x SPDY/3\r\n\r\n", 1024, &req)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseHttpRequest("GET /x HTTP/1.1\r\nbad header line\r\n\r\n", 1024,
                       &req)
          .status()
          .IsInvalidArgument());
  // Chunked encoding is not spoken.
  EXPECT_TRUE(ParseHttpRequest(
                  "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                  1024, &req)
                  .status()
                  .IsUnimplemented());
  // Body above the budget is ResourceExhausted (-> 429/413 family).
  EXPECT_TRUE(ParseHttpRequest(
                  "POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n", 1024,
                  &req)
                  .status()
                  .IsResourceExhausted());
}

TEST(HttpParseTest, ContentLengthMustBeDigitsOnly) {
  for (const char* bad : {"-1", "+5", "12abc", "0x10", "18446744073709551616",
                          "5 5"}) {
    HttpRequest req;
    std::string wire = std::string("POST /x HTTP/1.1\r\nContent-Length: ") +
                       bad + "\r\n\r\nabcde";
    EXPECT_TRUE(ParseHttpRequest(wire, 1024, &req).status().IsInvalidArgument())
        << bad;
  }
  // Surrounding whitespace is header syntax, not part of the value.
  HttpRequest req;
  auto ok = ParseHttpRequest("POST /x HTTP/1.1\r\nContent-Length:  3 \r\n\r\nabc",
                             1024, &req);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(req.body, "abc");
}

TEST(DeadlineHeaderTest, PositiveIntegersOnly) {
  EXPECT_EQ(ParseDeadlineMs("250").ValueOrDie(), 250);
  for (const char* bad : {"", "0", "-5", "+5", "soon", "5ms", " 5"}) {
    EXPECT_TRUE(ParseDeadlineMs(bad).status().IsInvalidArgument()) << bad;
  }
  // Huge values clamp to one year instead of overflowing clock math.
  const int64_t year_ms = int64_t{365} * 24 * 3600 * 1000;
  EXPECT_EQ(ParseDeadlineMs("18446744073709551615").ValueOrDie(), year_ms);
  EXPECT_TRUE(ParseDeadlineMs("18446744073709551616").status()
                  .IsInvalidArgument());
}

TEST(HttpParseTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 429;
  response.body = "{\"error\":{}}";
  response.headers.emplace_back("Retry-After", "1");
  std::string wire = SerializeHttpResponse(response, /*keep_alive=*/false);

  HttpResponse parsed;
  auto consumed = ParseHttpResponse(wire, 1 << 20, &parsed);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.ValueUnsafe(), wire.size());
  EXPECT_EQ(parsed.status, 429);
  EXPECT_EQ(parsed.body, response.body);
  EXPECT_EQ(parsed.Header("retry-after"), "1");
  EXPECT_EQ(parsed.Header("connection"), "close");
}

TEST(HttpParseTest, RequestSerializeParseRoundTrip) {
  std::string wire = SerializeHttpRequest("POST", "/v1/search", "{\"k\":1}",
                                          {{"X-Mlake-Deadline-Ms", "50"}});
  HttpRequest req;
  auto consumed = ParseHttpRequest(wire, 1 << 20, &req);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.ValueUnsafe(), wire.size());
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/search");
  EXPECT_EQ(req.body, "{\"k\":1}");
  EXPECT_EQ(req.Header("x-mlake-deadline-ms"), "50");
}

TEST(HttpStatusMapTest, CanonicalTable) {
  EXPECT_EQ(HttpStatusForStatus(Status::OK()), 200);
  EXPECT_EQ(HttpStatusForStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForStatus(Status::OutOfRange("x")), 400);
  EXPECT_EQ(HttpStatusForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForStatus(Status::AlreadyExists("x")), 409);
  EXPECT_EQ(HttpStatusForStatus(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpStatusForStatus(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpStatusForStatus(Status::IOError("x")), 500);
  EXPECT_EQ(HttpStatusForStatus(Status::Corruption("x")), 500);
  EXPECT_EQ(HttpStatusForStatus(Status::Internal("x")), 500);
  EXPECT_EQ(HttpStatusForStatus(Status::Unimplemented("x")), 501);
  EXPECT_EQ(HttpStatusForStatus(Status::Unavailable("x")), 503);
  EXPECT_EQ(HttpStatusForStatus(Status::DeadlineExceeded("x")), 504);
}

TEST(HttpStatusMapTest, ErrorResponseShape) {
  HttpResponse response = ErrorResponse(Status::NotFound("model m1"));
  EXPECT_EQ(response.status, 404);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  const Json* error = body.ValueUnsafe().Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code"), "NotFound");
  EXPECT_EQ(error->GetString("message"), "model m1");

  // Overload answers carry Retry-After, per the admission contract.
  HttpResponse overloaded =
      ErrorResponse(Status::ResourceExhausted("queue full"));
  EXPECT_EQ(overloaded.status, 429);
  EXPECT_EQ(overloaded.Header("Retry-After"), "1");
}

TEST(Base64Test, RoundTripAllLengths) {
  // Exercise every padding arm, including binary bytes.
  for (size_t len = 0; len <= 9; ++len) {
    std::string bytes;
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>((i * 77 + 200) & 0xff));
    }
    std::string encoded = Base64Encode(bytes);
    EXPECT_EQ(encoded.size() % 4, 0u);
    auto decoded = Base64Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << "len=" << len;
    EXPECT_EQ(decoded.ValueUnsafe(), bytes) << "len=" << len;
  }
  EXPECT_EQ(Base64Encode("Man"), "TWFu");
  EXPECT_EQ(Base64Encode("Ma"), "TWE=");
  EXPECT_EQ(Base64Encode("M"), "TQ==");
}

TEST(Base64Test, RejectsGarbage) {
  EXPECT_TRUE(Base64Decode("abc").status().IsInvalidArgument());    // length
  EXPECT_TRUE(Base64Decode("ab!d").status().IsInvalidArgument());   // charset
  EXPECT_TRUE(Base64Decode("=abc").status().IsInvalidArgument());   // padding
}

TEST(UrlDecodeTest, Decodes) {
  EXPECT_EQ(UrlDecode("a%2Fb+c%20d"), "a/b c d");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode("%zz"), "%zz");  // malformed escape passes through
}

// ---- MLQL plan cache (parse once, reuse) -------------------------------

std::unique_ptr<core::ModelLake> OpenEmptyLake(const std::string& dir) {
  core::LakeOptions options;
  options.root = dir;
  options.input_dim = 8;
  options.num_classes = 2;
  return core::ModelLake::Open(options).MoveValueUnsafe();
}

// Regression test: the search handler used to re-parse the MLQL text on
// every request, including the duplicate sends a client's keep-alive-
// race retry produces. The lake's plan cache must parse a repeated
// query exactly once, even when every round trip rides a fresh
// connection after a server-side idle close.
TEST(PlanCacheTest, ParseOnceAcrossKeepAliveRetries) {
  std::string dir = MakeTempDir("mlake-plancache").ValueOrDie();
  auto lake = OpenEmptyLake(dir);

  ServerOptions options;
  options.threads = 2;
  // Time idle connections out quickly so every iteration below runs
  // the client's retry-once keep-alive-race path.
  options.keep_alive_timeout_ms = 50;
  LakeServer server(lake.get(), options);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  const std::string body =
      R"({"type": "mlql", "query": "FIND MODELS WHERE task = 'sum' LIMIT 3"})";
  const int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    // Search is read-only: opting into the idempotent keep-alive-race
    // retry is what keeps this loop running over timed-out connections.
    auto response = client.Post("/v1/search", body, {}, /*timeout_ms=*/0,
                                /*idempotent=*/true);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.ValueUnsafe().status, 200)
        << response.ValueUnsafe().body;
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }

  core::ModelLake::PlanCacheCounters counters = lake->PlanCacheStats();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_GE(counters.hits, static_cast<uint64_t>(kRequests - 1));
  EXPECT_GE(counters.entries, 1u);

  // The planner block of /statsz surfaces the same counters.
  auto statsz = client.Get("/statsz");
  ASSERT_TRUE(statsz.ok());
  auto parsed = Json::Parse(statsz.ValueUnsafe().body).ValueOrDie();
  const Json* planner = parsed.Find("planner");
  ASSERT_NE(planner, nullptr);
  ASSERT_NE(planner->Find("plan_cache"), nullptr);
  EXPECT_EQ(planner->Find("plan_cache")->GetInt64("misses", -1), 1);
  EXPECT_FALSE(planner->GetString("last_plan").empty());

  ASSERT_TRUE(server.Stop().ok());
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// Formatting variants of one query normalize to the same cached parse.
TEST(PlanCacheTest, NormalizedQueryTextSharesEntry) {
  std::string dir = MakeTempDir("mlake-plannorm").ValueOrDie();
  auto lake = OpenEmptyLake(dir);
  ASSERT_TRUE(lake->Query("FIND MODELS LIMIT 3").ok());   // miss, cached
  ASSERT_TRUE(lake->Query("find models limit 3").ok());   // miss, aliases
  // The second query's canonical rendering matched the first entry's
  // alias, so a third spelling that normalizes identically now hits.
  core::ModelLake::PlanCacheCounters before = lake->PlanCacheStats();
  ASSERT_TRUE(lake->Query("FIND MODELS LIMIT 3").ok());
  core::ModelLake::PlanCacheCounters after = lake->PlanCacheStats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

// A lake mutation moves the mutation epoch; the plan cache must drop
// its entries (conservative hygiene: parses cannot go stale, but the
// cache must never outlive an epoch unbounded).
TEST(PlanCacheTest, InvalidatedOnLakeMutation) {
  std::string dir = MakeTempDir("mlake-planinval").ValueOrDie();
  auto lake = OpenEmptyLake(dir);
  ASSERT_TRUE(lake->Query("FIND MODELS").ok());
  EXPECT_GE(lake->PlanCacheStats().entries, 1u);

  ASSERT_TRUE(lake->RegisterDataset("corpus/a", {"s1", "s2"}).ok());

  // The stale-epoch sweep runs on the next lookup: one fresh miss.
  uint64_t misses_before = lake->PlanCacheStats().misses;
  ASSERT_TRUE(lake->Query("FIND MODELS").ok());
  core::ModelLake::PlanCacheCounters counters = lake->PlanCacheStats();
  EXPECT_EQ(counters.misses, misses_before + 1);
  lake.reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace mlake::server
