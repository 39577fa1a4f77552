#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/file_util.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"

namespace mlake::server {
namespace {

/// Shutdown tests need no models — they exercise drain mechanics with
/// /healthz, /v1/models (empty list), /debug/sleep and delayed
/// searches.
class ServerShutdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("mlake-shutdown").ValueOrDie();
    core::LakeOptions options;
    options.root = dir_;
    options.input_dim = 16;
    options.num_classes = 4;
    lake_ = core::ModelLake::Open(options).MoveValueUnsafe();
  }
  void TearDown() override {
    lake_.reset();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::string dir_;
  std::unique_ptr<core::ModelLake> lake_;
};

TEST_F(ServerShutdownTest, InFlightRequestFinishesDuringStop) {
  ServerOptions options;
  options.threads = 4;
  options.enable_debug_endpoints = true;
  options.drain_deadline_ms = 5000;
  LakeServer server(lake_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // A request that will still be executing when Stop() begins.
  std::atomic<bool> started{false};
  std::atomic<int> slow_status{0};
  std::thread slow([&] {
    HttpClient client("127.0.0.1", server.port());
    started.store(true);
    auto response = client.Get("/debug/sleep?ms=600");
    if (response.ok()) slow_status.store(response.ValueUnsafe().status);
  });
  while (!started.load()) std::this_thread::yield();
  // Give the request time to reach the handler.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto stop_begun = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.Stop().ok());
  auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - stop_begun)
                     .count();
  slow.join();

  // The drain waited for the sleeper (not a force-close) and the
  // request completed with a real response — nothing dropped mid-body.
  EXPECT_EQ(slow_status.load(), 200);
  EXPECT_GE(stop_ms, 300);   // actually waited for the in-flight request
  EXPECT_LT(stop_ms, 5000);  // and did not burn the whole drain budget
  EXPECT_TRUE(server.draining());
}

TEST_F(ServerShutdownTest, DrainDeadlineForceClosesStragglers) {
  // A sleeper longer than the drain budget: Stop() must not hang on it.
  ServerOptions options;
  options.threads = 2;
  options.enable_debug_endpoints = true;
  options.drain_deadline_ms = 200;
  LakeServer server(lake_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  std::thread straggler([&] {
    HttpClient client("127.0.0.1", server.port());
    client.set_timeout_ms(8000);
    // Outcome does not matter (the connection is severed at the drain
    // deadline); what matters is that Stop() returns promptly.
    (void)client.Get("/debug/sleep?ms=5000");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto stop_begun = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.Stop().ok());
  auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - stop_begun)
                     .count();
  // Bounded by drain deadline + the handler noticing the dead socket,
  // not by the 5 s sleep.
  EXPECT_LT(stop_ms, 4500);
  straggler.join();
}

/// The two front ends that share the drain code: mlaked itself, and a
/// cluster router in front of one mlaked backend.
enum class FrontEnd { kLakeServer, kRouter };

class FrontEndDrainTest : public ServerShutdownTest,
                          public ::testing::WithParamInterface<FrontEnd> {
 protected:
  void TearDown() override {
    router_.reset();
    server_.reset();
    backend_.reset();
    ServerShutdownTest::TearDown();
  }

  /// Starts the front end under test with `threads` workers.
  void StartFrontEnd(int threads, int drain_deadline_ms) {
    ServerOptions options;
    options.threads = threads;
    options.enable_debug_endpoints = true;
    options.drain_deadline_ms = drain_deadline_ms;
    if (GetParam() == FrontEnd::kLakeServer) {
      server_ = std::make_unique<LakeServer>(lake_.get(), options);
      ASSERT_TRUE(server_->Start().ok());
      port_ = server_->port();
      return;
    }
    options.threads = 16;  // covers the router's pooled connections
    options.shard_id = 0;
    options.cluster_size = 1;
    options.test_search_delay_us = search_delay_us_;
    backend_ = std::make_unique<LakeServer>(lake_.get(), options);
    ASSERT_TRUE(backend_->Start().ok());
    cluster::RouterOptions router_options;
    router_options.threads = threads;
    router_options.drain_deadline_ms = drain_deadline_ms;
    router_options.backends = {{"127.0.0.1", backend_->port(), 0}};
    router_ = std::make_unique<cluster::Router>(router_options);
    ASSERT_TRUE(router_->Start().ok());
    port_ = router_->port();
  }

  Status StopFrontEnd() {
    return server_ != nullptr ? server_->Stop() : router_->Stop();
  }

  bool Draining() const {
    return server_ != nullptr ? server_->draining() : router_->draining();
  }

  /// A request that spends about `ms` inside the front end: /debug/sleep
  /// on mlaked, a routed search the backend delays on the router.
  Result<HttpResponse> SlowRequest(HttpClient* client, int ms) {
    if (server_ != nullptr) {
      return client->Get("/debug/sleep?ms=" + std::to_string(ms));
    }
    search_delay_us_->store(int64_t{ms} * 1000);
    return client->Post("/v1/search",
                        R"({"type": "mlql", "query": "FIND MODELS LIMIT 1"})");
  }

  /// Occupies one worker per client with an idle keep-alive connection
  /// (one answered request, then silence).
  void PinWorkers(int n, std::vector<std::unique_ptr<HttpClient>>* pinned) {
    for (int i = 0; i < n; ++i) {
      auto client = std::make_unique<HttpClient>("127.0.0.1", port_);
      auto response = client->Get("/healthz");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.ValueUnsafe().status, 200);
      pinned->push_back(std::move(client));
    }
  }

  int port_ = 0;
  std::shared_ptr<std::atomic<int64_t>> search_delay_us_ =
      std::make_shared<std::atomic<int64_t>>(0);
  std::unique_ptr<LakeServer> server_;
  std::unique_ptr<LakeServer> backend_;
  std::unique_ptr<cluster::Router> router_;
};

TEST_P(FrontEndDrainTest, RequestBytesInKernelBufferAreServed) {
  // The "no request dropped mid-body" contract, attacked directly:
  // with every worker pinned by an idle keep-alive connection, the
  // requests below are accepted but queued, their bytes sitting in the
  // kernel buffer when Stop() begins. Each must still get an answer —
  // 200, or a clean 503 "shutting down" — never a severed connection.
  constexpr int kWorkers = 2;
  StartFrontEnd(kWorkers, /*drain_deadline_ms=*/5000);
  std::vector<std::unique_ptr<HttpClient>> pinned;
  PinWorkers(kWorkers, &pinned);

  constexpr int kQueued = 4;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  std::atomic<int> refused{0};
  std::atomic<int> dropped{0};
  for (int i = 0; i < kQueued; ++i) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", port_);
      client.set_timeout_ms(8000);
      auto response = client.Get("/v1/models");
      if (!response.ok()) {
        dropped.fetch_add(1);
      } else if (response.ValueUnsafe().status == 200) {
        answered.fetch_add(1);
      } else if (response.ValueUnsafe().status == 503) {
        refused.fetch_add(1);
      }
    });
  }
  // Let the requests land in socket buffers, then shut down.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(StopFrontEnd().ok());
  for (auto& t : clients) t.join();

  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(answered.load() + refused.load(), kQueued);
}

TEST_P(FrontEndDrainTest, NewConnectionsRefusedWhileDraining) {
  constexpr int kWorkers = 2;
  StartFrontEnd(kWorkers, /*drain_deadline_ms=*/3000);
  // One worker idles on a keep-alive connection; the other holds the
  // drain open with a slow request, so we can probe mid-drain.
  std::vector<std::unique_ptr<HttpClient>> pinned;
  PinWorkers(kWorkers - 1, &pinned);
  std::thread sleeper([&] {
    HttpClient client("127.0.0.1", port_);
    client.set_timeout_ms(8000);
    (void)SlowRequest(&client, 800);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  std::thread stopper([&] { ASSERT_TRUE(StopFrontEnd().ok()); });
  // Wait for the drain flag, then try to connect fresh.
  while (!Draining()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  HttpClient late("127.0.0.1", port_);
  late.set_timeout_ms(2000);
  auto response = late.Get("/healthz");
  // Either the listener is already gone (connect refused -> error) or,
  // if a race admitted us, the answer is a clean 503 — never a hang.
  if (response.ok()) {
    EXPECT_EQ(response.ValueUnsafe().status, 503);
  }

  stopper.join();
  sleeper.join();
}

INSTANTIATE_TEST_SUITE_P(
    BothFrontEnds, FrontEndDrainTest,
    ::testing::Values(FrontEnd::kLakeServer, FrontEnd::kRouter),
    [](const ::testing::TestParamInfo<FrontEnd>& info) {
      return info.param == FrontEnd::kLakeServer ? "LakeServer" : "Router";
    });

}  // namespace
}  // namespace mlake::server
