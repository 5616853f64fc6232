// End-to-end server tests over loopback: protocol error handling on a real
// socket, the stats endpoint, and hot reload under concurrent load (the
// no-torn-snapshot / monotonic-generation guarantees).
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.hpp"
#include "trace/atomic_io.hpp"
#include "trace/json.hpp"

namespace sss::serve {
namespace {

namespace fs = std::filesystem;

// A hand-built SSS1 header: magic, version, type and payload length, each
// little-endian.  Lets a test send headers the encoder never writes.
std::string header(int version, std::uint16_t type, std::uint32_t length) {
  std::string out;
  for (const auto& [value, bytes] : {std::pair<std::uint64_t, int>{kMagic, 4},
                                     {static_cast<std::uint64_t>(version), 2},
                                     {type, 2},
                                     {length, 4}}) {
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
  }
  return out;
}

std::string report_text(const std::string& facility, double sss_at_operating) {
  trace::JsonValue report = trace::JsonValue::object();
  report["format"] = trace::JsonValue("sss.calibration-report/1");
  report["facility"] = trace::JsonValue(facility);
  trace::JsonValue params = trace::JsonValue::object();
  params["alpha"] = trace::JsonValue(0.85);
  params["theta"] = trace::JsonValue(1.25);
  params["bandwidth_bytes_per_s"] = trace::JsonValue(3.125e9);
  params["s_unit_bytes"] = trace::JsonValue(5.0e8);
  params["complexity_flop_per_byte"] = trace::JsonValue(1.0);
  params["r_local_flop_per_s"] = trace::JsonValue(1.0e12);
  params["r_remote_flop_per_s"] = trace::JsonValue(1.0e13);
  report["model_parameters"] = params;
  report["operating_utilization"] = trace::JsonValue(0.64);
  trace::JsonValue profile = trace::JsonValue::array();
  trace::JsonValue point = trace::JsonValue::object();
  point["utilization"] = trace::JsonValue(0.64);
  point["sss"] = trace::JsonValue(sss_at_operating);
  point["t_worst_s"] = trace::JsonValue(sss_at_operating * 0.16);
  point["t_theoretical_s"] = trace::JsonValue(0.16);
  point["t_mean_s"] = trace::JsonValue(0.2);
  point["t_io_s"] = trace::JsonValue(0.0);
  profile.push_back(point);
  report["profile"] = profile;
  return report.dump(2) + "\n";
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sss_server_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  DecideServer& start_server(int workers = 1) {
    ServerConfig config;
    config.profile_dir = dir_.string();
    config.workers = workers;
    server_ = std::make_unique<DecideServer>(config);
    server_->start();
    return *server_;
  }

  fs::path dir_;
  std::unique_ptr<DecideServer> server_;
};

TEST_F(ServerTest, AnswersDecideOverLoopback) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  DecideClient client("127.0.0.1", server.port());
  DecideRequest request;
  request.facility = "aps";
  const DecideResponse response = client.decide(request);
  EXPECT_EQ(response.status, 0u);
  EXPECT_EQ(response.profile_generation, 1u);
  EXPECT_DOUBLE_EQ(response.sss, 3.6);
}

TEST_F(ServerTest, UnknownFacilityKeepsConnectionOpen) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  DecideClient client("127.0.0.1", server.port());
  DecideRequest request;
  request.facility = "nope";
  EXPECT_EQ(client.decide(request).status,
            static_cast<std::uint32_t>(ErrorCode::kUnknownFacility));
  // Request-level error: the SAME connection must still answer.
  request.facility = "aps";
  EXPECT_EQ(client.decide(request).status, 0u);
}

TEST_F(ServerTest, VersionMismatchAnswersCleanErrorThenCloses) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  const int fd = connect_tcp("127.0.0.1", server.port(), /*nonblocking=*/false);
  const std::string wire =
      header(kProtocolVersion + 7, static_cast<std::uint16_t>(MessageType::kStatsRequest), 0);
  send_all(fd, wire);

  FrameReader reader;
  const auto frame = recv_frame(fd, reader);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->header.type, static_cast<std::uint16_t>(MessageType::kErrorResponse));
  const auto error = decode_error_response(frame->payload, frame->payload_size);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kUnsupportedVersion);
  // Fatal: the server closes after answering.
  EXPECT_FALSE(recv_frame(fd, reader).has_value());
  ::close(fd);
}

TEST_F(ServerTest, WrongPayloadLengthAnswersBadLengthThenCloses) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  const int fd = connect_tcp("127.0.0.1", server.port(), /*nonblocking=*/false);
  // Decide payloads are exactly kDecideRequestSize.
  std::string wire =
      header(kProtocolVersion, static_cast<std::uint16_t>(MessageType::kDecideRequest), 10);
  wire.append(10, '\0');
  send_all(fd, wire);

  FrameReader reader;
  const auto frame = recv_frame(fd, reader);
  ASSERT_TRUE(frame.has_value());
  const auto error = decode_error_response(frame->payload, frame->payload_size);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kBadLength);
  EXPECT_FALSE(recv_frame(fd, reader).has_value());
  ::close(fd);
}

TEST_F(ServerTest, UnknownMessageTypeAnswersBadTypeThenCloses) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  const int fd = connect_tcp("127.0.0.1", server.port(), /*nonblocking=*/false);
  const std::string wire = header(kProtocolVersion, 99, 0);
  send_all(fd, wire);

  FrameReader reader;
  const auto frame = recv_frame(fd, reader);
  ASSERT_TRUE(frame.has_value());
  const auto error = decode_error_response(frame->payload, frame->payload_size);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kBadType);
  EXPECT_FALSE(recv_frame(fd, reader).has_value());
  ::close(fd);
}

TEST_F(ServerTest, StatsEndpointReportsCountersAsJson) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  DecideClient client("127.0.0.1", server.port());
  DecideRequest request;
  request.facility = "aps";
  for (int i = 0; i < 5; ++i) (void)client.decide(request);

  const trace::JsonValue stats = trace::JsonValue::parse(client.stats());
  EXPECT_EQ(stats.find("format")->as_string(), "sss.serve-stats/1");
  EXPECT_EQ(stats.find("generation")->as_double(), 1.0);
  EXPECT_EQ(stats.find("reloads")->as_double(), 0.0);
  ASSERT_NE(stats.find("profiles"), nullptr);
  EXPECT_EQ(stats.find("profiles")->as_array().size(), 1u);
  const trace::JsonValue& totals = *stats.find("totals");
  EXPECT_GE(totals.find("decides")->as_double(), 5.0);
  ASSERT_NE(stats.find("workers"), nullptr);
  EXPECT_EQ(static_cast<int>(stats.find("workers")->as_array().size()),
            server.worker_count());
}

TEST_F(ServerTest, EmptyProfileDirServesEmptySnapshotUntilReload) {
  DecideServer& server = start_server();

  DecideClient client("127.0.0.1", server.port());
  DecideRequest request;
  request.facility = "aps";
  EXPECT_EQ(client.decide(request).status,
            static_cast<std::uint32_t>(ErrorCode::kEmptySnapshot));

  // calibrate finishes later, SIGHUP lands: the running connection sees the
  // new profiles on its next request.
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  EXPECT_EQ(server.reload(), 2u);
  const DecideResponse response = client.decide(request);
  EXPECT_EQ(response.status, 0u);
  EXPECT_EQ(response.profile_generation, 2u);
}

TEST_F(ServerTest, ReloadFailureKeepsOldSnapshotServing) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  trace::write_text_file_atomic((dir_ / "broken.json").string(), "{oops\n");
  EXPECT_THROW((void)server.reload(), std::runtime_error);
  EXPECT_EQ(server.reload_errors(), 1u);

  DecideClient client("127.0.0.1", server.port());
  DecideRequest request;
  request.facility = "aps";
  const DecideResponse response = client.decide(request);
  EXPECT_EQ(response.status, 0u);
  EXPECT_EQ(response.profile_generation, 1u);  // old snapshot still current
}

TEST_F(ServerTest, HotReloadUnderLoadLosesNothingAndGenerationIsMonotonic) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server();

  constexpr int kClientThreads = 2;
  constexpr int kRequestsPerClient = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      try {
        DecideClient client("127.0.0.1", server.port());
        DecideRequest request;
        request.facility = "aps";
        std::uint64_t last_generation = 0;
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const DecideResponse response = client.decide(request);
          if (response.status != 0) {
            ADD_FAILURE() << "client " << t << " request " << i << " status "
                          << response.status;
            failed = true;
            return;
          }
          // A reload must never be observed going backwards.
          if (response.profile_generation < last_generation) {
            ADD_FAILURE() << "generation regressed: " << last_generation << " -> "
                          << response.profile_generation;
            failed = true;
            return;
          }
          last_generation = response.profile_generation;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << t << " died: " << e.what();
        failed = true;
      }
    });
  }

  // Reload continuously while the clients hammer, alternating the profile
  // contents so a torn snapshot would be observable.
  int reloads = 0;
  while (!failed && reloads < 25) {
    trace::write_text_file_atomic((dir_ / "aps.json").string(),
                                  report_text("aps", reloads % 2 == 0 ? 4.2 : 3.6));
    ASSERT_NO_THROW((void)server.reload());
    ++reloads;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_FALSE(failed);
  EXPECT_EQ(server.registry().generation(), static_cast<std::uint64_t>(1 + reloads));
  // Zero lost requests: every decide got a zero-status answer (asserted
  // in-thread), and the server's own counters agree.
  const trace::JsonValue stats = trace::JsonValue::parse(server.stats_json());
  EXPECT_GE(stats.find("totals")->find("decides")->as_double(),
            static_cast<double>(kClientThreads * kRequestsPerClient));
  EXPECT_EQ(stats.find("totals")->find("protocol_errors")->as_double(), 0.0);
}

TEST_F(ServerTest, StopIsIdempotentAndStartupIsClean) {
  trace::write_text_file_atomic((dir_ / "aps.json").string(), report_text("aps", 3.6));
  DecideServer& server = start_server(2);
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.worker_count(), 2);
  server.stop();
  server.stop();
}

TEST(ProfileDirWatcherTest, FirstScanPrimesThenDetectsChanges) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("sss_watcher_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  trace::write_text_file_atomic((dir / "a.json").string(), "{}\n");

  ProfileDirWatcher watcher(dir.string());
  EXPECT_FALSE(watcher.changed());  // priming scan

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  trace::write_text_file_atomic((dir / "b.json").string(), "{}\n");
  EXPECT_TRUE(watcher.changed());
  EXPECT_FALSE(watcher.changed());  // stable again

  fs::remove(dir / "a.json");
  EXPECT_TRUE(watcher.changed());

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace sss::serve
