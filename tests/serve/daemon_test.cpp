// ServeDaemon end-to-end over a real AF_UNIX socket: NDJSON round trips,
// the HTTP /metrics shim, malformed-line recovery, and the three shutdown
// paths (client "shutdown" verb, stop(), signal-safe requestStop()).
//
// Socket paths are relative to the test working directory (the build tree),
// which keeps them far below the sockaddr_un limit; the daemon unlinks any
// stale file before binding, so reruns after a crash are safe.
#include "mcsim/serve/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mcsim/serve/client.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/runner/jobs.hpp"

namespace mcsim::serve {
namespace {

json::JsonValue makeSubmit(const std::vector<int>& procs) {
  json::JsonArray scenarios;
  for (int p : procs) {
    json::JsonObject s;
    s["processors"] = p;
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  json::JsonObject request;
  request["workflow"] = std::string("montage:0.2");
  request["scenarios"] = std::move(scenarios);
  json::JsonObject verb;
  verb["verb"] = std::string("submit");
  verb["request"] = std::move(request);
  return json::JsonValue(std::move(verb));
}

std::string batchGolden(const std::vector<int>& procs,
                        const cloud::Pricing& pricing) {
  const dag::Workflow wf = loadWorkflowSpec("montage:0.2");
  std::vector<runner::ScenarioSpec> specs;
  for (int p : procs) {
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = p;
    specs.push_back(spec);
  }
  return json::dumpJson(
      scenarioResultsToJson(runner::runOnQueue(nullptr, specs), pricing));
}

/// A raw client socket, with no ServeClient in the way.
int connectRaw(const std::string& socketPath) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socketPath.c_str(),
               sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void sendLine(int fd, const std::string& line) {
  const std::string payload = line + "\n";
  EXPECT_EQ(::write(fd, payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
}

std::string readLine(int fd) {
  std::string reply;
  char ch = 0;
  while (::read(fd, &ch, 1) == 1 && ch != '\n') reply.push_back(ch);
  return reply;
}

/// Send one raw line (no client-side JSON validation) and read one reply
/// line back — for exercising the daemon's parse-error path.
std::string rawExchange(const std::string& socketPath,
                        const std::string& line) {
  const int fd = connectRaw(socketPath);
  sendLine(fd, line);
  std::string reply = readLine(fd);
  ::close(fd);
  return reply;
}

TEST(ServeDaemon, SubmitResultRoundTripMatchesBatchGolden) {
  ServeDaemon daemon({.socketPath = "daemon_test_roundtrip.sock",
                      .service = {.workers = 2}});
  daemon.start();

  ServeClient client(daemon.socketPath());
  const std::vector<int> procs = {1, 4};
  const json::JsonValue submitted = client.call(makeSubmit(procs));
  ASSERT_TRUE(submitted.at("ok").asBool());

  json::JsonObject result;
  result["verb"] = std::string("result");
  result["job"] = submitted.at("job").asNumber();
  const json::JsonValue reply = client.call(json::JsonValue(result));
  ASSERT_TRUE(reply.at("ok").asBool());
  EXPECT_EQ(reply.at("state").asString(), "completed");
  EXPECT_EQ(json::dumpJson(reply.at("results")),
            batchGolden(procs, daemon.service().options().pricing));
}

TEST(ServeDaemon, MetricsMountedAsHttpEndpoint) {
  ServeDaemon daemon({.socketPath = "daemon_test_metrics.sock",
                      .service = {.workers = 1}});
  daemon.start();

  ServeClient client(daemon.socketPath());
  const json::JsonValue submitted = client.call(makeSubmit({1}));
  ASSERT_TRUE(submitted.at("ok").asBool());
  json::JsonObject result;
  result["verb"] = std::string("result");
  result["job"] = submitted.at("job").asNumber();
  ASSERT_TRUE(client.call(json::JsonValue(result)).at("ok").asBool());

  const std::string text = fetchMetrics(daemon.socketPath());
  EXPECT_NE(text.find("# TYPE mcsim_jobs_submitted_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_jobs_submitted_total 1"), std::string::npos);
  EXPECT_NE(text.find("mcsim_cache_entries"), std::string::npos);
}

TEST(ServeDaemon, ParseErrorGetsReplyAndConnectionSurvives) {
  ServeDaemon daemon({.socketPath = "daemon_test_parse.sock",
                      .service = {.workers = 0}});
  daemon.start();

  const std::string reply =
      rawExchange(daemon.socketPath(), "this is not json");
  const json::JsonValue parsed = json::parseJson(reply);
  EXPECT_FALSE(parsed.at("ok").asBool());
  EXPECT_NE(parsed.at("error").asString().find("parse error"),
            std::string::npos);

  // 50 000 nested arrays used to overflow the parser's stack and take the
  // whole daemon down; now the line gets a refusal naming the nesting.
  const json::JsonValue deep = json::parseJson(
      rawExchange(daemon.socketPath(), std::string(50000, '[')));
  EXPECT_FALSE(deep.at("ok").asBool());
  EXPECT_NE(deep.at("error").asString().find("nesting deeper than 256"),
            std::string::npos);

  // The daemon is still healthy: a fresh client can ping.
  ServeClient client(daemon.socketPath());
  json::JsonObject ping;
  ping["verb"] = std::string("ping");
  EXPECT_TRUE(client.call(json::JsonValue(ping)).at("ok").asBool());
}

TEST(ServeDaemon, ClientHangingUpBeforeItsReplyLeavesDaemonUp) {
  // Writing a reply into a socket whose peer is gone must cost the daemon
  // an EPIPE, not a SIGPIPE that kills the whole process.
  ServeDaemon daemon({.socketPath = "daemon_test_hangup.sock",
                      .service = {.workers = 2}});
  daemon.start();

  json::JsonArray scenarios;
  for (int p : {1, 2, 4, 8, 16, 32, 64, 128}) {
    json::JsonObject s;
    s["processors"] = p;
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  json::JsonObject request;
  request["workflow"] = std::string("montage:4");
  request["scenarios"] = std::move(scenarios);
  json::JsonObject submit;
  submit["verb"] = std::string("submit");
  submit["request"] = std::move(request);

  const int fd = connectRaw(daemon.socketPath());
  sendLine(fd, json::dumpJson(json::JsonValue(std::move(submit))));
  const json::JsonValue accepted = json::parseJson(readLine(fd));
  ASSERT_TRUE(accepted.at("ok").asBool());
  const double job = accepted.at("job").asNumber();
  json::JsonObject result;
  result["verb"] = std::string("result");
  result["job"] = job;
  sendLine(fd, json::dumpJson(json::JsonValue(std::move(result))));
  ::close(fd);  // hang up while the ladder is still simulating

  // Once the job is retired its reply is being written into the dead
  // socket; give that write a moment, then the daemon must still answer.
  ServeClient client(daemon.socketPath());
  json::JsonObject status;
  status["verb"] = std::string("status");
  status["job"] = job;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (client.call(json::JsonValue(status)).at("ok").asBool() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  json::JsonObject ping;
  ping["verb"] = std::string("ping");
  EXPECT_TRUE(client.call(json::JsonValue(ping)).at("ok").asBool());
  EXPECT_TRUE(ServeClient(daemon.socketPath())
                  .call(json::JsonValue(ping))
                  .at("ok")
                  .asBool());
}

TEST(ServeDaemon, ShutdownVerbIsAcknowledgedThenStopsDaemon) {
  ServeDaemon daemon({.socketPath = "daemon_test_shutdown.sock",
                      .service = {.workers = 1}});
  daemon.start();

  ServeClient client(daemon.socketPath());
  // A shutdown the service refuses (its envelope takes no "job") leaves
  // the daemon up.
  json::JsonObject refused;
  refused["verb"] = std::string("shutdown");
  refused["job"] = 1;
  EXPECT_FALSE(client.call(json::JsonValue(refused)).at("ok").asBool());
  json::JsonObject ping;
  ping["verb"] = std::string("ping");
  EXPECT_TRUE(client.call(json::JsonValue(ping)).at("ok").asBool());
  EXPECT_TRUE(daemon.running());

  json::JsonObject shutdown;
  shutdown["verb"] = std::string("shutdown");
  const json::JsonValue reply = client.call(json::JsonValue(shutdown));
  EXPECT_TRUE(reply.at("ok").asBool());
  EXPECT_TRUE(reply.at("shutting_down").asBool());

  daemon.wait();  // returns because the verb triggered requestStop()
  EXPECT_FALSE(daemon.running());
}

TEST(ServeDaemon, RequestStopUnblocksWait) {
  // The CLI's SIGTERM handler body: requestStop() from another thread while
  // wait() blocks must bring the daemon down cleanly.
  ServeDaemon daemon({.socketPath = "daemon_test_sigterm.sock",
                      .service = {.workers = 1}});
  daemon.start();
  EXPECT_TRUE(daemon.running());

  std::thread signaller([&] { daemon.requestStop(); });
  daemon.wait();
  signaller.join();
  EXPECT_FALSE(daemon.running());
}

}  // namespace
}  // namespace mcsim::serve
