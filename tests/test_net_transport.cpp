// TCP transport of the process fleet (service/net_transport.hpp): the
// socket layer in isolation, the worker binary's command line, then the
// dialed fleet — pre-started `unigen_workerd --listen` servers on loopback
// that the supervisor dials instead of spawning, one worker per endpoint.
//
// The load-bearing claim is the same one the socketpair fleet makes: the
// transport is invisible in the bytes.  Counts and sample/batch streams
// over a TCP fleet must equal the in-process pool's exactly, at every
// worker count, with and without killed connections — because a task is a
// pure function of its frame and the frames don't change, only the pipe
// they ride.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/unigen.hpp"
#include "counting/approxmc.hpp"
#include "helpers.hpp"
#include "obs/trace.hpp"
#include "service/ipc.hpp"
#include "service/net_transport.hpp"
#include "service/process_fleet.hpp"
#include "service/sampler_pool.hpp"
#include "util/timer.hpp"

namespace unigen {
namespace {

// ---- socket layer -----------------------------------------------------

TEST(Endpoint, ParseAccepts) {
  net::Endpoint e;
  ASSERT_TRUE(net::parse_endpoint("127.0.0.1:8080", e));
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 8080);
  ASSERT_TRUE(net::parse_endpoint("example.com:1", e));
  EXPECT_EQ(e.host, "example.com");
  EXPECT_EQ(e.port, 1);
  ASSERT_TRUE(net::parse_endpoint("[::1]:65535", e));
  EXPECT_EQ(e.host, "::1");
  EXPECT_EQ(e.port, 65535);
  ASSERT_TRUE(net::parse_endpoint("localhost:0", e));
  EXPECT_EQ(e.port, 0);
}

TEST(Endpoint, ParseRejects) {
  net::Endpoint e;
  EXPECT_FALSE(net::parse_endpoint("", e));
  EXPECT_FALSE(net::parse_endpoint("nohost", e));
  EXPECT_FALSE(net::parse_endpoint(":8080", e));          // empty host
  EXPECT_FALSE(net::parse_endpoint("host:", e));          // empty port
  EXPECT_FALSE(net::parse_endpoint("host:abc", e));       // non-numeric
  EXPECT_FALSE(net::parse_endpoint("host:12ab", e));
  EXPECT_FALSE(net::parse_endpoint("host:65536", e));     // > u16
  EXPECT_FALSE(net::parse_endpoint("host:-1", e));
  EXPECT_FALSE(net::parse_endpoint("[]:80", e));          // empty brackets
}

TEST(Endpoint, ToStringBracketsIpv6) {
  EXPECT_EQ(net::to_string({"127.0.0.1", 80}), "127.0.0.1:80");
  EXPECT_EQ(net::to_string({"::1", 80}), "[::1]:80");
  // Round trip through the parser.
  net::Endpoint e;
  ASSERT_TRUE(net::parse_endpoint(net::to_string({"::1", 443}), e));
  EXPECT_EQ(e.host, "::1");
  EXPECT_EQ(e.port, 443);
}

TEST(TcpListener, EphemeralBindReportsRealPort) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.listen("127.0.0.1", 0));
  EXPECT_TRUE(listener.listening());
  EXPECT_NE(listener.endpoint().port, 0) << "port 0 must resolve ephemeral";
  EXPECT_EQ(listener.endpoint().host, "127.0.0.1");
}

TEST(TcpListener, AcceptTimesOutPromptly) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.listen("127.0.0.1", 0));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(listener.accept(0.1), -1);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(s, 5.0) << "accept with no dialer must cost ~the deadline";
}

TEST(TcpConnect, RefusedPortFailsWithinDeadline) {
  // Bind-then-close guarantees a port nobody is listening on right now.
  std::uint16_t dead_port;
  {
    net::TcpListener listener;
    ASSERT_TRUE(listener.listen("127.0.0.1", 0));
    dead_port = listener.endpoint().port;
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(net::tcp_connect({"127.0.0.1", dead_port}, 2.0), -1);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(s, 10.0);
}

TEST(TcpConnect, FramesRoundTripOverRealSockets) {
  // The ipc layer is fd-agnostic; prove it over an actual TCP pair,
  // both directions, including the bounded write path.
  net::TcpListener listener;
  ASSERT_TRUE(listener.listen("127.0.0.1", 0));
  const int client = net::tcp_connect(listener.endpoint(), 5.0);
  ASSERT_GE(client, 0);
  const int server = listener.accept(5.0);
  ASSERT_GE(server, 0);

  EXPECT_EQ(ipc::write_frame_bounded(client, ipc::FrameType::kSetup,
                                     "over-tcp", 5.0),
            ipc::WriteOutcome::kOk);
  // One frame reader per socket end.
  ipc::FrameReader server_reader;
  ipc::FrameReader client_reader;
  ipc::FrameType type;
  std::string body;
  EXPECT_EQ(ipc::read_frame(server, server_reader, type, body),
            ipc::ReadOutcome::kFrame);
  EXPECT_EQ(type, ipc::FrameType::kSetup);
  EXPECT_EQ(body, "over-tcp");

  ASSERT_EQ(ipc::write_frame_bounded(server, ipc::FrameType::kReady, "", 0),
            ipc::WriteOutcome::kOk);
  EXPECT_EQ(ipc::read_frame(client, client_reader, type, body),
            ipc::ReadOutcome::kFrame);
  EXPECT_EQ(type, ipc::FrameType::kReady);

  ::close(client);
  EXPECT_EQ(ipc::read_frame(server, server_reader, type, body),
            ipc::ReadOutcome::kEof);
  ::close(server);
}

// ---- the worker binary ------------------------------------------------

std::string workerd_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return {};
  return path.substr(0, slash + 1) + "unigen_workerd";
}

/// Runs unigen_workerd with `args` and returns its exit code, with what it
/// wrote to stderr in `err`; -1 if it had not exited within 5 s (it is
/// then killed).
int run_workerd(const std::vector<std::string>& args, std::string& err) {
  const std::string path = workerd_binary();
  std::vector<char*> argv{const_cast<char*>(path.c_str())};
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], 2);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(path.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  int status = 0;
  bool exited = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!exited && std::chrono::steady_clock::now() < give_up) {
    exited = ::waitpid(pid, &status, WNOHANG) == pid;
    if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  char buf[512];
  ssize_t n;
  while ((n = ::read(pipe_fds[0], buf, sizeof(buf))) > 0)
    err.append(buf, static_cast<std::size_t>(n));
  ::close(pipe_fds[0]);
  return exited && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Workerd, RejectsArgumentsItDoesNotKnow) {
  // Anything but `--fd N` or `--listen host:port` is a usage error: the
  // worker must not fall through to serving an fd nobody handed it.
  const std::vector<std::vector<std::string>> bad = {
      {"--bogus"},
      {"--listen"},
      {"--" "connect", "127.0.0.1:1"},  // the removed dial-back flag
      {"--fd"},
      {"--fd", "3x"},
      {"--listen", "no-port"},
      {"--fd", "3", "--listen", "127.0.0.1:0"},
      {}};
  for (const auto& args : bad) {
    std::string joined;
    for (const std::string& a : args) joined += a + " ";
    std::string err;
    EXPECT_EQ(run_workerd(args, err), 3) << joined;
    EXPECT_NE(err.find("usage: unigen_workerd"), std::string::npos) << joined;
  }
}

// ---- dialed fleet -----------------------------------------------------

SamplerPoolOptions inproc_pool_options(std::size_t threads,
                                       std::uint64_t seed) {
  SamplerPoolOptions o;
  o.num_threads = threads;
  o.seed = seed;
  return o;
}

/// A pool whose sampling fan-out dials `endpoints` — the only fleet
/// options a dialed fleet needs.
SamplerPoolOptions dialed_pool_options(std::size_t threads, std::uint64_t seed,
                                       std::vector<std::string> endpoints) {
  SamplerPoolOptions o = inproc_pool_options(threads, seed);
  o.unigen.fleet.backend = ExecBackend::kProcessFleet;
  o.unigen.fleet.endpoints = std::move(endpoints);
  return o;
}

void expect_same_results(const std::vector<SampleResult>& a,
                         const std::vector<SampleResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "request " << i;
    EXPECT_EQ(a[i].witness, b[i].witness) << "request " << i;
  }
}

/// A pre-started `unigen_workerd --listen 127.0.0.1:0` server — the thing
/// an operator would run on another host.  The ephemeral port is scraped
/// from the "unigen_workerd listening HOST:PORT" line on its stdout.
struct RemoteWorkerd {
  pid_t pid = -1;
  net::Endpoint endpoint;

  RemoteWorkerd() = default;
  RemoteWorkerd(const RemoteWorkerd&) = delete;
  RemoteWorkerd& operator=(const RemoteWorkerd&) = delete;

  /// The server sees this process's environment with its UNIGEN_WORKERD_*
  /// settings replaced by `env` ("NAME=value" entries): a real server
  /// starts with its own.
  bool start(const std::vector<std::string>& env = {}) {
    std::vector<std::string> vars;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "UNIGEN_WORKERD_", 15) != 0) vars.emplace_back(*e);
    vars.insert(vars.end(), env.begin(), env.end());
    std::vector<char*> envp;
    for (std::string& v : vars) envp.push_back(v.data());
    envp.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) return false;
    const std::string path = workerd_binary();
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(out[1], 1);
      ::close(out[0]);
      ::close(out[1]);
      ::execle(path.c_str(), path.c_str(), "--listen", "127.0.0.1:0",
               static_cast<char*>(nullptr), envp.data());
      _exit(127);
    }
    ::close(out[1]);
    FILE* f = ::fdopen(out[0], "r");
    char line[256] = {0};
    const bool got = f != nullptr && std::fgets(line, sizeof(line), f);
    if (f != nullptr) std::fclose(f);  // worker keeps running; we just
                                       // stop listening to its stdout
    if (!got) return false;
    const char* marker = std::strstr(line, "listening ");
    if (marker == nullptr) return false;
    std::string ep_text(marker + std::strlen("listening "));
    while (!ep_text.empty() &&
           (ep_text.back() == '\n' || ep_text.back() == '\r'))
      ep_text.pop_back();
    return net::parse_endpoint(ep_text, endpoint);
  }
  void kill_server() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
  ~RemoteWorkerd() { kill_server(); }
};

/// `n` servers started with the same `env`, and their endpoints.
struct Servers {
  std::deque<RemoteWorkerd> servers;
  std::vector<std::string> endpoints;

  bool start(std::size_t n, const std::vector<std::string>& env = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      RemoteWorkerd& s = servers.emplace_back();
      if (!s.start(env)) return false;
      endpoints.push_back(net::to_string(s.endpoint));
    }
    return true;
  }
};

TEST(TcpFleet, CountMatchesInProcessAcrossWorkerCounts) {
  const Cnf cnf = test::hashed_mode_formula();
  ApproxMcOptions base;
  Rng ref_rng(4242);
  const ApproxMcResult reference = approx_count(cnf, base, ref_rng);
  ASSERT_TRUE(reference.valid);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Servers servers;
    ASSERT_TRUE(servers.start(workers));
    ApproxMcOptions o = base;
    o.fleet.backend = ExecBackend::kProcessFleet;
    o.fleet.endpoints = servers.endpoints;
    Rng rng(4242);
    const ApproxMcResult got = approx_count(cnf, o, rng);
    ASSERT_TRUE(got.valid) << workers << " workers";
    EXPECT_EQ(got.cell_count, reference.cell_count) << workers << " workers";
    EXPECT_EQ(got.hash_count, reference.hash_count) << workers << " workers";
  }
}

TEST(TcpFleet, SampleStreamsMatchInProcessPool) {
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kRequests = 24;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(kRequests);
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Servers servers;
    ASSERT_TRUE(servers.start(workers));
    SamplerPool pool(cnf, dialed_pool_options(2, kSeed, servers.endpoints));
    ASSERT_TRUE(pool.prepare());
    ASSERT_NE(pool.fleet(), nullptr)
        << "dialed fleet should come up at " << workers << " workers";
    EXPECT_EQ(pool.fleet()->num_workers(), workers);
    const auto got = pool.sample_many(kRequests);
    expect_same_results(reference, got);
    EXPECT_GE(pool.fleet()->stats().dials, workers);
  }
}

TEST(TcpFleet, KilledConnectionRetriesByteIdentically) {
  // A `kill` ends the whole server process, so each planned kill costs one
  // server for good: start one more than the plan has kills.
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 31;
  constexpr std::size_t kRequests = 12;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(kRequests);
  }
  Servers servers;
  ASSERT_TRUE(servers.start(
      3, {"UNIGEN_WORKERD_FAULTS=" +
          ProcessFaultPlan().kill_task(2).kill_task(7).to_env()}));
  SamplerPool pool(cnf, dialed_pool_options(2, kSeed, servers.endpoints));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto got = pool.sample_many(kRequests);
  expect_same_results(reference, got);
  const FleetStats& fs = pool.fleet()->stats();
  EXPECT_GE(fs.crashes, 2u);
  EXPECT_GE(fs.redispatches, 2u);
  EXPECT_EQ(fs.poisoned_tasks, 0u);
}

TEST(TcpFleet, BatchStreamsMatchSocketpairFleet) {
  // Three-way identity: in-process pool, socketpair fleet, dialed fleet —
  // the exact acceptance gate, on the batch path.
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 88;
  std::vector<BatchResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_batches(6, 5);
  }
  auto run_fleet = [&](const std::vector<std::string>& endpoints) {
    SamplerPoolOptions o = dialed_pool_options(2, kSeed, endpoints);
    o.unigen.fleet.num_workers = 2;
    SamplerPool pool(cnf, o);
    EXPECT_TRUE(pool.prepare());
    EXPECT_NE(pool.fleet(), nullptr);
    return pool.sample_batches(6, 5);
  };
  Servers servers;
  ASSERT_TRUE(servers.start(2));
  const auto socketpair_out = run_fleet({});
  const auto tcp_out = run_fleet(servers.endpoints);
  ASSERT_EQ(socketpair_out.size(), reference.size());
  ASSERT_EQ(tcp_out.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(socketpair_out[i].models, reference[i].models) << i;
    EXPECT_EQ(tcp_out[i].models, reference[i].models) << i;
    EXPECT_EQ(tcp_out[i].status, reference[i].status) << i;
  }
}

TEST(TcpFleet, EndpointsAloneSelectTheDialedFleet) {
  // backend + endpoints is the whole configuration: no mode switch beside
  // the endpoint list, so nothing is spawned and every worker is dialed.
  RemoteWorkerd server;
  ASSERT_TRUE(server.start());
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 404;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(8);
  }
  SamplerPool pool(
      cnf, dialed_pool_options(2, kSeed, {net::to_string(server.endpoint)}));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  EXPECT_TRUE(pool.fleet()->worker_pids().empty())
      << "a dialed fleet has no local children";
  EXPECT_GE(pool.fleet()->stats().dials, 1u);
  expect_same_results(reference, pool.sample_many(8));
}

TEST(TcpFleet, OneWorkerPerEndpointWhateverNumWorkersSays) {
  // A --listen server serves one supervisor connection at a time, so a
  // second slot on the same endpoint could never get past Setup and would
  // be hang-killed every heartbeat_timeout_s.  num_workers is unused once
  // endpoints are set.
  RemoteWorkerd server;
  ASSERT_TRUE(server.start({"UNIGEN_WORKERD_HEARTBEAT_S=0.05"}));
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPoolOptions o =
      dialed_pool_options(2, 5, {net::to_string(server.endpoint)});
  o.unigen.fleet.num_workers = 2;
  o.unigen.fleet.heartbeat_timeout_s = 0.5;
  SamplerPool pool(cnf, o);
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  EXPECT_EQ(pool.fleet()->num_workers(), 1u);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t calls = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < 1.2) {
    for (const SampleResult& r : pool.sample_many(4))
      EXPECT_EQ(r.status, SampleResult::Status::kOk);
    ++calls;
  }
  EXPECT_GT(calls, 1u);
  EXPECT_EQ(pool.fleet()->stats().hang_kills, 0u);
  EXPECT_EQ(pool.fleet()->stats().crashes, 0u);
}

TEST(TcpFleet, ServersResetBetweenSupervisors) {
  // The serving loop resets per connection: a second fleet against the
  // same servers (fresh Setup) must come up and agree again.  Each server
  // serves one supervisor at a time, so the first pool must be gone (its
  // connections EOF'd) before the second can be accepted.
  Servers servers;
  ASSERT_TRUE(servers.start(2));
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kRequests = 16;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(kRequests);
  }
  const SamplerPoolOptions o = dialed_pool_options(2, kSeed, servers.endpoints);
  {
    SamplerPool pool(cnf, o);
    ASSERT_TRUE(pool.prepare());
    ASSERT_NE(pool.fleet(), nullptr);
    expect_same_results(reference, pool.sample_many(kRequests));
  }
  SamplerPool again(cnf, o);
  ASSERT_TRUE(again.prepare());
  ASSERT_NE(again.fleet(), nullptr);
  expect_same_results(reference, again.sample_many(kRequests));
}

TEST(TcpFleet, DeadServerSurvivedByTheOtherEndpoint) {
  RemoteWorkerd a, b;
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 61;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    pool.sample_many(6);
    reference = pool.sample_many(6);
  }
  SamplerPool pool(cnf, dialed_pool_options(2, kSeed,
                                            {net::to_string(a.endpoint),
                                             net::to_string(b.endpoint)}));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  const auto warm = pool.sample_many(6);
  ASSERT_EQ(warm.size(), 6u);
  // SIGKILL one server between calls — the supervisor sees EOF, re-dials
  // a dead port under backoff, and the survivor serves the whole next call
  // byte-identically.
  const Stopwatch since_kill;
  a.kill_server();
  const auto got = pool.sample_many(6);
  expect_same_results(reference, got);
  // Each failed re-dial waits one backoff step (0.02 s doubling), so 0.4 s
  // of calls spend at most 4 of the slot's 8 re-dials and leave it alive.
  while (since_kill.seconds() < 0.4) pool.sample_many(1);
  EXPECT_LE(pool.fleet()->stats().dial_failures, 4u);
}

TEST(TcpFleet, AllServersDeadDegradesGracefully) {
  // Endpoints that nobody listens on: start() must fail cleanly and the
  // pool must fall back in-process with identical bytes — the same
  // degradation contract as a missing worker binary.
  std::uint16_t dead_port;
  {
    net::TcpListener listener;
    ASSERT_TRUE(listener.listen("127.0.0.1", 0));
    dead_port = listener.endpoint().port;
  }
  const Cnf cnf = test::hashed_mode_formula();
  constexpr std::uint64_t kSeed = 123;
  std::vector<SampleResult> reference;
  {
    SamplerPool pool(cnf, inproc_pool_options(2, kSeed));
    reference = pool.sample_many(10);
  }
  SamplerPool pool(
      cnf, dialed_pool_options(2, kSeed,
                               {net::to_string({"127.0.0.1", dead_port})}));
  ASSERT_TRUE(pool.prepare());
  EXPECT_EQ(pool.fleet(), nullptr) << "dial failure must degrade, not hang";
  expect_same_results(reference, pool.sample_many(10));
}

TEST(TcpFleet, SpansArriveTaggedInTheRequestTrace) {
  // The trace contract must survive the wire change: spans recorded in a
  // never-spawned remote worker ship back over TCP inside the Result
  // frame, land in the request's single trace, and carry the REMOTE
  // process's pid and the attempt ordinal.
  RemoteWorkerd server;
  ASSERT_TRUE(server.start());
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(
      cnf, dialed_pool_options(2, 31, {net::to_string(server.endpoint)}));
  ASSERT_TRUE(pool.prepare());
  ASSERT_NE(pool.fleet(), nullptr);
  obs::clear_all();
  obs::set_enabled(true);
  const auto results = pool.sample_many(1);
  obs::set_enabled(false);
  ASSERT_EQ(results.size(), 1u);

  const auto events = obs::snapshot_events();
  obs::clear_all();
  ASSERT_FALSE(events.empty());
  std::set<std::uint64_t> traces;
  for (const auto& e : events) traces.insert(e.trace_id);
  EXPECT_EQ(traces.size(), 1u) << "one request, one trace — span fragments "
                                  "from the remote worker included";
  const auto worker_span = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.name == std::string("worker.task");
      });
  ASSERT_NE(worker_span, events.end()) << "remote worker's span must arrive";
  EXPECT_EQ(worker_span->worker, static_cast<std::uint32_t>(server.pid))
      << "span is tagged with the remote serving process's pid";
  EXPECT_EQ(worker_span->attempt, 1u);
}

TEST(TcpFleet, MalformedEndpointRejectedUpFront) {
  const Cnf cnf = test::hashed_mode_formula();
  SamplerPool pool(cnf, dialed_pool_options(2, 9, {"not-an-endpoint"}));
  ASSERT_TRUE(pool.prepare());
  EXPECT_EQ(pool.fleet(), nullptr);
  EXPECT_EQ(pool.sample_many(4).size(), 4u) << "in-process fallback serves";
}

}  // namespace
}  // namespace unigen
