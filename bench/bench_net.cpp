// bench_net — the TCP transport's byte-transparency contract, gated.
// Every TCP leg runs on pre-started `unigen_workerd --listen 127.0.0.1:0`
// servers that the supervisor dials (FleetOptions::endpoints; nothing is
// spawned, one worker per endpoint):
//
//   * three-way count identity: approx_count over dialed servers at 1/2/4
//     workers equals both the socketpair fleet and the in-process path
//     exactly (the keyed-stream determinism contract crossing the network
//     stack);
//   * three-way stream identity: a dialed SamplerPool's sample_many /
//     sample_batches streams byte-equal the socketpair fleet's and the
//     in-process pool's at every worker count;
//   * crash-run identity: servers started with a deterministic fault plan
//     that SIGKILLs them mid-task (one more server than the plan has
//     kills, since a kill ends the whole server) STILL serve byte-identical
//     streams — a killed connection costs one re-dispatched attempt, never
//     a changed byte — with zero poisoned tasks;
//   * remote identity: every dialed fleet is the multi-host shape — no
//     local child, one worker per endpoint — and each server serves the
//     whole sequence of supervisors in turn, resetting between them;
//   * clean hygiene: un-faulted TCP runs record zero crashes, zero
//     poisoned tasks, zero send stalls and zero protocol errors.
//
// The headline numbers are the TCP crash-recovery latencies and the
// wall-clock comparison across the three execution shapes, recorded in
// BENCH_net.json.  The identity gates are the trustworthy signal; the
// clocks are context.
//
// `--smoke` shrinks the request counts so the whole run fits in the tier-1
// ctest budget; every gate is identical in both modes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "counting/approxmc.hpp"
#include "service/net_transport.hpp"
#include "service/process_fleet.hpp"
#include "service/sampler_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace unigen;

constexpr std::uint64_t kSeed = 0xF1EE7DAC14ull;

struct Instance {
  std::string name;
  Cnf cnf;
};

/// Hashed-mode formulas (the workers actually solve) plus one easy case
/// (the transport must be byte-transparent on the exact path too).
std::vector<Instance> instances() {
  std::vector<Instance> out;
  {
    Cnf cnf(10);
    cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
    cnf.add_clause({Lit(3, false), Lit(4, true)});
    cnf.add_clause({Lit(5, false), Lit(6, false), Lit(7, true)});
    cnf.add_clause({Lit(8, false), Lit(9, false), Lit(0, true)});
    out.push_back({"hashed_a", std::move(cnf)});
  }
  {
    Cnf cnf(10);
    cnf.add_clause({Lit(0, false), Lit(1, false)});
    cnf.add_clause({Lit(2, false), Lit(3, false), Lit(4, false)});
    cnf.add_clause({Lit(5, true), Lit(6, false)});
    cnf.add_clause({Lit(7, false), Lit(8, false), Lit(9, true)});
    out.push_back({"hashed_b", std::move(cnf)});
  }
  {
    Cnf cnf(3);
    cnf.add_clause({Lit(0, false), Lit(1, false), Lit(2, false)});
    out.push_back({"trivial_c", std::move(cnf)});
  }
  return out;
}

/// In-process with no workers and no endpoints; else a fleet of `workers`
/// spawned children, or of one dialed worker per endpoint.
FleetOptions fleet_options(std::size_t workers,
                           std::vector<std::string> endpoints) {
  FleetOptions f;
  if (workers > 0 || !endpoints.empty()) {
    f.backend = ExecBackend::kProcessFleet;
    f.num_workers = workers;
    f.endpoints = std::move(endpoints);
  }
  return f;
}

bool same_samples(const std::vector<SampleResult>& a,
                  const std::vector<SampleResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].status != b[i].status || a[i].witness != b[i].witness)
      return false;
  return true;
}

bool same_batches(const std::vector<BatchResult>& a,
                  const std::vector<BatchResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].status != b[i].status || a[i].models != b[i].models)
      return false;
  return true;
}

struct SampleRun {
  std::vector<SampleResult> singles;
  std::vector<BatchResult> batches;
  FleetStats stats;          // zero for the in-process reference
  bool fleet_up = false;
  std::size_t fleet_workers = 0;
  std::size_t local_children = 0;  // live pids after the run
  double wall_s = 0.0;
};

SampleRun run_samples(const Cnf& cnf, const FleetOptions& fleet,
                      std::size_t singles, std::size_t batches,
                      std::size_t batch_size) {
  SampleRun out;
  SamplerPoolOptions o;
  o.num_threads = 2;
  o.seed = kSeed;
  o.unigen.fleet = fleet;
  SamplerPool pool(cnf, o);
  const Stopwatch watch;
  out.singles = pool.sample_many(singles);
  out.batches = pool.sample_batches(batches, batch_size);
  out.wall_s = watch.seconds();
  if (pool.fleet() != nullptr) {
    out.fleet_up = true;
    out.stats = pool.fleet()->stats();
    out.fleet_workers = pool.fleet()->num_workers();
    out.local_children = pool.fleet()->worker_pids().size();
  }
  return out;
}

/// A pre-started `unigen_workerd --listen 127.0.0.1:0` server; its
/// ephemeral endpoint is scraped from the announce line on stdout.
struct RemoteWorkerd {
  pid_t pid = -1;
  net::Endpoint endpoint;

  RemoteWorkerd() = default;
  RemoteWorkerd(const RemoteWorkerd&) = delete;
  RemoteWorkerd& operator=(const RemoteWorkerd&) = delete;

  static std::string workerd_binary() {
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) return {};
    buf[n] = '\0';
    std::string path(buf);
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) return {};
    return path.substr(0, slash + 1) + "unigen_workerd";
  }

  /// The server sees this process's environment with its UNIGEN_WORKERD_*
  /// settings replaced by `env` ("NAME=value" entries), as a server on
  /// another host would start with its own.
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
    if (f != nullptr) std::fclose(f);
    if (!got) return false;
    const char* marker = std::strstr(line, "listening ");
    if (marker == nullptr) return false;
    std::string ep_text(marker + std::strlen("listening "));
    while (!ep_text.empty() &&
           (ep_text.back() == '\n' || ep_text.back() == '\r'))
      ep_text.pop_back();
    return net::parse_endpoint(ep_text, endpoint);
  }
  ~RemoteWorkerd() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
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
  std::vector<std::string> first(std::size_t k) const {
    return {endpoints.begin(),
            endpoints.begin() + static_cast<std::ptrdiff_t>(k)};
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t singles =
      smoke ? 10 : bench::env_u64("UNIGEN_NET_SAMPLES", 40);
  const std::size_t batches =
      smoke ? 4 : bench::env_u64("UNIGEN_NET_BATCHES", 12);
  const std::size_t batch_size = 5;
  const std::size_t worker_counts[] = {1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();

  const auto suite = instances();
  std::printf(
      "tcp transport — %zu formulas, %zu singles + %zu batches(x%zu) per "
      "run, %u hardware thread(s)\n\n",
      suite.size(), singles, batches, batch_size, hw);

  bool count_identity = true;
  bool sample_identity = true;
  bool crash_identity = true;
  bool crash_recovered = true;
  bool remote_identity = true;
  bool clean_hygiene = true;
  bool fleet_came_up = true;

  std::uint64_t crashes_total = 0;
  std::uint64_t redispatches_total = 0;
  std::uint64_t dials_total = 0;
  std::uint64_t dial_failures_total = 0;
  std::uint64_t send_stalls_total = 0;
  std::uint64_t protocol_errors_total = 0;
  std::uint64_t poisoned_total = 0;
  double recovery_total_s = 0.0;
  double recovery_max_s = 0.0;
  std::uint64_t recovery_events = 0;
  double inproc_wall_s = 0.0;
  double socketpair_wall_s = 0.0;  // 2-worker clean runs
  double tcp_wall_s = 0.0;         // 2-worker clean runs

  for (const Instance& inst : suite) {
    // Four clean servers serve every TCP leg of this instance in turn, the
    // first k of them for a k-worker fleet; each resets between
    // supervisors.
    Servers servers;
    if (!servers.start(4)) {
      fleet_came_up = false;
      std::printf("SERVERS FAILED TO START %s\n", inst.name.c_str());
      continue;
    }

    // --- counting: TCP fleet vs socketpair fleet vs in-process.
    ApproxMcOptions co;
    Rng ref_rng(kSeed);
    const ApproxMcResult ref_count = approx_count(inst.cnf, co, ref_rng);
    for (const std::size_t workers : worker_counts) {
      for (const bool tcp : {false, true}) {
        ApproxMcOptions fo = co;
        fo.fleet = tcp ? fleet_options(0, servers.first(workers))
                       : fleet_options(workers, {});
        Rng rng(kSeed);
        const ApproxMcResult got = approx_count(inst.cnf, fo, rng);
        if (got.valid != ref_count.valid ||
            got.cell_count != ref_count.cell_count ||
            got.hash_count != ref_count.hash_count ||
            got.exact != ref_count.exact) {
          count_identity = false;
          std::printf("COUNT MISMATCH %s workers=%zu transport=%s\n",
                      inst.name.c_str(), workers, tcp ? "tcp" : "sp");
        }
      }
    }

    // --- sampling: in-process reference streams.
    const SampleRun ref = run_samples(inst.cnf, fleet_options(0, {}),
                                      singles, batches, batch_size);
    inproc_wall_s += ref.wall_s;

    // Clean runs, both fleet shapes, across worker counts.
    for (const std::size_t workers : worker_counts) {
      for (const bool tcp : {false, true}) {
        const SampleRun got = run_samples(
            inst.cnf,
            tcp ? fleet_options(0, servers.first(workers))
                : fleet_options(workers, {}),
            singles, batches, batch_size);
        // The easy-case formula never goes hashed, so no fleet is built
        // for it — the identity gate still applies (served in-process).
        if (!got.fleet_up && inst.name != "trivial_c") fleet_came_up = false;
        if (workers == 2) (tcp ? tcp_wall_s : socketpair_wall_s) += got.wall_s;
        const bool same = same_samples(ref.singles, got.singles) &&
                          same_batches(ref.batches, got.batches);
        if (!same) {
          sample_identity = false;
          std::printf("SAMPLE MISMATCH %s workers=%zu transport=%s\n",
                      inst.name.c_str(), workers, tcp ? "tcp" : "sp");
        }
        if (got.fleet_up &&
            (got.stats.crashes != 0 || got.stats.poisoned_tasks != 0 ||
             got.stats.send_stalls != 0 || got.stats.protocol_errors != 0))
          clean_hygiene = false;
        if (got.fleet_up && tcp) {
          dials_total += got.stats.dials;
          if (got.stats.dials == 0) clean_hygiene = false;  // not TCP at all
          // The multi-host shape: nothing spawned, one worker per endpoint.
          if (!same || got.local_children != 0 ||
              got.fleet_workers != workers) {
            remote_identity = false;
            std::printf("REMOTE SHAPE BROKEN %s workers=%zu\n",
                        inst.name.c_str(), workers);
          }
        }
      }
    }

    if (inst.name == "trivial_c") continue;  // fault runs need live workers

    // Crash run over TCP: three request streams kill their server mid-task
    // (the supervisor sees EOF on the dialed socket) — recovery must be
    // invisible in the bytes.  A kill ends the server for good, so four
    // servers carry the three-kill plan.
    {
      Servers faulty;
      const std::string plan =
          ProcessFaultPlan().kill_task(2).kill_task(5).kill_task(8).to_env();
      if (!faulty.start(4, {"UNIGEN_WORKERD_FAULTS=" + plan})) {
        fleet_came_up = false;
        std::printf("FAULTY SERVERS FAILED TO START %s\n", inst.name.c_str());
        continue;
      }
      const SampleRun got =
          run_samples(inst.cnf, fleet_options(0, faulty.endpoints), singles,
                      batches, batch_size);
      if (!got.fleet_up) fleet_came_up = false;
      if (!same_samples(ref.singles, got.singles) ||
          !same_batches(ref.batches, got.batches)) {
        crash_identity = false;
        std::printf("TCP CRASH-RUN MISMATCH %s\n", inst.name.c_str());
      }
      if (got.stats.crashes < 3 || got.stats.redispatches < 3 ||
          got.stats.poisoned_tasks != 0)
        crash_recovered = false;
      crashes_total += got.stats.crashes;
      redispatches_total += got.stats.redispatches;
      dial_failures_total += got.stats.dial_failures;
      send_stalls_total += got.stats.send_stalls;
      protocol_errors_total += got.stats.protocol_errors;
      poisoned_total += got.stats.poisoned_tasks;
      recovery_total_s += got.stats.total_recovery_seconds;
      recovery_max_s = recovery_max_s > got.stats.max_recovery_seconds
                           ? recovery_max_s
                           : got.stats.max_recovery_seconds;
      recovery_events += got.stats.redispatches;
    }
  }

  const double recovery_avg_s =
      recovery_events == 0
          ? 0.0
          : recovery_total_s / static_cast<double>(recovery_events);

  std::printf("fleet came up:                          %s\n",
              fleet_came_up ? "yes" : "NO");
  std::printf("count identity (sp+tcp, 1/2/4 workers): %s\n",
              count_identity ? "yes" : "NO");
  std::printf("stream identity (sp+tcp, 1/2/4):        %s\n",
              sample_identity ? "yes" : "NO");
  std::printf("tcp crash-run identity:                 %s (%llu crashes, "
              "%llu re-dispatches, %llu poisoned)\n",
              crash_identity && crash_recovered ? "yes" : "NO",
              static_cast<unsigned long long>(crashes_total),
              static_cast<unsigned long long>(redispatches_total),
              static_cast<unsigned long long>(poisoned_total));
  std::printf("remote shape (--listen, 1/2/4):         %s\n",
              remote_identity ? "yes" : "NO");
  std::printf("clean runs stall/protocol/crash free:   %s (%llu dials)\n",
              clean_hygiene ? "yes" : "NO",
              static_cast<unsigned long long>(dials_total));
  std::printf("tcp recovery latency avg / max:         %.4f s / %.4f s\n",
              recovery_avg_s, recovery_max_s);
  std::printf("wall 2-worker (inproc / sp / tcp):       %.3f / %.3f / "
              "%.3f s\n",
              inproc_wall_s, socketpair_wall_s, tcp_wall_s);

  bench::BenchJson json("net");
  json.add("suite", smoke ? "smoke" : "full");
  json.add("formulas", static_cast<std::uint64_t>(suite.size()));
  json.add("singles_per_run", static_cast<std::uint64_t>(singles));
  json.add("batches_per_run", static_cast<std::uint64_t>(batches));
  json.add("inproc_wall_s", inproc_wall_s);
  json.add("socketpair_wall_s", socketpair_wall_s);
  json.add("tcp_wall_s", tcp_wall_s);
  json.add("dials", dials_total);
  json.add("dial_failures", dial_failures_total);
  json.add("send_stalls", send_stalls_total);
  json.add("protocol_errors", protocol_errors_total);
  json.add("crashes", crashes_total);
  json.add("redispatches", redispatches_total);
  json.add("poisoned_tasks", poisoned_total);
  json.add("recovery_avg_s", recovery_avg_s);
  json.add("recovery_max_s", recovery_max_s);
  json.add("count_identity",
           static_cast<std::uint64_t>(count_identity ? 1 : 0));
  json.add("sample_identity",
           static_cast<std::uint64_t>(sample_identity ? 1 : 0));
  json.add("crash_identity",
           static_cast<std::uint64_t>(crash_identity ? 1 : 0));
  json.add("crash_recovered",
           static_cast<std::uint64_t>(crash_recovered ? 1 : 0));
  json.add("remote_identity",
           static_cast<std::uint64_t>(remote_identity ? 1 : 0));
  json.add("clean_hygiene",
           static_cast<std::uint64_t>(clean_hygiene ? 1 : 0));
  json.add("invariant_violations",
           static_cast<std::uint64_t>(
               (fleet_came_up ? 0 : 1) + (count_identity ? 0 : 1) +
               (sample_identity ? 0 : 1) + (crash_identity ? 0 : 1) +
               (crash_recovered ? 0 : 1) + (remote_identity ? 0 : 1) +
               (clean_hygiene ? 0 : 1)));
  json.write("BENCH_net.json");

  const bool gates = fleet_came_up && count_identity && sample_identity &&
                     crash_identity && crash_recovered && remote_identity &&
                     clean_hygiene;
  return gates ? 0 : 1;
}
