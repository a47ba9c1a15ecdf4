// Pins the canonical stats-struct JSON (src/obs/stats_json.*) for every
// struct: keys, key order and number formats (%llu / %lld integers, %.17g
// doubles, true / false), nested objects and the workers array.  Each
// literal is the exact text the `--stats-json` files have carried for
// these values, so a field added to a struct's list, dropped from it or
// moved fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "obs/stats_json.hpp"

namespace unigen {
namespace {

SolverStats solver_stats() {
  SolverStats s;
  s.decisions = std::numeric_limits<std::uint64_t>::max();
  s.propagations = 22;
  s.xor_propagations = 33;
  s.conflicts = 44;
  s.restarts = 5;
  s.learnt_clauses = 66;
  s.removed_clauses = 7;
  s.minimized_literals = 88;
  s.gauss_units = 9;
  s.gauss_rows = 10;
  s.solver_rebuilds = 2;
  s.reused_solves = 123;
  s.retracted_blocks = 4;
  return s;
}

SimplifyStats simplify_stats() {
  SimplifyStats s;
  s.ran = true;
  s.rounds = 3;
  s.original_clauses = 100;
  s.original_literals = 310;
  s.result_clauses = 60;
  s.result_literals = 170;
  s.units_fixed = 5;
  s.subsumed_clauses = 11;
  s.eliminated_vars = 7;
  s.seconds = 0.125;
  return s;
}

UniGenStats unigen_stats() {
  UniGenStats s;
  s.kappa = 0.4979;
  s.pivot = 89;
  s.hi_thresh = 135;
  s.lo_thresh = 20.5;
  s.approx_log2_count = 1.0 / 3.0;
  s.q = -2;
  s.prepare_seconds = 0.25;
  s.prepare_bsat_calls = 17;
  s.samples_requested = 100;
  s.samples_ok = 97;
  s.samples_failed = 3;
  s.sample_bsat_calls = 412;
  s.sample_seconds = 1.5;
  s.solver_rebuilds = 1;
  s.solver_propagations = 123456789;
  s.counter_solver_rebuilds = 4;
  s.total_xor_row_length = 1234.5;
  s.total_xor_rows = 300;
  s.simplify.ran = true;
  s.simplify.rounds = 2;
  s.simplify.seconds = 0.01;
  return s;
}

SamplerPoolStats sampler_pool_stats() {
  SamplerPoolStats s;
  s.requests = 40;
  s.samples_ok = 39;
  s.samples_timed_out = 1;
  s.service_seconds = 2.25;
  s.prepare.trivial = true;
  s.prepare.q = 5;
  SamplerPoolWorkerStats w0;
  w0.requests_served = 20;
  w0.sample_bsat_calls = 77;
  w0.total_xor_row_length = 0.1;
  SamplerPoolWorkerStats w1;
  w1.requests_served = 19;
  w1.solver_rebuilds = 1;
  w1.total_xor_rows = 8;
  s.workers = {w0, w1};
  return s;
}

SessionRegistryStats session_registry_stats() {
  SessionRegistryStats s;
  s.requests = 12;
  s.hits = 9;
  s.misses = 3;
  s.evictions = 1;
  s.sessions = 2;
  s.resident_bytes = 1 << 20;
  return s;
}

FleetStats fleet_stats() {
  FleetStats s;
  s.spawns = 4;
  s.dials = 2;
  s.crashes = 2;
  s.hang_kills = 1;
  s.deadline_kills = 1;
  s.respawns = 3;
  s.redispatches = 2;
  s.total_recovery_seconds = 0.05;
  s.max_recovery_seconds = 0.03;
  return s;
}

TEST(StatsJson, SolverStatsText) {
  EXPECT_EQ(obs::to_json(solver_stats()),
            R"({"decisions":18446744073709551615,"propagations":22,)"
            R"("xor_propagations":33,"conflicts":44,"restarts":5,)"
            R"("learnt_clauses":66,"removed_clauses":7,)"
            R"("minimized_literals":88,"gauss_units":9,"gauss_rows":10,)"
            R"("solver_rebuilds":2,"reused_solves":123,"retracted_blocks":4})");
}

TEST(StatsJson, SimplifyStatsText) {
  EXPECT_EQ(obs::to_json(simplify_stats()),
            R"({"ran":true,"unsat":false,"rounds":3,"original_clauses":100,)"
            R"("original_literals":310,"result_clauses":60,)"
            R"("result_literals":170,"units_fixed":5,)"
            R"("tautologies_removed":0,"pure_literals_fixed":0,)"
            R"("subsumed_clauses":11,"strengthened_literals":0,)"
            R"("eliminated_vars":7,"seconds":0.125})");
}

TEST(StatsJson, UniGenStatsTextNestsSimplify) {
  EXPECT_EQ(obs::to_json(unigen_stats()),
            R"({"kappa":0.49790000000000001,"pivot":89,"hi_thresh":135,)"
            R"("lo_thresh":20.5,"approx_log2_count":0.33333333333333331,)"
            R"("q":-2,"prepare_seconds":0.25,"prepare_bsat_calls":17,)"
            R"("trivial":false,"samples_requested":100,"samples_ok":97,)"
            R"("samples_failed":3,"samples_timed_out":0,)"
            R"("samples_cancelled":0,"sample_bsat_calls":412,)"
            R"("bsat_timeout_retries":0,"sample_seconds":1.5,)"
            R"("solver_rebuilds":1,"reused_solves":0,"retracted_blocks":0,)"
            R"("solver_propagations":123456789,"counter_solver_rebuilds":4,)"
            R"("total_xor_row_length":1234.5,"total_xor_rows":300,)"
            R"("simplify":{"ran":true,"unsat":false,"rounds":2,)"
            R"("original_clauses":0,"original_literals":0,)"
            R"("result_clauses":0,"result_literals":0,"units_fixed":0,)"
            R"("tautologies_removed":0,"pure_literals_fixed":0,)"
            R"("subsumed_clauses":0,"strengthened_literals":0,)"
            R"("eliminated_vars":0,"seconds":0.01}})");
}

TEST(StatsJson, SamplerPoolWorkerStatsText) {
  EXPECT_EQ(obs::to_json(sampler_pool_stats().workers[1]),
            R"({"requests_served":19,"solver_rebuilds":1,"reused_solves":0,)"
            R"("retracted_blocks":0,"solver_propagations":0,)"
            R"("sample_bsat_calls":0,"bsat_timeout_retries":0,)"
            R"("total_xor_rows":8,"total_xor_row_length":0})");
}

TEST(StatsJson, SamplerPoolStatsTextNestsPrepareAndWorkers) {
  EXPECT_EQ(obs::to_json(sampler_pool_stats()),
            R"({"requests":40,"samples_ok":39,"samples_failed":0,)"
            R"("samples_timed_out":1,"samples_cancelled":0,)"
            R"("service_seconds":2.25,"prepare":{"kappa":0,"pivot":0,)"
            R"("hi_thresh":0,"lo_thresh":0,"approx_log2_count":0,"q":5,)"
            R"("prepare_seconds":0,"prepare_bsat_calls":0,"trivial":true,)"
            R"("samples_requested":0,"samples_ok":0,"samples_failed":0,)"
            R"("samples_timed_out":0,"samples_cancelled":0,)"
            R"("sample_bsat_calls":0,"bsat_timeout_retries":0,)"
            R"("sample_seconds":0,"solver_rebuilds":0,"reused_solves":0,)"
            R"("retracted_blocks":0,"solver_propagations":0,)"
            R"("counter_solver_rebuilds":0,"total_xor_row_length":0,)"
            R"("total_xor_rows":0,"simplify":{"ran":false,"unsat":false,)"
            R"("rounds":0,"original_clauses":0,"original_literals":0,)"
            R"("result_clauses":0,"result_literals":0,"units_fixed":0,)"
            R"("tautologies_removed":0,"pure_literals_fixed":0,)"
            R"("subsumed_clauses":0,"strengthened_literals":0,)"
            R"("eliminated_vars":0,"seconds":0}},"workers":[{)"
            R"("requests_served":20,"solver_rebuilds":0,"reused_solves":0,)"
            R"("retracted_blocks":0,"solver_propagations":0,)"
            R"("sample_bsat_calls":77,"bsat_timeout_retries":0,)"
            R"("total_xor_rows":0,)"
            R"("total_xor_row_length":0.10000000000000001},{)"
            R"("requests_served":19,"solver_rebuilds":1,"reused_solves":0,)"
            R"("retracted_blocks":0,"solver_propagations":0,)"
            R"("sample_bsat_calls":0,"bsat_timeout_retries":0,)"
            R"("total_xor_rows":8,"total_xor_row_length":0}]})");
  EXPECT_EQ(obs::to_json(SamplerPoolStats{}),
            R"({"requests":0,"samples_ok":0,"samples_failed":0,)"
            R"("samples_timed_out":0,"samples_cancelled":0,)"
            R"("service_seconds":0,"prepare":{"kappa":0,"pivot":0,)"
            R"("hi_thresh":0,"lo_thresh":0,"approx_log2_count":0,"q":0,)"
            R"("prepare_seconds":0,"prepare_bsat_calls":0,"trivial":false,)"
            R"("samples_requested":0,"samples_ok":0,"samples_failed":0,)"
            R"("samples_timed_out":0,"samples_cancelled":0,)"
            R"("sample_bsat_calls":0,"bsat_timeout_retries":0,)"
            R"("sample_seconds":0,"solver_rebuilds":0,"reused_solves":0,)"
            R"("retracted_blocks":0,"solver_propagations":0,)"
            R"("counter_solver_rebuilds":0,"total_xor_row_length":0,)"
            R"("total_xor_rows":0,"simplify":{"ran":false,"unsat":false,)"
            R"("rounds":0,"original_clauses":0,"original_literals":0,)"
            R"("result_clauses":0,"result_literals":0,"units_fixed":0,)"
            R"("tautologies_removed":0,"pure_literals_fixed":0,)"
            R"("subsumed_clauses":0,"strengthened_literals":0,)"
            R"("eliminated_vars":0,"seconds":0}},"workers":[]})");
}

TEST(StatsJson, SessionRegistryStatsText) {
  EXPECT_EQ(obs::to_json(session_registry_stats()),
            R"({"requests":12,"hits":9,"misses":3,"evictions":1,)"
            R"("prepare_failures":0,"sessions":2,"resident_bytes":1048576})");
}

TEST(StatsJson, FleetStatsText) {
  EXPECT_EQ(obs::to_json(fleet_stats()),
            R"({"spawns":4,"spawn_failures":0,"dials":2,"dial_failures":0,)"
            R"("send_stalls":0,"protocol_errors":0,"crashes":2,)"
            R"("hang_kills":1,"deadline_kills":1,"respawns":3,)"
            R"("redispatches":2,"poisoned_tasks":0,)"
            R"("total_recovery_seconds":0.050000000000000003,)"
            R"("max_recovery_seconds":0.029999999999999999})");
}

TEST(StatsJson, EnumNames) {
  EXPECT_STREQ(to_string(RequestStatus::kComplete), "complete");
  EXPECT_STREQ(to_string(RequestStatus::kPartial), "partial");
  EXPECT_STREQ(to_string(RequestStatus::kFailed), "failed");
  EXPECT_STREQ(to_string(RequestStatus::kTimedOut), "timed_out");
  EXPECT_STREQ(to_string(RequestStatus::kCancelled), "cancelled");

  EXPECT_STREQ(obs::to_string(SampleResult::Status::kOk), "ok");
  EXPECT_STREQ(obs::to_string(SampleResult::Status::kFail), "fail");
  EXPECT_STREQ(obs::to_string(SampleResult::Status::kTimeout), "timeout");
  EXPECT_STREQ(obs::to_string(SampleResult::Status::kUnsat), "unsat");
  EXPECT_STREQ(obs::to_string(SampleResult::Status::kCancelled),
               "cancelled");
}

TEST(StatsJson, StatusMappingHelperIsTotal) {
  using S = SampleResult::Status;
  EXPECT_EQ(sample_status_from_request(RequestStatus::kComplete), S::kOk);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kTimedOut),
            S::kTimeout);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kCancelled),
            S::kCancelled);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kFailed), S::kFail);
  EXPECT_EQ(sample_status_from_request(RequestStatus::kPartial), S::kFail);
}

}  // namespace
}  // namespace unigen
