#pragma once
// Stats-struct JSON serialization — one canonical encoding for every
// result/stats struct the services expose, replacing the ad-hoc per-CLI
// printf schemas.
//
// Each struct has one `visit_fields` list (stats_json.cpp) that fixes its
// keys and their order; `to_json` writes the text straight from it.
// Integers print exactly (%llu / %lld), doubles with %.17g, bools as
// true / false.  No stats struct has a string field and every key is a
// fixed identifier, so nothing needs escaping.

#include <string>

#include "core/sampler.hpp"
#include "core/unigen.hpp"
#include "service/process_fleet.hpp"
#include "service/sampler_pool.hpp"
#include "service/session_registry.hpp"

namespace unigen::obs {

std::string to_json(const SolverStats& s);
std::string to_json(const SimplifyStats& s);
/// The flat fields, then the nested `"simplify"` object.
std::string to_json(const UniGenStats& s);
std::string to_json(const SamplerPoolWorkerStats& s);
/// The flat fields, then `"prepare"` (a UniGenStats object) and the
/// `"workers"` array.
std::string to_json(const SamplerPoolStats& s);
std::string to_json(const SessionRegistryStats& s);
std::string to_json(const FleetStats& s);

/// RequestStatus's name lives in service/budget.hpp; SampleResult's here.
const char* to_string(SampleResult::Status s);

}  // namespace unigen::obs
