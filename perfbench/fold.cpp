// Trace fold: one request's spans → per-layer wall time and span stats.

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>

#include "perfbench.hpp"

namespace perfbench {

const std::array<const char*, kLayerCount> kLayerNames = {
    "harness",  "registry", "cnf",         "simplify", "core_prepare",
    "counting", "sat",      "core_sample", "pool",     "fleet"};

namespace {

using unigen::obs::TraceEvent;

bool named(const TraceEvent& e, const char* name) {
  return std::strcmp(e.name, name) == 0;
}

double seconds(std::uint64_t a, std::uint64_t b) {
  return b > a ? static_cast<double>(b - a) * 1e-9 : 0.0;
}

}  // namespace

void fold_request(const std::vector<TraceEvent>& events, const char* root,
                  std::size_t width, bool fleet, LayerTotals& out) {
  const std::size_t n = events.size();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) by_id[events[i].span_id] = i;

  // A worker's worker.task is recorded as a sibling of the supervisor's
  // fleet.attempt (both children of pool.request); hang it under its
  // attempt so the attempt's self time is the dispatch overhead alone.
  std::vector<std::uint64_t> parent(n);
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>,
           std::size_t>
      attempts;
  for (std::size_t i = 0; i < n; ++i) {
    parent[i] = events[i].parent_id;
    if (named(events[i], "fleet.attempt"))
      attempts[{events[i].value, events[i].attempt, events[i].worker}] = i;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!named(events[i], "worker.task")) continue;
    const auto a =
        attempts.find({events[i].value, events[i].attempt, events[i].worker});
    if (a == attempts.end()) continue;
    parent[i] = events[a->second].span_id;
    const TraceEvent& att = events[a->second];
    out.dispatch_overhead.add(
        seconds(att.start_ns, att.end_ns) -
        seconds(events[i].start_ns, events[i].end_ns));
  }

  std::vector<std::vector<std::size_t>> children(n);
  std::size_t root_index = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (named(events[i], root) && root_index == n) root_index = i;
    const auto p = by_id.find(parent[i]);
    if (parent[i] != 0 && p != by_id.end() && p->second != i)
      children[p->second].push_back(i);
  }
  if (root_index == n) return;

  // The request's tree, each node with its layer (which depends on the
  // ancestors: a hash.probe under count.request is counting work).
  std::vector<std::size_t> nodes;
  std::vector<Layer> layer(n, kHarness);
  std::vector<bool> under_count(n, false);
  std::vector<std::size_t> stack = {root_index};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    nodes.push_back(i);
    const TraceEvent& e = events[i];
    const std::size_t p = by_id.count(parent[i]) ? by_id[parent[i]] : n;
    if (named(e, "server.request")) {
      layer[i] = kRegistry;
    } else if (named(e, "pool.prepare")) {
      layer[i] = kCorePrepare;
    } else if (named(e, "bsat.call")) {
      // The easy-case check is the one cell pool.prepare enumerates itself.
      layer[i] = p < n && named(events[p], "pool.prepare") ? kCorePrepare
                                                            : kSat;
    } else if (named(e, "count.request") || named(e, "count.iteration")) {
      layer[i] = kCounting;
    } else if (named(e, "hash.probe")) {
      layer[i] = under_count[i] ? kCounting : kCoreSample;
    } else if (named(e, "sample.request")) {
      layer[i] = kCoreSample;
    } else if (named(e, "pool.request")) {
      layer[i] = fleet ? kFleet : kPool;
    } else if (std::strncmp(e.name, "fleet.", 6) == 0 ||
               named(e, "worker.task")) {
      layer[i] = kFleet;
    }
    for (std::size_t c : children[i]) {
      under_count[c] = under_count[i] || named(e, "count.request");
      stack.push_back(c);
    }
  }

  // Span statistics and fan-out utilisation.
  for (std::size_t i : nodes) {
    const TraceEvent& e = events[i];
    const double d = seconds(e.start_ns, e.end_ns);
    if (named(e, "pool.prepare")) {
      out.prepare.add(d);
      double nested = 0.0;
      for (std::size_t c : children[i])
        if (named(events[c], "count.request"))
          nested += seconds(events[c].start_ns, events[c].end_ns);
      out.prepare_self.add(d - nested);
    } else if (named(e, "count.request")) {
      out.count.add(d);
      out.count_incl_s += d;
      double busy = 0.0;
      for (std::size_t c : children[i])
        if (named(events[c], "count.iteration"))
          busy += seconds(events[c].start_ns, events[c].end_ns);
      out.count_busy_s += busy;
      out.count_cap_s += d * static_cast<double>(width);
    } else if (named(e, "count.iteration")) {
      out.iteration.add(d);
    } else if (named(e, "sample.request")) {
      out.accept_cell.add(d);
    } else if (named(e, "bsat.call")) {
      out.cell_enum.add(d);
    } else if (named(e, "pool.request")) {
      out.fanout_incl_s += d;
      // Busy = the request work the fan-out ran: sample.request on the
      // in-process pool, worker.task (hung under its attempt above) on a
      // fleet.
      double busy = 0.0;
      for (std::size_t c : children[i]) {
        if (named(events[c], "sample.request"))
          busy += seconds(events[c].start_ns, events[c].end_ns);
        for (std::size_t g : children[c])
          if (named(events[g], "worker.task"))
            busy += seconds(events[g].start_ns, events[g].end_ns);
      }
      out.fan_busy_s += busy;
      out.fan_cap_s += d * static_cast<double>(width);
    }
  }

  // Time sweep over the root's interval.
  const TraceEvent& r = events[root_index];
  std::vector<std::uint64_t> cuts;
  for (std::size_t i : nodes) {
    cuts.push_back(std::clamp(events[i].start_ns, r.start_ns, r.end_ns));
    cuts.push_back(std::clamp(events[i].end_ns, r.start_ns, r.end_ns));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<char> active(n, 0);
  std::vector<std::size_t> frontier;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const std::uint64_t a = cuts[k], b = cuts[k + 1];
    for (std::size_t i : nodes)
      active[i] = events[i].start_ns <= a && events[i].end_ns >= b;
    frontier.clear();
    for (std::size_t i : nodes) {
      if (!active[i]) continue;
      bool leaf = true;
      for (std::size_t c : children[i])
        if (active[c]) {
          leaf = false;
          break;
        }
      if (leaf) frontier.push_back(i);
    }
    if (frontier.empty()) continue;
    const double share =
        seconds(a, b) / static_cast<double>(frontier.size());
    for (std::size_t i : frontier) out.layer_s[layer[i]] += share;
  }
  out.wall_s += seconds(r.start_ns, r.end_ns);
  ++out.roots;
}

void fold_direct(const std::vector<TraceEvent>& events, LayerTotals& out) {
  for (const TraceEvent& e : events) {
    const double d = seconds(e.start_ns, e.end_ns);
    if (named(e, "bench.fingerprint"))
      out.fingerprint.add(d);
    else if (named(e, "bench.simplify"))
      out.simplify.add(d);
    else if (named(e, "bench.session_key"))
      out.session_key.add(d);
  }
}

}  // namespace perfbench
