#pragma once
// SessionRegistry — keyed cache of live sampling sessions.
//
// A serving deployment sees the same formulas again and again (testbench
// re-runs, constrained-random regression suites re-sampling one design's
// constraint set per seed sweep).  Algorithm 1's expensive part is lines
// 1–11 — simplification, the easy-case check, one full ApproxMC call — and
// all of it is per-formula, not per-request.  The registry keeps that
// investment alive: each distinct formula maps to one SamplingSession
// holding the simplified Cnf, the immutable UniGenPrepared, and a started
// SamplerPool whose warmed engines serve every later request at lines
// 12–22 cost only.
//
// Keying (two levels, both deterministic):
//   1. The *raw* fingerprint — fingerprint_cnf over the input as presented
//      (already order-independent across clause/literal permutations) —
//      indexes an alias map to the canonical key, so a warm request never
//      re-runs the simplifier just to find its session.
//   2. The *canonical* SessionKey: a fingerprint of what the session
//      actually serves — the simplified clauses, the sampling set, the
//      simplifier's BVE reconstruction stack (two inputs can share a
//      simplified core yet reconstruct witnesses differently; serving one's
//      witnesses for the other would emit non-models, so reconstruction is
//      part of identity) — paired with a fingerprint of the
//      outcome-relevant options.  Thread count and the wall-clock budget
//      knobs are deliberately excluded: the service output is byte-identical
//      across thread counts, so they are deployment shape, not meaning.
//
// Eviction is LRU over acquire order with two caps (session count and
// estimated resident bytes), never evicting the session being returned.
// Everything — keys, hit/miss pattern, eviction order — is a deterministic
// function of the request sequence, which is what lets the fuzz harness
// replay a seeded register/sample/evict script against fresh reference
// pools and demand byte-identical witnesses (fuzz_cnf leg 7).
//
// Threading contract: one dispatcher thread, same as SamplerPool — the
// registry serializes session *lookup*; each session's own fan-out
// parallelism is inside SamplerPool.

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "cnf/cnf.hpp"
#include "cnf/fingerprint.hpp"
#include "service/budget.hpp"
#include "service/sampler_pool.hpp"

namespace unigen {

/// Canonical identity of a session: what is solved (simplified formula +
/// sampling set + reconstruction) and under which outcome-relevant options.
struct SessionKey {
  Fingerprint formula;
  Fingerprint options;

  bool operator==(const SessionKey&) const = default;

  /// "formula-options", 65 hex chars — the stable spelling for logs.
  std::string hex() const { return formula.hex() + "-" + options.hex(); }

  struct Hash {
    std::size_t operator()(const SessionKey& k) const noexcept {
      return Fingerprint::Hash{}(k.formula) ^
             (Fingerprint::Hash{}(k.options) * 0x9E3779B97F4A7C15ull);
    }
  };
};

/// The options that change what a session *returns* (and therefore must
/// split sessions): ε, the nested counter's (ε, δ), the master seed, and
/// the simplify switch (it changes the canonical formula and the
/// reconstruction).  Wall-clock budgets and thread counts are excluded —
/// see the header comment.
Fingerprint fingerprint_session_options(const SamplerPoolOptions& options);

/// Canonicalization result: the key plus (when simplification is on) the
/// Simplifier the key computation had to run anyway — handed to the new
/// session via UniGenOptions::presimplified so a cold request pays the
/// pipeline exactly once.
struct KeyedFormula {
  SessionKey key;
  std::shared_ptr<const Simplifier> simplifier;  ///< null when simplify off
};

KeyedFormula make_session_key(const Cnf& cnf,
                              const SamplerPoolOptions& options);

/// One live session: identity, the prepared pool, and accounting.
class SamplingSession {
 public:
  SamplingSession(const SessionKey& key, const Cnf& cnf,
                  SamplerPoolOptions options)
      : key_(key), pool_(cnf, std::move(options)) {}

  const SessionKey& key() const { return key_; }
  SamplerPool& pool() { return pool_; }
  const SamplerPool& pool() const { return pool_; }

  /// Times this session was returned by acquire() (1 = cold miss only).
  std::uint64_t acquisitions() const { return acquisitions_; }
  /// Coarse memory estimate (formula + per-worker engines + witness list),
  /// computed once after prepare; what the byte cap meters.
  std::size_t resident_bytes() const { return resident_bytes_; }

 private:
  friend class SessionRegistry;

  SessionKey key_;
  SamplerPool pool_;
  std::uint64_t acquisitions_ = 0;
  std::size_t resident_bytes_ = 0;
};

struct SessionRegistryOptions {
  /// Per-session template: seed, thread count, ε/budgets.  Each session
  /// gets a copy (with presimplified wired in by the registry).
  SamplerPoolOptions pool;
  /// LRU cap on live sessions; 0 = unlimited.
  std::size_t max_sessions = 8;
  /// LRU cap on summed resident_bytes estimates; 0 = uncapped.  The session
  /// just acquired is never evicted, so one oversized formula still serves.
  std::size_t max_resident_bytes = 0;
};

struct SessionRegistryStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;     ///< served by a live session
  std::uint64_t misses = 0;   ///< cold: simplify + prepare paid
  std::uint64_t evictions = 0;
  std::uint64_t prepare_failures = 0;  ///< cold sessions whose prepare()
                                       ///< blew its budget (dropped, not
                                       ///< cached — prepare latches)
  std::size_t sessions = 0;        ///< currently live
  std::size_t resident_bytes = 0;  ///< summed estimates over live sessions

  double hit_rate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(requests);
  }
};

/// What acquire() hands back: the session (null only when a cold prepare
/// failed under its budget), whether it was already warm, and its key.
struct AcquireResult {
  SamplingSession* session = nullptr;
  bool warm = false;
  SessionKey key;

  bool ok() const { return session != nullptr; }
};

class SessionRegistry {
 public:
  explicit SessionRegistry(SessionRegistryOptions options = {});
  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Looks the formula up (raw fingerprint → alias → canonical key); on a
  /// miss, canonicalizes, builds a session and runs prepare() under
  /// `budget` (the per-session Budget threading: deadline / cancellation /
  /// unit caps reach the easy-case check and the nested count).  The
  /// returned pointer stays valid until the session is evicted — use it
  /// before the next acquire() or hold the key to re-acquire.  A cold
  /// prepare failure is counted, the session dropped (a later acquire
  /// retries under that call's budget), and .session is null.
  AcquireResult acquire(const Cnf& cnf, const Budget& budget);
  AcquireResult acquire(const Cnf& cnf);  ///< under the template's budget

  /// Drops one session by key (test/fuzz seam for forced-eviction
  /// scenarios).  Returns false when no such session is live.
  bool evict(const SessionKey& key);
  /// Drops every session (counted as evictions).
  void clear();

  SessionRegistryStats stats() const;
  const SessionRegistryOptions& options() const { return options_; }

 private:
  using SessionList = std::list<SamplingSession>;

  /// Applies the caps to the LRU tail, sparing the front (the session just
  /// returned).
  void enforce_caps();
  void drop(SessionList::iterator it);
  /// Removes every raw-fingerprint alias resolving to `key` (linear in the
  /// alias map — fine at cache sizes).
  void purge_aliases(const SessionKey& key);

  SessionRegistryOptions options_;
  /// Front = most recently acquired.  std::list because SamplingSession is
  /// immovable (SamplerPool owns threads) and splice keeps iterators valid.
  SessionList lru_;
  std::unordered_map<SessionKey, SessionList::iterator, SessionKey::Hash>
      by_key_;
  /// Raw input fingerprint → canonical key.  Entries whose session was
  /// evicted are purged with it (the canonicalization would have to re-run
  /// anyway to rebuild the session's presimplified state).
  std::unordered_map<Fingerprint, SessionKey, Fingerprint::Hash> aliases_;
  SessionRegistryStats stats_;
};

}  // namespace unigen
