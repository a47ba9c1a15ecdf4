#include "service/session_registry.hpp"

#include <iterator>
#include <utility>

#include "obs/metrics.hpp"

namespace unigen {

namespace {

/// Deterministic formula footprint (payload vectors, not allocator
/// truth): the caps must evict the same sessions on every machine, so the
/// meter is a function of the formula, never of heap behavior.
std::size_t cnf_bytes(const Cnf& cnf) {
  std::size_t bytes = sizeof(Cnf);
  for (const auto& clause : cnf.clauses())
    bytes += sizeof(std::vector<Lit>) + clause.size() * sizeof(Lit);
  for (const auto& x : cnf.xors())
    bytes += sizeof(XorConstraint) + x.vars.size() * sizeof(Var);
  return bytes;
}

/// Coarse per-session estimate: both formula copies, the trivial witness
/// list, and — when the in-process pool serves (hashed, no fleet) — the
/// worker engines (watch lists and clause copies scale with the solved
/// formula; the constant covers fixed solver state).
std::size_t estimate_resident_bytes(const Cnf& cnf,
                                    const SamplingSession& session) {
  const SamplerPool& pool = session.pool();
  const UniGenPrepared& prep = pool.prepared();
  const Cnf& solved = prep.formula(cnf);
  std::size_t bytes = cnf_bytes(cnf);
  if (prep.simplifier) bytes += cnf_bytes(prep.simplifier->result());
  bytes += prep.trivial_models.size() *
           (static_cast<std::size_t>(cnf.num_vars()) / 8 + 32);
  if (prep.mode == UniGenPrepared::Mode::kHashed && pool.fleet() == nullptr)
    bytes += pool.num_threads() * (2 * cnf_bytes(solved) + 16384);
  return bytes;
}

}  // namespace

Fingerprint fingerprint_session_options(const SamplerPoolOptions& options) {
  FingerprintBuilder fb;
  fb.add_scalar(0x5E5510ull);  // domain tag: session options
  fb.add_scalar(options.seed);
  const UniGenOptions& u = options.unigen;
  fb.add_double(u.epsilon);
  fb.add_double(u.counter_epsilon);
  fb.add_double(u.counter_confidence);
  fb.add_scalar(u.simplify.enabled ? 1 : 0);
  return fb.digest();
}

KeyedFormula make_session_key(const Cnf& cnf,
                              const SamplerPoolOptions& options) {
  KeyedFormula out;
  out.key.options = fingerprint_session_options(options);
  FingerprintBuilder fb;
  if (options.unigen.simplify.enabled) {
    // Same construction unigen_prepare would run (frozen set defaults to
    // the sampling set) — which is what lets the registry hand this very
    // Simplifier to the session via UniGenOptions::presimplified.
    auto simplifier =
        std::make_shared<const Simplifier>(cnf, options.unigen.simplify);
    fold_cnf(fb, simplifier->result());
    simplifier->fold_reconstruction(fb);
    out.simplifier = std::move(simplifier);
  } else {
    fold_cnf(fb, cnf);
    fb.add_scalar(0);  // empty reconstruction stack, same frame shape
  }
  out.key.formula = fb.digest();
  return out;
}

SessionRegistry::SessionRegistry(SessionRegistryOptions options)
    : options_(std::move(options)) {}

AcquireResult SessionRegistry::acquire(const Cnf& cnf) {
  return acquire(cnf, options_.pool.unigen.budget);
}

AcquireResult SessionRegistry::acquire(const Cnf& cnf, const Budget& budget) {
  ++stats_.requests;
  AcquireResult out;
  const Fingerprint raw = fingerprint_cnf(cnf);
  std::shared_ptr<const Simplifier> presimplified;
  const auto alias = aliases_.find(raw);
  if (alias != aliases_.end()) {
    out.key = alias->second;
  } else {
    KeyedFormula keyed = make_session_key(cnf, options_.pool);
    out.key = keyed.key;
    presimplified = std::move(keyed.simplifier);
    aliases_.emplace(raw, out.key);
  }
  const auto hit = by_key_.find(out.key);
  if (hit != by_key_.end()) {
    ++stats_.hits;
    obs::metrics().counter("session.hits").add();
    // Splice to front: iterators (and the by_key_ mapping) stay valid.
    lru_.splice(lru_.begin(), lru_, hit->second);
    SamplingSession& session = lru_.front();
    ++session.acquisitions_;
    out.session = &session;
    out.warm = true;
    return out;
  }
  ++stats_.misses;
  obs::metrics().counter("session.misses").add();
  if (presimplified == nullptr && options_.pool.unigen.simplify.enabled) {
    // Alias hit on a key whose session is gone (defensive: aliases are
    // purged with their session, but a stale map must not skip the
    // presimplified wiring) — canonicalize again.
    presimplified = make_session_key(cnf, options_.pool).simplifier;
  }
  SamplerPoolOptions pool_options = options_.pool;
  pool_options.unigen.presimplified = presimplified;
  lru_.emplace_front(out.key, cnf, std::move(pool_options));
  SamplingSession& session = lru_.front();
  if (!session.pool().prepare(budget)) {
    // prepare() latches its verdict, so a session that timed out cold
    // would answer kTimeout forever — drop it and let a later acquire
    // retry under that call's (possibly larger) budget.
    ++stats_.prepare_failures;
    lru_.pop_front();
    purge_aliases(out.key);
    return out;
  }
  session.acquisitions_ = 1;
  session.resident_bytes_ = estimate_resident_bytes(cnf, session);
  stats_.resident_bytes += session.resident_bytes_;
  by_key_.emplace(out.key, lru_.begin());
  enforce_caps();
  out.session = &lru_.front();
  out.warm = false;
  return out;
}

bool SessionRegistry::evict(const SessionKey& key) {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  drop(it->second);
  return true;
}

void SessionRegistry::clear() {
  while (!lru_.empty()) drop(lru_.begin());
}

void SessionRegistry::enforce_caps() {
  const auto over = [this] {
    if (lru_.size() <= 1) return false;  // spare the session just acquired
    if (options_.max_sessions > 0 && lru_.size() > options_.max_sessions)
      return true;
    return options_.max_resident_bytes > 0 &&
           stats_.resident_bytes > options_.max_resident_bytes;
  };
  while (over()) drop(std::prev(lru_.end()));
}

void SessionRegistry::drop(SessionList::iterator it) {
  ++stats_.evictions;
  obs::metrics().counter("session.evictions").add();
  stats_.resident_bytes -= it->resident_bytes_;
  by_key_.erase(it->key_);
  purge_aliases(it->key_);
  lru_.erase(it);
}

void SessionRegistry::purge_aliases(const SessionKey& key) {
  for (auto it = aliases_.begin(); it != aliases_.end();) {
    if (it->second == key)
      it = aliases_.erase(it);
    else
      ++it;
  }
}

SessionRegistryStats SessionRegistry::stats() const {
  SessionRegistryStats out = stats_;
  out.sessions = lru_.size();
  return out;
}

}  // namespace unigen
