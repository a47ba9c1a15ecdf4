#include "fault_inject.hpp"

#include <algorithm>
#include <cstdlib>

namespace unigen {
namespace {

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool ScheduledFaults::inject_timeout(std::uint64_t key, std::uint64_t call) {
  if (plan_.find({key, call}) == plan_.end()) return false;
  fired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SeededRateFaults::SeededRateFaults(std::uint64_t seed, double rate)
    : seed_(seed),
      threshold_(static_cast<std::uint64_t>(
          std::clamp(rate, 0.0, 1.0) * 4294967296.0)) {}

bool SeededRateFaults::would_fire(std::uint64_t key, std::uint64_t call) const {
  const std::uint64_t h = mix64(seed_ ^ mix64(key ^ mix64(call)));
  return (h & 0xffffffffull) < threshold_;
}

bool SeededRateFaults::inject_timeout(std::uint64_t key, std::uint64_t call) {
  if (!would_fire(key, call)) return false;
  fired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CancelAfterProbes::inject_timeout(std::uint64_t /*key*/,
                                       std::uint64_t /*call*/) {
  // fetch_sub walks remaining_ through 0 exactly once; the probe that takes
  // it there trips the token.  Later probes see the wrapped value and do
  // nothing — the token stays tripped until the owner resets it.
  std::uint64_t cur = remaining_.load(std::memory_order_relaxed);
  while (cur > 0 && !remaining_.compare_exchange_weak(
                        cur, cur - 1, std::memory_order_relaxed)) {
  }
  if (cur == 1) token_.cancel();
  return false;
}

ScopedEnv::ScopedEnv(const char* name, const char* value) : name_(name) {
  if (const char* old = std::getenv(name)) saved_ = old;
  if (value != nullptr)
    ::setenv(name, value, 1);
  else
    ::unsetenv(name);
}

ScopedEnv::~ScopedEnv() {
  if (saved_)
    ::setenv(name_.c_str(), saved_->c_str(), 1);
  else
    ::unsetenv(name_.c_str());
}

}  // namespace unigen
