#include "nn/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <string>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "nn/kernel_table.hpp"
#include "telemetry/metrics.hpp"

namespace adsec {
namespace {

// The latched dispatch decision. nullptr = not resolved yet; the first
// kernel call (or an explicit active_tier()/force_tier()) resolves it.
std::atomic<const detail::KernelTable*> g_table{nullptr};
// Serializes resolve/publish so one resolver wins; the latch itself is the
// atomic above, not a guarded field. adsec-lint: allow(unguarded-mutex)
Mutex g_resolve_mu;

constexpr simd::Tier kTiers[] = {simd::Tier::Scalar, simd::Tier::Avx2,
                                  simd::Tier::Avx512};

// nullptr for a vector tier whose TU compiled to a stub.
const detail::KernelTable* table_for(simd::Tier tier) {
  switch (tier) {
    case simd::Tier::Avx2:
      return detail::avx2_kernel_table();
    case simd::Tier::Avx512:
      return detail::avx512_kernel_table();
    case simd::Tier::Scalar:
      break;
  }
  return &detail::scalar_kernel_table();
}

simd::Tier tier_of(const detail::KernelTable* t) {
  for (const simd::Tier tier : kTiers) {
    if (table_for(tier) == t) return tier;
  }
  return simd::Tier::Scalar;
}

bool cpu_has(simd::Tier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case simd::Tier::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case simd::Tier::Avx512:
      // Its table reuses AVX2 entries (every AVX-512F CPU has AVX2).
      return cpu_has(simd::Tier::Avx2) && __builtin_cpu_supports("avx512f");
    case simd::Tier::Scalar:
      break;
  }
  return true;
#else
  return tier == simd::Tier::Scalar;
#endif
}

void publish(const detail::KernelTable* t) {
  telemetry::gauge("nn.simd.tier")
      .set(static_cast<double>(static_cast<int>(tier_of(t))));
  g_table.store(t, std::memory_order_release);
}

// Resolve ADSEC_SIMD / CPUID under the lock; idempotent.
const detail::KernelTable* resolve_locked() ADSEC_REQUIRES(g_resolve_mu) {
  const detail::KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  simd::Tier tier = simd::available_tiers().back();
  const char* env = std::getenv("ADSEC_SIMD");
  if (env != nullptr && *env != '\0') {
    const std::string v(env);
    const auto named = std::find_if(std::begin(kTiers), std::end(kTiers),
                                     [&v](simd::Tier x) { return v == simd::tier_name(x); });
    if (named == std::end(kTiers)) {
      throw Error(ErrorCode::Config,
                  "ADSEC_SIMD: unknown tier '" + v + "' (want scalar|avx2|avx512)");
    }
    tier = *named;
    if (!simd::tier_supported(tier)) {
      throw Error(ErrorCode::Config, "ADSEC_SIMD=" + v +
                                         ": tier not supported on this "
                                         "machine/build");
    }
  }
  t = table_for(tier);
  publish(t);
  return t;
}

}  // namespace

namespace detail {

const KernelTable& active_kernel_table() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  MutexLock lock(g_resolve_mu);
  return *resolve_locked();
}

}  // namespace detail

namespace simd {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::Avx2:
      return "avx2";
    case Tier::Avx512:
      return "avx512";
    case Tier::Scalar:
      break;
  }
  return "scalar";
}

bool tier_supported(Tier tier) {
  return table_for(tier) != nullptr && cpu_has(tier);
}

std::vector<Tier> available_tiers() {
  std::vector<Tier> tiers;
  for (const Tier t : kTiers) {
    if (tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

Tier active_tier() { return tier_of(&detail::active_kernel_table()); }

void force_tier(Tier tier) {
  if (!tier_supported(tier)) {
    throw Error(ErrorCode::Config, std::string("force_tier: tier '") +
                                       tier_name(tier) +
                                       "' not supported on this machine/build");
  }
  MutexLock lock(g_resolve_mu);
  publish(table_for(tier));
}

void reset_tier() {
  MutexLock lock(g_resolve_mu);
  g_table.store(nullptr, std::memory_order_release);
}

}  // namespace simd
}  // namespace adsec
