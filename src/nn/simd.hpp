// Runtime SIMD dispatch for the NN compute kernels.
//
// The blocked GEMM/GEMV drivers in matrix.cpp and Adam::step consume a
// per-tier kernel table (microkernel, panel packs, GEMV inner loops, fused
// epilogue, Adam step). Which table is active is decided ONCE per process,
// lazily on the first kernel call:
//
//   1. `ADSEC_SIMD=scalar|avx2|avx512` forces a tier (Error{Config} if the
//      value is unknown or the CPU lacks the instructions);
//   2. otherwise the best tier the CPU supports wins (CPUID probe:
//      avx512f+avx2+fma, then avx2+fma, then scalar).
//
// Determinism contract: results are bit-identical across runs FOR A GIVEN
// TIER. The AVX2 and AVX-512 tiers give the same bits as each other: both
// compute one fused multiply-add chain per C element, ascending k from
// +0.0, and the register tile's width never enters an element's
// arithmetic. The scalar tier multiplies then adds, so its GEMM/GEMV
// results may differ from the fused tiers' in the last ulp; that is why
// the active tier is recorded in telemetry (`nn.simd.tier` gauge: 0
// scalar, 1 avx2, 2 avx512) and in every BENCH JSON, and why the
// simd-parity CI job runs the suite under each tier. The panel packs and
// the Adam step give the same bits on every tier (see nn/kernel_table.hpp).
// `force_tier`/`reset_tier` exist for tests and benches that compare tiers
// in-process; production code never calls them.
#pragma once

#include <string>
#include <vector>

namespace adsec::simd {

enum class Tier { Scalar = 0, Avx2 = 1, Avx512 = 2 };

// Stable lowercase name, matching the ADSEC_SIMD spelling ("scalar",
// "avx2", "avx512").
const char* tier_name(Tier tier);

// Whether this process can execute the tier: the CPU has the instructions
// AND the binary contains the kernels (a vector tier's TU compiles to a
// stub when the toolchain lacks its ISA flags). Scalar is always supported.
bool tier_supported(Tier tier);

// Every supported tier, scalar first, then in order of width.
std::vector<Tier> available_tiers();

// The tier the kernels are using. First call resolves ADSEC_SIMD / CPUID
// and latches the result; later calls are a single atomic load.
Tier active_tier();

// Test/bench override: make `tier` active for subsequent kernel calls.
// Throws Error{Config} if unsupported. reset_tier() returns to the lazy
// ADSEC_SIMD/auto resolution.
void force_tier(Tier tier);
void reset_tier();

}  // namespace adsec::simd
