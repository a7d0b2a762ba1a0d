// Fixture: x86 intrinsics leaking outside a dedicated *_avx2 / *_avx512
// SIMD TU. This file's basename has neither, so it would be compiled
// WITHOUT a vector ISA and must not touch vector intrinsics directly —
// that is the kernel-table dispatch boundary. Expected findings: 4
// (the include plus three intrinsic tokens).
#include <immintrin.h>

void leak(double* p) {
  __m256d v = _mm256_loadu_pd(p);
  _mm256_storeu_pd(p, v);
}
