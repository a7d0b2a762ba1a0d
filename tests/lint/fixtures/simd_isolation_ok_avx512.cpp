// Fixture: the same intrinsics are legal inside a dedicated AVX-512 TU —
// the basename contains "_avx512", marking it as one of the translation
// units compiled with -mavx512f -mfma (like src/nn/matrix_avx512.cpp).
// Expected findings: none.
#include <immintrin.h>

void micro(double* p) {
  __m512d v = _mm512_loadu_pd(p);
  _mm512_storeu_pd(p, _mm512_add_pd(v, v));
}
