#include "common/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QRAMSIM_SIMD_X86 1
#include <immintrin.h>
#endif

namespace qramsim::simd {

namespace {

// ------------------------------------------------------------- scalar

void
xorFireScalar(std::uint64_t *target, const std::uint64_t *rows,
              std::size_t stride, const EnsembleCtrl *ctrls,
              std::size_t nc, const std::uint64_t *vmask, std::size_t nw)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = vmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= rows[std::size_t(ctrls[c].qubit) * stride + w] ^
                    ctrls[c].invert;
        target[w] ^= fire;
    }
}

void
swapFireScalar(std::uint64_t *t0, std::uint64_t *t1,
               const std::uint64_t *rows, std::size_t stride,
               const EnsembleCtrl *ctrls, std::size_t nc,
               const std::uint64_t *vmask, std::size_t nw)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = vmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= rows[std::size_t(ctrls[c].qubit) * stride + w] ^
                    ctrls[c].invert;
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

void
xorRowScalar(std::uint64_t *dst, const std::uint64_t *src,
             std::size_t nw)
{
    for (std::size_t w = 0; w < nw; ++w)
        dst[w] ^= src[w];
}

std::uint64_t
diffOrScalar(std::uint64_t *dev, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t nw)
{
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t d = a[w] ^ b[w];
        dev[w] |= d;
        any |= d;
    }
    return any;
}

// Fused-arena fire kernels. Arithmetic is the row kernels' (the
// block layout only changes nw/stride and folds shot activity into
// the mask row), but the sweeps are long — one op covers every
// batched shot — so control row pointers and polarity words are
// hoisted into locals: the compiler cannot do it (the target store
// may alias the ctrls array), and reloading them every vector step
// is measurable at arena widths. Ops with more controls than the
// hoist buffer fall back to the generic row sweep.

constexpr std::size_t kCtrlHoist = 4;

void
xorFireBlockScalar(std::uint64_t *target, const std::uint64_t *rows,
                   std::size_t stride, const EnsembleCtrl *ctrls,
                   std::size_t nc, const std::uint64_t *bmask,
                   std::size_t nw)
{
    if (nc > kCtrlHoist) {
        xorFireScalar(target, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    std::uint64_t inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = ctrls[c].invert;
    }
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ inv[c];
        target[w] ^= fire;
    }
}

void
swapFireBlockScalar(std::uint64_t *t0, std::uint64_t *t1,
                    const std::uint64_t *rows, std::size_t stride,
                    const EnsembleCtrl *ctrls, std::size_t nc,
                    const std::uint64_t *bmask, std::size_t nw)
{
    if (nc > kCtrlHoist) {
        swapFireScalar(t0, t1, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    std::uint64_t inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = ctrls[c].invert;
    }
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ inv[c];
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

void
xorRowBlockScalar(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t pw, std::size_t n)
{
    for (std::size_t s = 0; s < n; ++s, dst += pw)
        for (std::size_t w = 0; w < pw; ++w)
            dst[w] ^= src[w];
}

void
diffOrBlockScalar(std::uint64_t *dev, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t pw, std::size_t n,
                  std::uint64_t *anyOut)
{
    for (std::size_t s = 0; s < n; ++s, dev += pw, a += pw) {
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < pw; ++w) {
            const std::uint64_t d = a[w] ^ b[w];
            dev[w] |= d;
            any |= d;
        }
        anyOut[s] = any;
    }
}

std::uint64_t
counterSiteMaskScalar(std::uint64_t ctr, const std::uint64_t *cut,
                      std::size_t n)
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < n; ++i)
        mask |= std::uint64_t(CounterRng::outputAt(ctr, i + 1) <= cut[i])
                << i;
    return mask;
}

constexpr RowKernels kScalar = {xorFireScalar,      swapFireScalar,
                                xorRowScalar,       diffOrScalar,
                                xorFireBlockScalar, swapFireBlockScalar,
                                xorRowBlockScalar,  diffOrBlockScalar,
                                counterSiteMaskScalar};

#ifdef QRAMSIM_SIMD_X86

// -------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) void
xorFireAvx2(std::uint64_t *target, const std::uint64_t *rows,
            std::size_t stride, const EnsembleCtrl *ctrls,
            std::size_t nc, const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vmask + w));
        for (std::size_t c = 0; c < nc; ++c) {
            const __m256i row = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    rows + std::size_t(ctrls[c].qubit) * stride + w));
            fire = _mm256_and_si256(
                fire, _mm256_xor_si256(
                          row, _mm256_set1_epi64x(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        __m256i *t = reinterpret_cast<__m256i *>(target + w);
        _mm256_storeu_si256(
            t, _mm256_xor_si256(_mm256_loadu_si256(t), fire));
    }
    if (w < nw)
        xorFireScalar(target + w, rows + w, stride, ctrls, nc,
                      vmask + w, nw - w);
}

__attribute__((target("avx2"))) void
swapFireAvx2(std::uint64_t *t0, std::uint64_t *t1,
             const std::uint64_t *rows, std::size_t stride,
             const EnsembleCtrl *ctrls, std::size_t nc,
             const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vmask + w));
        for (std::size_t c = 0; c < nc; ++c) {
            const __m256i row = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    rows + std::size_t(ctrls[c].qubit) * stride + w));
            fire = _mm256_and_si256(
                fire, _mm256_xor_si256(
                          row, _mm256_set1_epi64x(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        __m256i *p0 = reinterpret_cast<__m256i *>(t0 + w);
        __m256i *p1 = reinterpret_cast<__m256i *>(t1 + w);
        const __m256i v0 = _mm256_loadu_si256(p0);
        const __m256i v1 = _mm256_loadu_si256(p1);
        const __m256i diff =
            _mm256_and_si256(_mm256_xor_si256(v0, v1), fire);
        _mm256_storeu_si256(p0, _mm256_xor_si256(v0, diff));
        _mm256_storeu_si256(p1, _mm256_xor_si256(v1, diff));
    }
    if (w < nw)
        swapFireScalar(t0 + w, t1 + w, rows + w, stride, ctrls, nc,
                       vmask + w, nw - w);
}

__attribute__((target("avx2"))) void
xorRowAvx2(std::uint64_t *dst, const std::uint64_t *src, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i *d = reinterpret_cast<__m256i *>(dst + w);
        _mm256_storeu_si256(
            d, _mm256_xor_si256(
                   _mm256_loadu_si256(d),
                   _mm256_loadu_si256(
                       reinterpret_cast<const __m256i *>(src + w))));
    }
    for (; w < nw; ++w)
        dst[w] ^= src[w];
}

__attribute__((target("avx2"))) std::uint64_t
diffOrAvx2(std::uint64_t *dev, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t nw)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        const __m256i d = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + w)));
        __m256i *dv = reinterpret_cast<__m256i *>(dev + w);
        _mm256_storeu_si256(dv,
                            _mm256_or_si256(_mm256_loadu_si256(dv), d));
        acc = _mm256_or_si256(acc, d);
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::uint64_t any = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    for (; w < nw; ++w) {
        const std::uint64_t d = a[w] ^ b[w];
        dev[w] |= d;
        any |= d;
    }
    return any;
}

// Block kernels: control rows and pre-broadcast polarity vectors are
// hoisted out of the sweep (see the scalar tier note), and the
// broadcast/per-slice kernels keep the shared row in registers
// across shot slices. Arena sweeps have word counts that are
// multiples of kRowAlignWords, so the scalar tails below exist only
// for arbitrary test buffers.

__attribute__((target("avx2"))) void
xorFireBlockAvx2(std::uint64_t *target, const std::uint64_t *rows,
                 std::size_t stride, const EnsembleCtrl *ctrls,
                 std::size_t nc, const std::uint64_t *bmask,
                 std::size_t nw)
{
    if (nc > kCtrlHoist) {
        xorFireAvx2(target, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m256i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm256_set1_epi64x(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bmask + w));
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm256_and_si256(
                fire,
                _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(cr[c] + w)),
                    inv[c]));
        __m256i *t = reinterpret_cast<__m256i *>(target + w);
        _mm256_storeu_si256(
            t, _mm256_xor_si256(_mm256_loadu_si256(t), fire));
    }
    for (; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ ctrls[c].invert;
        target[w] ^= fire;
    }
}

__attribute__((target("avx2"))) void
swapFireBlockAvx2(std::uint64_t *t0, std::uint64_t *t1,
                  const std::uint64_t *rows, std::size_t stride,
                  const EnsembleCtrl *ctrls, std::size_t nc,
                  const std::uint64_t *bmask, std::size_t nw)
{
    if (nc > kCtrlHoist) {
        swapFireAvx2(t0, t1, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m256i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm256_set1_epi64x(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bmask + w));
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm256_and_si256(
                fire,
                _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(cr[c] + w)),
                    inv[c]));
        __m256i *p0 = reinterpret_cast<__m256i *>(t0 + w);
        __m256i *p1 = reinterpret_cast<__m256i *>(t1 + w);
        const __m256i v0 = _mm256_loadu_si256(p0);
        const __m256i v1 = _mm256_loadu_si256(p1);
        const __m256i diff =
            _mm256_and_si256(_mm256_xor_si256(v0, v1), fire);
        _mm256_storeu_si256(p0, _mm256_xor_si256(v0, diff));
        _mm256_storeu_si256(p1, _mm256_xor_si256(v1, diff));
    }
    for (; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ ctrls[c].invert;
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

__attribute__((target("avx2"))) void
xorRowBlockAvx2(std::uint64_t *dst, const std::uint64_t *src,
                std::size_t pw, std::size_t n)
{
    if (pw == 8) {
        // One cache line per slice: both source vectors stay resident.
        const __m256i s0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src));
        const __m256i s1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + 4));
        for (std::size_t s = 0; s < n; ++s, dst += 8) {
            __m256i *d0 = reinterpret_cast<__m256i *>(dst);
            __m256i *d1 = reinterpret_cast<__m256i *>(dst + 4);
            _mm256_storeu_si256(
                d0, _mm256_xor_si256(_mm256_loadu_si256(d0), s0));
            _mm256_storeu_si256(
                d1, _mm256_xor_si256(_mm256_loadu_si256(d1), s1));
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dst += pw)
        xorRowAvx2(dst, src, pw);
}

__attribute__((target("avx2"))) void
diffOrBlockAvx2(std::uint64_t *dev, const std::uint64_t *a,
                const std::uint64_t *b, std::size_t pw, std::size_t n,
                std::uint64_t *anyOut)
{
    if (pw == 8) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + 4));
        for (std::size_t s = 0; s < n; ++s, dev += 8, a += 8) {
            const __m256i d0 = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a)),
                b0);
            const __m256i d1 = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + 4)),
                b1);
            __m256i *v0 = reinterpret_cast<__m256i *>(dev);
            __m256i *v1 = reinterpret_cast<__m256i *>(dev + 4);
            _mm256_storeu_si256(
                v0, _mm256_or_si256(_mm256_loadu_si256(v0), d0));
            _mm256_storeu_si256(
                v1, _mm256_or_si256(_mm256_loadu_si256(v1), d1));
            const __m256i acc = _mm256_or_si256(d0, d1);
            alignas(32) std::uint64_t lanes[4];
            _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                               acc);
            anyOut[s] = lanes[0] | lanes[1] | lanes[2] | lanes[3];
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dev += pw, a += pw)
        anyOut[s] = diffOrAvx2(dev, a, b, pw);
}

// The counter-stream site filter needs the low 64 bits of a 64x64
// multiply per lane, which AVX2 (and AVX-512F without DQ) only has
// as 32x32->64 vpmuludq: lo(a)lo(b) + ((hi(a)lo(b) + lo(a)hi(b)) << 32)
// modulo 2^64 is exactly the wrapped product.

__attribute__((target("avx2"))) inline __m256i
mulConstAvx2(__m256i a, std::uint64_t b)
{
    const __m256i blo = _mm256_set1_epi64x(
        static_cast<long long>(b & 0xffffffffull));
    const __m256i bhi = _mm256_set1_epi64x(
        static_cast<long long>(b >> 32));
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), blo),
                         _mm256_mul_epu32(a, bhi));
    return _mm256_add_epi64(_mm256_mul_epu32(a, blo),
                            _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i
splitMixAvx2(__m256i x)
{
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
    x = mulConstAvx2(x, CounterRng::kMix1);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
    x = mulConstAvx2(x, CounterRng::kMix2);
    return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__attribute__((target("avx2"))) std::uint64_t
counterSiteMaskAvx2(std::uint64_t ctr, const std::uint64_t *cut,
                    std::size_t n)
{
    constexpr std::uint64_t g = CounterRng::kGamma;
    // AVX2 compares signed: flipping both sign bits orders unsigned.
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(std::uint64_t(1) << 63));
    const __m256i step = _mm256_set1_epi64x(
        static_cast<long long>(4 * g));
    __m256i c = _mm256_set_epi64x(static_cast<long long>(ctr + 4 * g),
                                  static_cast<long long>(ctr + 3 * g),
                                  static_cast<long long>(ctr + 2 * g),
                                  static_cast<long long>(ctr + g));
    std::uint64_t mask = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i r = splitMixAvx2(c);
        const __m256i k = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cut + i));
        const __m256i gt =
            _mm256_cmpgt_epi64(_mm256_xor_si256(r, sign),
                               _mm256_xor_si256(k, sign));
        const unsigned le =
            ~static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(gt))) &
            0xfu;
        mask |= std::uint64_t(le) << i;
        c = _mm256_add_epi64(c, step);
    }
    for (; i < n; ++i)
        mask |= std::uint64_t(CounterRng::outputAt(ctr, i + 1) <= cut[i])
                << i;
    return mask;
}

constexpr RowKernels kAvx2 = {xorFireAvx2,      swapFireAvx2,
                              xorRowAvx2,       diffOrAvx2,
                              xorFireBlockAvx2, swapFireBlockAvx2,
                              xorRowBlockAvx2,  diffOrBlockAvx2,
                              counterSiteMaskAvx2};

// ----------------------------------------------------------- AVX-512

__attribute__((target("avx512f"))) void
xorFireAvx512(std::uint64_t *target, const std::uint64_t *rows,
              std::size_t stride, const EnsembleCtrl *ctrls,
              std::size_t nc, const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(vmask + w);
        for (std::size_t c = 0; c < nc; ++c) {
            const __m512i row = _mm512_loadu_si512(
                rows + std::size_t(ctrls[c].qubit) * stride + w);
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(
                          row, _mm512_set1_epi64(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        _mm512_storeu_si512(
            target + w,
            _mm512_xor_si512(_mm512_loadu_si512(target + w), fire));
    }
    if (w < nw)
        xorFireScalar(target + w, rows + w, stride, ctrls, nc,
                      vmask + w, nw - w);
}

__attribute__((target("avx512f"))) void
swapFireAvx512(std::uint64_t *t0, std::uint64_t *t1,
               const std::uint64_t *rows, std::size_t stride,
               const EnsembleCtrl *ctrls, std::size_t nc,
               const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(vmask + w);
        for (std::size_t c = 0; c < nc; ++c) {
            const __m512i row = _mm512_loadu_si512(
                rows + std::size_t(ctrls[c].qubit) * stride + w);
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(
                          row, _mm512_set1_epi64(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        const __m512i v0 = _mm512_loadu_si512(t0 + w);
        const __m512i v1 = _mm512_loadu_si512(t1 + w);
        const __m512i diff =
            _mm512_and_si512(_mm512_xor_si512(v0, v1), fire);
        _mm512_storeu_si512(t0 + w, _mm512_xor_si512(v0, diff));
        _mm512_storeu_si512(t1 + w, _mm512_xor_si512(v1, diff));
    }
    if (w < nw)
        swapFireScalar(t0 + w, t1 + w, rows + w, stride, ctrls, nc,
                       vmask + w, nw - w);
}

__attribute__((target("avx512f"))) void
xorRowAvx512(std::uint64_t *dst, const std::uint64_t *src,
             std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8)
        _mm512_storeu_si512(
            dst + w, _mm512_xor_si512(_mm512_loadu_si512(dst + w),
                                      _mm512_loadu_si512(src + w)));
    for (; w < nw; ++w)
        dst[w] ^= src[w];
}

__attribute__((target("avx512f"))) std::uint64_t
diffOrAvx512(std::uint64_t *dev, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t nw)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        const __m512i d = _mm512_xor_si512(_mm512_loadu_si512(a + w),
                                           _mm512_loadu_si512(b + w));
        _mm512_storeu_si512(
            dev + w,
            _mm512_or_si512(_mm512_loadu_si512(dev + w), d));
        acc = _mm512_or_si512(acc, d);
    }
    std::uint64_t any =
        static_cast<std::uint64_t>(_mm512_reduce_or_epi64(acc));
    for (; w < nw; ++w) {
        const std::uint64_t d = a[w] ^ b[w];
        dev[w] |= d;
        any |= d;
    }
    return any;
}

__attribute__((target("avx512f"))) void
xorFireBlockAvx512(std::uint64_t *target, const std::uint64_t *rows,
                   std::size_t stride, const EnsembleCtrl *ctrls,
                   std::size_t nc, const std::uint64_t *bmask,
                   std::size_t nw)
{
    if (nc > kCtrlHoist) {
        xorFireAvx512(target, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m512i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm512_set1_epi64(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(bmask + w);
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(_mm512_loadu_si512(cr[c] + w),
                                       inv[c]));
        _mm512_storeu_si512(
            target + w,
            _mm512_xor_si512(_mm512_loadu_si512(target + w), fire));
    }
    for (; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ ctrls[c].invert;
        target[w] ^= fire;
    }
}

__attribute__((target("avx512f"))) void
swapFireBlockAvx512(std::uint64_t *t0, std::uint64_t *t1,
                    const std::uint64_t *rows, std::size_t stride,
                    const EnsembleCtrl *ctrls, std::size_t nc,
                    const std::uint64_t *bmask, std::size_t nw)
{
    if (nc > kCtrlHoist) {
        swapFireAvx512(t0, t1, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m512i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm512_set1_epi64(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(bmask + w);
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(_mm512_loadu_si512(cr[c] + w),
                                       inv[c]));
        const __m512i v0 = _mm512_loadu_si512(t0 + w);
        const __m512i v1 = _mm512_loadu_si512(t1 + w);
        const __m512i diff =
            _mm512_and_si512(_mm512_xor_si512(v0, v1), fire);
        _mm512_storeu_si512(t0 + w, _mm512_xor_si512(v0, diff));
        _mm512_storeu_si512(t1 + w, _mm512_xor_si512(v1, diff));
    }
    for (; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ ctrls[c].invert;
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

__attribute__((target("avx512f"))) void
xorRowBlockAvx512(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t pw, std::size_t n)
{
    if (pw == 8) {
        // One ZMM register is the entire slice row.
        const __m512i sv = _mm512_loadu_si512(src);
        for (std::size_t s = 0; s < n; ++s, dst += 8)
            _mm512_storeu_si512(
                dst, _mm512_xor_si512(_mm512_loadu_si512(dst), sv));
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dst += pw)
        xorRowAvx512(dst, src, pw);
}

__attribute__((target("avx512f"))) void
diffOrBlockAvx512(std::uint64_t *dev, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t pw,
                  std::size_t n, std::uint64_t *anyOut)
{
    if (pw == 8) {
        const __m512i bv = _mm512_loadu_si512(b);
        for (std::size_t s = 0; s < n; ++s, dev += 8, a += 8) {
            const __m512i d =
                _mm512_xor_si512(_mm512_loadu_si512(a), bv);
            _mm512_storeu_si512(
                dev, _mm512_or_si512(_mm512_loadu_si512(dev), d));
            anyOut[s] = static_cast<std::uint64_t>(
                _mm512_reduce_or_epi64(d));
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dev += pw, a += pw)
        anyOut[s] = diffOrAvx512(dev, a, b, pw);
}

__attribute__((target("avx512f"))) inline __m512i
mulConstAvx512(__m512i a, std::uint64_t b)
{
    const __m512i blo = _mm512_set1_epi64(
        static_cast<long long>(b & 0xffffffffull));
    const __m512i bhi = _mm512_set1_epi64(static_cast<long long>(b >> 32));
    const __m512i cross =
        _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(a, 32), blo),
                         _mm512_mul_epu32(a, bhi));
    return _mm512_add_epi64(_mm512_mul_epu32(a, blo),
                            _mm512_slli_epi64(cross, 32));
}

__attribute__((target("avx512f"))) inline __m512i
splitMixAvx512(__m512i x)
{
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
    x = mulConstAvx512(x, CounterRng::kMix1);
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
    x = mulConstAvx512(x, CounterRng::kMix2);
    return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

__attribute__((target("avx512f"))) std::uint64_t
counterSiteMaskAvx512(std::uint64_t ctr, const std::uint64_t *cut,
                      std::size_t n)
{
    constexpr std::uint64_t g = CounterRng::kGamma;
    const __m512i step = _mm512_set1_epi64(static_cast<long long>(8 * g));
    __m512i c = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(ctr)),
        _mm512_set_epi64(static_cast<long long>(8 * g),
                         static_cast<long long>(7 * g),
                         static_cast<long long>(6 * g),
                         static_cast<long long>(5 * g),
                         static_cast<long long>(4 * g),
                         static_cast<long long>(3 * g),
                         static_cast<long long>(2 * g),
                         static_cast<long long>(g)));
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < n; i += 8) {
        // The tail step loads (and compares) only the live lanes.
        const __mmask8 live = n - i >= 8
                                  ? __mmask8(0xff)
                                  : __mmask8((1u << (n - i)) - 1);
        const __m512i k = _mm512_maskz_loadu_epi64(live, cut + i);
        const __mmask8 le =
            _mm512_mask_cmple_epu64_mask(live, splitMixAvx512(c), k);
        mask |= std::uint64_t(le) << i;
        c = _mm512_add_epi64(c, step);
    }
    return mask;
}

constexpr RowKernels kAvx512 = {xorFireAvx512,      swapFireAvx512,
                                xorRowAvx512,       diffOrAvx512,
                                xorFireBlockAvx512, swapFireBlockAvx512,
                                xorRowBlockAvx512,  diffOrBlockAvx512,
                                counterSiteMaskAvx512};

#endif // QRAMSIM_SIMD_X86

Tier
detectBestTier()
{
#ifdef QRAMSIM_SIMD_X86
    if (__builtin_cpu_supports("avx512f"))
        return Tier::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Tier::Avx2;
#endif
    return Tier::Scalar;
}

Tier
initialTier()
{
    if (const char *env = std::getenv("QRAMSIM_SIMD")) {
        if (std::strcmp(env, "scalar") == 0)
            return Tier::Scalar;
        if (std::strcmp(env, "avx2") == 0 &&
            tierSupported(Tier::Avx2))
            return Tier::Avx2;
        if (std::strcmp(env, "avx512") == 0 &&
            tierSupported(Tier::Avx512))
            return Tier::Avx512;
        warn("QRAMSIM_SIMD='", env,
             "' unknown or unsupported on this CPU; using ",
             tierName(detectBestTier()));
    }
    return detectBestTier();
}

std::atomic<Tier> &
activeTierSlot()
{
    static std::atomic<Tier> tier{initialTier()};
    return tier;
}

} // namespace

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Scalar: return "scalar";
      case Tier::Avx2:   return "avx2";
      case Tier::Avx512: return "avx512";
    }
    return "?";
}

bool
tierSupported(Tier t)
{
    switch (t) {
      case Tier::Scalar:
        return true;
#ifdef QRAMSIM_SIMD_X86
      case Tier::Avx2:
        return __builtin_cpu_supports("avx2");
      case Tier::Avx512:
        return __builtin_cpu_supports("avx512f");
#endif
      default:
        return false;
    }
}

Tier
bestSupportedTier()
{
    return detectBestTier();
}

const RowKernels &
kernels(Tier t)
{
#ifdef QRAMSIM_SIMD_X86
    if (t == Tier::Avx512)
        return kAvx512;
    if (t == Tier::Avx2)
        return kAvx2;
#endif
    (void)t;
    return kScalar;
}

Tier
activeTier()
{
    return activeTierSlot().load(std::memory_order_relaxed);
}

Tier
setActiveTier(Tier t)
{
    if (!tierSupported(t))
        t = bestSupportedTier();
    activeTierSlot().store(t, std::memory_order_relaxed);
    return t;
}

const RowKernels &
activeKernels()
{
    return kernels(activeTier());
}

} // namespace qramsim::simd
