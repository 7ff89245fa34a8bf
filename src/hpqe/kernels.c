/* Native Q2.30 kernels: the sparse and dense SU steps and the CX swap.
 *
 * Each step is the scalar one from fxp.py: a plain int64 product of two
 * raws, rounded to nearest with ties to even at bit 30 as
 * (p + 2^29 - 1 + ((p >> 30) & 1)) >> 30, and a saturation of every sum.
 * A product is saturated too, unless every coefficient of the call lies
 * in (-2^30, 2^30], where no product can leave the word's range (the
 * proof is fxp.product_fits). That choice is made once per call, and
 * each loop body is compiled twice, with and without the product clips.
 * fxp.py builds this file on first use and falls back to its numpy
 * kernels when the build or the load fails; the tests hold both to the
 * scalar functions.
 *
 * Arrays are int32 words, the machine's own, with unit stride inside a
 * row; each word is widened to int64 inside the loop and narrowed only
 * after its final clip. Kernels update in place; every output of one
 * element is computed from values read before any of them is written.
 */

#include <stdint.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
/* one build for every x86-64 host: the loader picks the clone the CPU runs */
#define KERNEL __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define KERNEL
#endif

#define BODY static inline __attribute__((always_inline))

#define RAW_MIN (-2147483647LL - 1)
#define RAW_MAX 2147483647LL

static inline int64_t sat(int64_t v)
{
    return v < RAW_MIN ? RAW_MIN : v > RAW_MAX ? RAW_MAX : v;
}

/* fx_mul; the saturation is dropped when clip is 0 */
BODY int64_t mul(int64_t a, int64_t b, const int clip)
{
    int64_t p = a * b;
    int64_t q = (p + (1LL << 29) - 1 + ((p >> 30) & 1)) >> 30;
    return clip ? sat(q) : q;
}

/* fxp.product_fits */
static inline int fits(int64_t c)
{
    return -(1LL << 30) < c && c <= (1LL << 30);
}

/* the real and imaginary parts of cfx_mul(c, x) */
BODY int64_t cmul_re(int64_t cr, int64_t ci, int64_t xr, int64_t xi, const int clip)
{
    return sat(mul(cr, xr, clip) - mul(ci, xi, clip));
}

BODY int64_t cmul_im(int64_t cr, int64_t ci, int64_t xr, int64_t xi, const int clip)
{
    return sat(mul(cr, xi, clip) + mul(ci, xr, clip));
}

BODY void scale_body(int32_t *re, int32_t *im, int64_t len, int t,
                     int64_t c0r, int64_t c0i, int64_t c1r, int64_t c1i,
                     const int clip)
{
    for (int64_t k = 0; k < len; k++) {
        int64_t odd = -((k >> t) & 1);
        int64_t cr = c0r ^ ((c0r ^ c1r) & odd), ci = c0i ^ ((c0i ^ c1i) & odd);
        int64_t xr = re[k], xi = im[k];
        re[k] = (int32_t)cmul_re(cr, ci, xr, xi, clip);
        im[k] = (int32_t)cmul_im(cr, ci, xr, xi, clip);
    }
}

/* Sparse SU step over one bank of len words: x[k] <- cfx_mul(c, x[k]),
 * c = (c1r, c1i) where bit t of k is set and (c0r, c0i) elsewhere. The
 * coefficient is picked by a mask, so every t runs one vector loop. */
KERNEL void hpqe_scale_bank(int32_t *re, int32_t *im, int64_t len, int t,
                            int64_t c0r, int64_t c0i, int64_t c1r, int64_t c1i)
{
    if (t > 62)         /* len < 2^62: bit t of every k is clear */
        t = 62;
    if (fits(c0r) && fits(c0i) && fits(c1r) && fits(c1i))
        scale_body(re, im, len, t, c0r, c0i, c1r, c1i, 0);
    else
        scale_body(re, im, len, t, c0r, c0i, c1r, c1i, 1);
}

BODY void pair_body(int32_t *xr, int32_t *xi, int32_t *yr, int32_t *yi,
                    int64_t rows, int64_t width, int64_t stride,
                    const int64_t *m, const int clip)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t k = r * stride; k < r * stride + width; k++) {
            /* su_eval on the pair (x[k], y[k]) of each component */
            int64_t ar = xr[k], ai = xi[k], br = yr[k], bi = yi[k];
            xr[k] = (int32_t)sat(cmul_re(m[0], m[1], ar, ai, clip)
                                 + cmul_re(m[2], m[3], br, bi, clip));
            xi[k] = (int32_t)sat(cmul_im(m[0], m[1], ar, ai, clip)
                                 + cmul_im(m[2], m[3], br, bi, clip));
            yr[k] = (int32_t)sat(cmul_re(m[4], m[5], ar, ai, clip)
                                 + cmul_re(m[6], m[7], br, bi, clip));
            yi[k] = (int32_t)sat(cmul_im(m[4], m[5], ar, ai, clip)
                                 + cmul_im(m[6], m[7], br, bi, clip));
        }
}

/* Dense SU step over pair views: for each row r and each k in
 * [r*stride, r*stride + width), (x[k], y[k]) <- su_eval of the pair. */
KERNEL void hpqe_pair_banks(int32_t *xr, int32_t *xi, int32_t *yr, int32_t *yi,
                            int64_t rows, int64_t width, int64_t stride,
                            const int64_t *c)
{
    const int64_t m[8] = {c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]};
    int all_fit = 1;
    for (int j = 0; j < 8; j++)
        all_fit &= fits(m[j]);
    if (all_fit)
        pair_body(xr, xi, yr, yi, rows, width, stride, m, 0);
    else
        pair_body(xr, xi, yr, yi, rows, width, stride, m, 1);
}

/* CX on an n-qubit state: swap word i with word i | 2^target for every i
 * whose control bit is set and target bit is clear, in re and in im. */
KERNEL void hpqe_cx(int32_t *re, int32_t *im, int n, int control, int target)
{
    int lo = control < target ? control : target;
    int hi = control < target ? target : control;
    int64_t size = 1LL << n, cbit = 1LL << control, tbit = 1LL << target;
    for (int64_t a = 0; a < size; a += 2LL << hi)
        for (int64_t b = a; b < a + (1LL << hi); b += 2LL << lo)
            for (int64_t i = b | cbit, end = i + (1LL << lo); i < end; i++) {
                int64_t j = i | tbit;
                int32_t v;
                v = re[i]; re[i] = re[j]; re[j] = v;
                v = im[i]; im[i] = im[j]; im[j] = v;
            }
}
