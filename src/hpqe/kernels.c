/* Native Q2.30 kernels: the SU step, diagonal stretches and the CX swap.
 *
 * The SU step is the scalar one from fxp.py: a plain int64 product of
 * two raws, rounded to nearest with ties to even at bit 30 as
 * (p + 2^29 - 1 + ((p >> 30) & 1)) >> 30, and a saturation of every sum.
 * A product is saturated too, unless every coefficient of the call lies
 * in (-2^30, 2^30], where no product can leave the word's range (the
 * proof is fxp.product_fits). That choice, clip, is made once per call,
 * and each loop body is compiled once for each value of it.
 *
 * Diagonal gates (the machine's sparse mode, which bypasses its second
 * multiplier) are their own kernel, hpqe_diag, which runs a stretch of k
 * of them: in step j each word is multiplied by one of two coefficients,
 * picked by the parity of its stored index under mask j. With the mask
 * 2^t that is a gate on qubit t; the engine passes other masks while it
 * defers CX gates as a relabeling of the stored indices (engine.py), and
 * k = 1 is a single gate. The steps run in order on each word, each with
 * its own products, roundings and saturations, so a stretch gives the
 * bits of k calls of one step; it only reads and writes each word once
 * instead of k times. fxp.py builds this file on first use and falls
 * back to its numpy kernels when the build or the load fails; the tests
 * hold every body to the scalar functions.
 *
 * Every entry takes the base pointers of a state's two contiguous arrays
 * of int32 words, the machine's own, and the index range of the state it
 * computes: words [lo, hi) for a diagonal stretch, pairs [lo, hi) for
 * the SU step, where pair j of qubit t is (word k, word k + 2^t) with k
 * = j + (j & -2^t), j with a 0 inserted at bit t. Only the bodies know
 * where a pair's words are, the numpy ones in fxp.py included, which
 * take each entry's arguments in the same order; fxp.Banks makes every
 * call. Kernels update in place; every output of one element is
 * computed from values read before any of them is written.
 *
 * Every coefficient of a call is a word, a raw in [RAW_MIN, RAW_MAX]:
 * the vector body reads only its low 32 bits, and the portable body's
 * int64 products of two words cannot overflow. No entry checks it: the
 * engine passes only the words of a gateset.GateOp, which are derived
 * from its kind and angle by fxp.quantize, and quantize saturates.
 *
 * Each kernel has two bodies with the same bits. The portable one is
 * plain C loops that widen each word to int64 and narrow it only after
 * its final clip. On x86-64 with GCC an AVX-512F body is compiled too,
 * without any extra compiler flag, and a call takes it when the CPU
 * has AVX-512F; every other call takes the portable one. Defining
 * HPQE_PORTABLE leaves the AVX-512F body out, which is how the tests
 * reach the portable body on any host.
 *
 * Both AVX-512F bodies skip the arithmetic of vectors whose words are
 * all zero: every step maps zero words to zero words, since R(0) = (0 +
 * 2^29 - 1 + 0) >> 30 = 0 and sat(0) = 0 with any coefficient and either
 * clip, so the bits cannot change. From a basis state qubit q enters
 * superposition only at its first dense gate, so most words of QFT's
 * long stretches are zero. The skipped vectors are still stored back as
 * loaded, so every word of the range is written as before: skipping
 * those stores too gained no time on QFT-20, and one build that skipped
 * them read a higher peak RSS (CHANGES.md has the measurements).
 *
 * The AVX-512F SU step also skips the imaginary products of a matrix
 * whose four imaginary parts are all 0 (H, RY): each part of a product
 * is then sat(mul(cr, x)), and its clip is not needed (the proof is at
 * pair_vbody). That variant is one instantiation, beside the two of
 * the complex body. A real matrix (a, b, a, -b) with |a| < 2^30 and
 * |b| < 2^30, both strictly, on a qubit t >= 4 takes a fourth, the
 * butterfly, as H, RY(pi/2) and RY(5 pi/2) do: its two outputs share
 * their products, x' = sat(P + Q) and y' = sat(P - Q) with P = R(a x)
 * and Q = R(b y), so it forms 4 rounded products per pair where the
 * real variant forms 8, with the same bits. Round half to even is odd
 * (R(-p) = -R(p)), and under the strict bound no product or negation
 * leaves the word's range (the proof is at pair_vbody).
 */

#include <stdint.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && !defined(HPQE_PORTABLE)
#define HPQE_AVX512 1
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

/* the real and imaginary parts of cfx_mul(c, x) */
BODY int64_t cmul_re(int64_t cr, int64_t ci, int64_t xr, int64_t xi, const int clip)
{
    return sat(mul(cr, xr, clip) - mul(ci, xi, clip));
}

BODY int64_t cmul_im(int64_t cr, int64_t ci, int64_t xr, int64_t xi, const int clip)
{
    return sat(mul(cr, xi, clip) + mul(ci, xr, clip));
}

/* su_eval on the pairs (x, y) [lo, hi) of qubit t (hpqe_pair_banks): x
 * takes sat(cfx_mul(m00, x) + cfx_mul(m01, y)), y takes
 * sat(cfx_mul(m11, y) + cfx_mul(m10, x)). The 2^t pairs of a row, from
 * one multiple of 2^t to the next, have consecutive words, so the range
 * runs one row at a time. */
BODY void pair_body(int32_t *re, int32_t *im, int t, int64_t lo, int64_t hi,
                    const int64_t *m, const int clip)
{
    int64_t half = 1LL << t;
    for (int64_t j = lo; j < hi;) {
        int64_t end = (j | (half - 1)) + 1;
        end = end < hi ? end : hi;
        for (int64_t k = j + (j & -half), last = k + (end - j); k < last; k++) {
            int64_t ar = re[k], ai = im[k], br = re[k + half], bi = im[k + half];
            int64_t sr = cmul_re(m[0], m[1], ar, ai, clip), si = cmul_im(m[0], m[1], ar, ai, clip);
            int64_t tr = cmul_re(m[6], m[7], br, bi, clip), ti = cmul_im(m[6], m[7], br, bi, clip);
            re[k] = (int32_t)sat(sr + cmul_re(m[2], m[3], br, bi, clip));
            im[k] = (int32_t)sat(si + cmul_im(m[2], m[3], br, bi, clip));
            re[k + half] = (int32_t)sat(tr + cmul_re(m[4], m[5], ar, ai, clip));
            im[k + half] = (int32_t)sat(ti + cmul_im(m[4], m[5], ar, ai, clip));
        }
        j = end;
    }
}

/* word k of [lo, hi) <- cfx_mul(c1 if the parity of k & mask is odd
 * else c0, word k); c holds c0 and c1. The parity is constant across
 * each aligned run of `run` words, `run` the lowest set bit of the mask,
 * so the inner loop has one coefficient. */
BODY void diag_body(int32_t *re, int32_t *im, int64_t lo, int64_t hi, int64_t mask,
                    const int64_t *c, const int clip)
{
    int64_t run = mask & -mask;
    for (int64_t k = lo; k < hi;) {
        int64_t end = run ? (k | (run - 1)) + 1 : hi;
        const int64_t *w = c + 2 * __builtin_parityll(k & mask);
        int64_t cr = w[0], ci = w[1];
        for (end = end < hi ? end : hi; k < end; k++) {
            int64_t xr = re[k], xi = im[k];
            re[k] = (int32_t)cmul_re(cr, ci, xr, xi, clip);
            im[k] = (int32_t)cmul_im(cr, ci, xr, xi, clip);
        }
    }
}

/* body(..., clip) with clip as a compile-time constant */
#define VARIANTS(body, clip, ...)              \
    do {                                       \
        if (clip)                              \
            body(__VA_ARGS__, 1);              \
        else                                   \
            body(__VA_ARGS__, 0);              \
    } while (0)

/* the portable bodies, one instantiation per clip; the vector bodies
 * call them for their remaining words */
static __attribute__((noinline)) void
pair_portable(int32_t *re, int32_t *im, int t, int64_t lo, int64_t hi, const int64_t *m,
              int clip)
{
    VARIANTS(pair_body, clip, re, im, t, lo, hi, m);
}

static __attribute__((noinline)) void
diag_portable(int32_t *re, int32_t *im, int64_t lo, int64_t hi, int64_t mask,
              const int64_t *c, int clip)
{
    VARIANTS(diag_body, clip, re, im, lo, hi, mask, c);
}

/* Steps per pass of hpqe_diag. The vector body keeps 512 bytes of
 * coefficient vectors per step (a pattern and its flip) next to the
 * data, 16 KiB at this cap, inside the L1 data cache; caps of 8, 16, 32
 * and 64 ran stretches of 57 steps at n = 20 at the same speed within
 * noise (0.86-0.96 ns per amplitude per step). The bound under which the
 * vector body skips its clips between steps counts on it (diag_vbody). */
#define DIAG_STEPS 32

/* Words per block of the portable stretch: each block takes every step
 * before the next block is read, so a stretch reads and writes each word
 * of the bank once from memory. 1024 words of re and im are 8 KiB, which
 * stays in any L1 data cache. */
#define DIAG_BLOCK 1024

/* the k steps of a stretch on the words [lo, hi), over blocks of
 * DIAG_BLOCK words; c holds (c0, c1) of each step */
static void diag_steps_portable(int32_t *re, int32_t *im, int64_t lo, int64_t hi,
                                int k, const int64_t *masks, const int64_t *c, int clip)
{
    for (int64_t b = lo; b < hi; b += DIAG_BLOCK) {
        int64_t e = hi - b < DIAG_BLOCK ? hi : b + DIAG_BLOCK;
        for (int j = 0; j < k; j++)
            diag_portable(re, im, b, e, masks[j], c + 4 * j, clip);
    }
}

static void cx_body(int32_t *re, int32_t *im, int n, int control, int target)
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

#ifdef HPQE_AVX512
/* AVX-512F body. A vector holds 16 words; word l of it is word k + l of
 * the bank, k a multiple of 16. vpmuldq (_mm512_mul_epi32) multiplies the
 * signed low halves of the eight 64-bit lanes, so one product vector
 * covers the even words, and the same instruction after a 32-bit right
 * shift of each lane covers the odd ones. Each product is rounded, and
 * with clip clipped, in int64 as in mul(); sums are formed in int64, and
 * the final sat of each output is vpmovsqd (_mm512_cvtsepi64_epi32),
 * whose signed saturation to int32 is exactly [RAW_MIN, RAW_MAX].
 *
 * The body is written with GCC's vector extensions and the builtins the
 * <immintrin.h> intrinsics wrap, because parsing that header alone takes
 * longer than building the rest of this file. */

#define VTARGET __attribute__((target("avx512f")))
#define VBODY static inline __attribute__((always_inline, target("avx512f")))

typedef long long v8q __attribute__((vector_size(64)));     /* __m512i lanes */
typedef int v16d __attribute__((vector_size(64)));
typedef int v8d __attribute__((vector_size(32)));

VBODY v16d vload(const int32_t *p)
{
    v16d v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

VBODY void vstore(int32_t *p, v16d v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

/* one complex coefficient per word: [0] for the even words, [1] for the
 * odd words, each in the low half of a 64-bit lane */
typedef struct {
    v8q re[2], im[2];
} vcoef;

/* sat() of each lane (vpmaxsq, vpminsq) */
VBODY v8q vsat(v8q v)
{
    const v8q zero = {0};
    return __builtin_ia32_pminsq512_mask(
        __builtin_ia32_pmaxsq512_mask(v, zero + RAW_MIN, v, -1), zero + RAW_MAX, v, -1);
}

/* mul() on the low halves of each lane: vpmuldq, then +1 under the
 * mask of lanes whose tie bit 30 is set (vptestmq, masked vpaddq) */
VBODY v8q vmul(v8q c, v8q x, const int clip)
{
    const v8q zero = {0};
    v8q p = __builtin_ia32_pmuldq512_mask((v16d)c, (v16d)x, zero, -1);
    unsigned char tie = __builtin_ia32_ptestmq512(p, zero + (1LL << 30), -1);
    v8q q = p + ((1LL << 29) - 1);
    q = __builtin_ia32_paddq512_mask(q, zero + 1, q, tie) >> 30;
    return clip ? vsat(q) : q;
}

/* cfx_mul(c, x) on the words of half h, before the sat of each part */
VBODY void vcmul(const vcoef *c, int h, v8q xr, v8q xi, v8q *re, v8q *im,
                 const int clip)
{
    *re = vmul(c->re[h], xr, clip) - vmul(c->im[h], xi, clip);
    *im = vmul(c->re[h], xi, clip) + vmul(c->im[h], xr, clip);
}

/* the even and odd halves narrowed with saturation, back in word order */
VBODY v16d vnarrow(v8q even, v8q odd)
{
    const v8d any = {0};
    v8d e = __builtin_ia32_pmovsqd512_mask(even, any, -1);
    v8d o = __builtin_ia32_pmovsqd512_mask(odd, any, -1);
    return __builtin_shufflevector(e, o, 0, 8, 1, 9, 2, 10, 3, 11,
                                   4, 12, 5, 13, 6, 14, 7, 15);
}

/* 1 when every word of v is zero (vptestmd) */
VBODY int vzero(v16d v)
{
    return !__builtin_ia32_ptestmd512(v, v, -1);
}

/* word l takes c1 where the parity of l & mask is odd and c0 elsewhere.
 * It runs a few times per call, before the loops, so one shared copy
 * costs no time; inlined into each of its callers, it made this file
 * build about a quarter slower. */
static VTARGET __attribute__((noinline)) void
vlanes(vcoef *v, int64_t c0r, int64_t c0i, int64_t c1r, int64_t c1i, int64_t mask)
{
    v16d r, i;
    for (int l = 0; l < 16; l++) {
        int one = __builtin_parityll(l & mask);
        r[l] = (int32_t)(one ? c1r : c0r);
        i[l] = (int32_t)(one ? c1i : c0i);
    }
    v->re[0] = (v8q)r;
    v->im[0] = (v8q)i;
    v->re[1] = (v8q)r >> 32;
    v->im[1] = (v8q)i >> 32;
}

/* su_eval on 16 words as sat(cfx_mul(a, own) + cfx_mul(b, other)), one
 * (a, b) per word, stored to (outr, outi). With real, every imaginary
 * part of a and b is 0, and each part of cfx_mul(c, x) is sat(mul(cr,
 * x)) (pair_vbody); clip is 0 then. */
VBODY void vdense16(v16d own_r, v16d own_i, v16d oth_r, v16d oth_i,
                    const vcoef *a, const vcoef *b,
                    int32_t *outr, int32_t *outi, const int real, const int clip)
{
    v8q xr = (v8q)own_r, xi = (v8q)own_i, yr = (v8q)oth_r, yi = (v8q)oth_i;
    v8q or_[2], oi[2];
    for (int h = 0; h < 2; h++) {
        v8q ar, ai, br, bi;
        if (real) {
            ar = vmul(a->re[h], xr, 0);
            ai = vmul(a->re[h], xi, 0);
            br = vmul(b->re[h], yr, 0);
            bi = vmul(b->re[h], yi, 0);
        } else {
            vcmul(a, h, xr, xi, &ar, &ai, clip);
            vcmul(b, h, yr, yi, &br, &bi, clip);
        }
        or_[h] = vsat(ar) + vsat(br);
        oi[h] = vsat(ai) + vsat(bi);
        xr >>= 32;
        xi >>= 32;
        yr >>= 32;
        yi >>= 32;
    }
    vstore(outr, vnarrow(or_[0], or_[1]));
    vstore(outi, vnarrow(oi[0], oi[1]));
}

/* the butterfly on 16 pairs of one row: v holds the x words and the y
 * words (re, im), and each part of x takes sat(P + Q), of y sat(P - Q),
 * with P = R(a x) and Q = R(b y) (pair_vbody) */
VBODY void vfly16(v16d v[2][2], v8q a, v8q b, int32_t *out[2][2])
{
    for (int p = 0; p < 2; p++) {
        v8q x = (v8q)v[0][p], y = (v8q)v[1][p], sum[2], dif[2];
        for (int h = 0; h < 2; h++) {
            v8q P = vmul(a, x, 0), Q = vmul(b, y, 0);
            sum[h] = P + Q;
            dif[h] = P - Q;
            x >>= 32;
            y >>= 32;
        }
        vstore(out[0][p], vnarrow(sum[0], sum[1]));
        vstore(out[1][p], vnarrow(dif[0], dif[1]));
    }
}

/* the word indices 0..15 of a vector */
#define LANES {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

/* y <- su_eval(m10, m11, x, y) is sat(cfx_mul(m11, y) + cfx_mul(m10,
 * x)), so each output word is sat(cfx_mul(a, own) + cfx_mul(b,
 * partner)) with (a, b) = (m00, m01) for x and (m11, m10) for y.
 *
 * A vector of pairs starts at a pair index that is a multiple of its
 * size. On t < 4 it holds 8 whole pairs, the 16 words from k = 2j on:
 * the partner of word l is word l ^ 2^t, and (a, b) alternate with bit t
 * of l. On t >= 4 it holds 16 pairs of one row: a vector of x words at
 * k and one of y words at k + 2^t, each with the coefficients of its
 * own half. The pairs before the first whole vector of the range and
 * after the last run the portable loop.
 *
 * When the own and partner vectors are all zero, so are the outputs
 * (the header's zero rule): the words are stored back as loaded.
 *
 * real says that the four imaginary parts of m are 0, as for H and RY.
 * Then each part of cfx_mul(c, x) is sat(mul(cr, x)) with any clip: the
 * real part is fx_sub(fx_mul(cr, xr), fx_mul(0, xi)), and fx_mul(0, xi)
 * = R(0) = 0, so it is sat(sat(R(cr xr)) - 0) = sat(R(cr xr)); the
 * imaginary part is sat(R(cr xi)) the same way. The sat of each part
 * follows its product at once, so the product's own clip can change no
 * bit (sat(sat(q)) = sat(q)): this body runs with clip 0, the ci
 * products are never formed, and one instantiation serves every real
 * matrix but the butterflies. The portable loops for the ends take clip
 * 0 too, by the same proof.
 *
 * fly says that m is real and (a, b, a, -b), with |a| < 2^30 and |b| <
 * 2^30, and t >= 4 (pair_avx512 checks it). Then the real variant's
 * outputs are x' = sat(sat(R(a x)) + sat(R(b y))) and y' =
 * sat(sat(R(a x)) + sat(R(-b y))) for each part. Every word w has |w| <=
 * 2^31 and |a|, |b| <= 2^30 - 1, so |a w| <= 2^61 - 2^31 and |R(a w)| <=
 * 2^31 - 2: each product's sat is the identity, and so is the negation
 * of one. R rounds p / 2^30 to the nearest integer, ties to the even
 * one, and both choices are mirrored about 0, so R is odd: R(-p) =
 * -R(p). So with P = R(a x) and Q = R(b y), x' = sat(P + Q) and y' =
 * sat(P - Q), and the body forms P and Q once for both outputs
 * (vfly16). The bound must
 * be strict: at a = -2^30 and x = RAW_MIN, R(a x) = 2^31 is past
 * RAW_MAX, and its sat gives 2^31 - 1, which the shared sum would not
 * see; at b = 2^30 and y = RAW_MIN, Q = RAW_MIN, and -Q = 2^31 is not
 * R(-b y)'s saturated 2^31 - 1. The ends take the portable loops with
 * clip 0, as above: every coefficient fits. */
VBODY void pair_vbody(int32_t *re, int32_t *im, int t, int64_t lo, int64_t hi,
                      const int64_t *m, const int real, const int fly, const int clip)
{
    int whole = fly || t >= 4;      /* fly implies t >= 4: no shuffles */
    int64_t half = 1LL << t, lanes = whole ? 0 : half, size = whole ? 16 : 8;
    int outputs = whole ? 2 : 1;
    int64_t first = (lo + size - 1) & -size, last = hi & -size;
    if (first >= last) {
        pair_portable(re, im, t, lo, hi, m, clip);
        return;
    }
    vcoef c[2][2];          /* (a, b) of the x words and of the y words */
    vlanes(&c[0][0], m[0], m[1], m[6], m[7], lanes);
    vlanes(&c[0][1], m[2], m[3], m[4], m[5], lanes);
    vlanes(&c[1][0], m[6], m[7], 0, 0, 0);
    vlanes(&c[1][1], m[4], m[5], 0, 0, 0);
    const v16d partner = (v16d)LANES ^ (int)lanes;
    for (int64_t j = first; j < last; j += size) {
        int64_t k = j + (j & -half);
        int32_t *out[2][2] = {{re + k, im + k}, {re + k + half, im + k + half}};
        v16d v[2][2];
        v[0][0] = vload(re + k);
        v[0][1] = vload(im + k);
        /* the y words, or the partners of the pairs' words */
        for (int p = 0; p < 2; p++)
            v[1][p] = outputs == 2 ? vload(out[1][p]) : __builtin_shuffle(v[0][p], partner);
        if (vzero(v[0][0] | v[0][1] | v[1][0] | v[1][1])) {
            for (int o = 0; o < outputs; o++)
                for (int p = 0; p < 2; p++)
                    vstore(out[o][p], v[o][p]);
            continue;
        }
        if (fly) {
            vfly16(v, c[0][0].re[0], c[0][1].re[0], out);
            continue;
        }
        /* a loop, not two calls: one copy of the step per variant
         * halves the compile time of this body */
#pragma GCC unroll 1
        for (int o = 0; o < outputs; o++)
            vdense16(v[o][0], v[o][1], v[!o][0], v[!o][1], &c[o][0], &c[o][1],
                     out[o][0], out[o][1], real, clip);
    }
    pair_portable(re, im, t, lo, first, m, clip);
    pair_portable(re, im, t, last, hi, m, clip);
}

/* 1 when -2^30 < c < 2^30 */
static inline int below_one(int64_t c)
{
    return -(1LL << 30) < c && c < (1LL << 30);
}

/* four instantiations: the butterfly and real (their clip is 0), and
 * complex with each clip */
static VTARGET void pair_avx512(int32_t *re, int32_t *im, int t, int64_t lo, int64_t hi,
                                const int64_t *m, int clip)
{
    if (m[1] | m[3] | m[5] | m[7])
        VARIANTS(pair_vbody, clip, re, im, t, lo, hi, m, 0, 0);
    else if (t >= 4 && m[4] == m[0] && m[6] == -m[2] && below_one(m[0]) && below_one(m[2]))
        pair_vbody(re, im, t, lo, hi, m, 1, 1, 0);
    else
        pair_vbody(re, im, t, lo, hi, m, 1, 0, 0);
}

/* 1 when every word of a and b lies in [-2^30, 2^30] */
VBODY int vsmall(v16d a, v16d b)
{
    typedef unsigned v16u __attribute__((vector_size(64)));
    const v16u zero = {0};
    return vzero(((v16u)a + (1u << 30) > zero + (1u << 31))
                 | ((v16u)b + (1u << 30) > zero + (1u << 31)));
}

/* The steps of a stretch on whole vectors, DIAG_STEPS of them at most
 * per pass. A vector starts at a stored index that is a multiple of 16,
 * so the parity of its word l under mask j splits into the parity of
 * l & mask, one per-word pattern (c0, c1) of step j for the whole call,
 * and the parity of the index's higher bits under the mask, which flips
 * the pattern of the whole vector. The loop takes two vectors at a time,
 * which gives the core two independent chains of steps to overlap (10%
 * faster on QFT-20 than one). The 16 words of a vector stay in four
 * int64 lane vectors (re and im, even and odd words) through every
 * step. Each step's parts are clipped to the word's range (vsat) before
 * the next step reads them; after the last step vnarrow clips them as it
 * narrows them, and they are stored once. The words of [lo, hi) before
 * the first such index and after the last whole pair of vectors run the
 * portable stretch. A 32-word chunk whose words are all zero stays zero
 * through every step (the header's zero rule), so it is stored back as
 * loaded.
 *
 * unit says that every coefficient (cr, ci) of the call has
 * cr^2 + ci^2 <= 2^60 + 2^50, as a quantized unit complex number does:
 * |c| <= g 2^30 with g = sqrt(1 + 2^-10) < 1 + 2^-11. Then, for vectors
 * whose words all lie in [-2^30, 2^30], no clip of any step can bite, and
 * the steps skip vsat. A word x starts at |x| <= 2^30 sqrt(2); a step
 * gives |x'| <= g |x| + sqrt(2), each rounded product being within 1/2
 * of its exact value, and each of its products and parts is at most
 * g |x| + 1 in magnitude. After DIAG_STEPS = 32 steps |x| is below
 * (2^30 sqrt(2) + 32 sqrt(2)) g^32 < 1.45 * 2^30, far inside the word's
 * range, so every clip is the identity and the bits are unchanged. */
VBODY void diag_vbody(int32_t *re, int32_t *im, int64_t lo, int64_t hi, int k,
                      const int64_t *masks, const int64_t *c, int unit, const int clip)
{
    int64_t first = (lo + 15) & -16;
    first = first < hi ? first : hi;
    int64_t whole = first + ((hi - first) & ~(int64_t)31);
    vcoef v[DIAG_STEPS][2];         /* each step's pattern, and its flip */
    int64_t high[DIAG_STEPS];
    for (int j = 0; j < k; j++) {
        const int64_t *w = c + 4 * j;
        vlanes(&v[j][0], w[0], w[1], w[2], w[3], masks[j]);
        vlanes(&v[j][1], w[2], w[3], w[0], w[1], masks[j]);
        high[j] = masks[j] & ~(int64_t)15;
    }
    for (int64_t i = first; i < whole; i += 32) {
        v16d r[2], m[2];
        v8q xr[4], xi[4];
        for (int u = 0; u < 2; u++) {
            r[u] = vload(re + i + 16 * u);
            m[u] = vload(im + i + 16 * u);
            xr[2 * u] = (v8q)r[u];
            xr[2 * u + 1] = (v8q)r[u] >> 32;
            xi[2 * u] = (v8q)m[u];
            xi[2 * u + 1] = (v8q)m[u] >> 32;
        }
        if (vzero(r[0] | m[0] | r[1] | m[1])) {
            for (int u = 0; u < 2; u++) {
                vstore(re + i + 16 * u, r[u]);
                vstore(im + i + 16 * u, m[u]);
            }
            continue;
        }
        int sat = k > 1 && !(unit && vsmall(r[0], m[0]) && vsmall(r[1], m[1]));
        for (int j = 0; j < k; j++) {
            for (int u = 0; u < 2; u++) {
                const vcoef *w = &v[j][__builtin_parityll((i + 16 * u) & high[j])];
                for (int h = 0; h < 2; h++) {
                    int l = 2 * u + h;
                    if (j && sat) {
                        xr[l] = vsat(xr[l]);
                        xi[l] = vsat(xi[l]);
                    }
                    vcmul(w, h, xr[l], xi[l], &xr[l], &xi[l], clip);
                }
            }
        }
        for (int u = 0; u < 2; u++) {
            vstore(re + i + 16 * u, vnarrow(xr[2 * u], xr[2 * u + 1]));
            vstore(im + i + 16 * u, vnarrow(xi[2 * u], xi[2 * u + 1]));
        }
    }
    diag_steps_portable(re, im, lo, first, k, masks, c, clip);
    diag_steps_portable(re, im, whole, hi, k, masks, c, clip);
}

static VTARGET void diag_avx512(int32_t *re, int32_t *im, int64_t lo, int64_t hi,
                                int k, const int64_t *masks, const int64_t *c, int clip)
{
    int unit = 1;
    for (int j = 0; j < 2 * k; j++) {
        const int64_t *w = c + 2 * j;
        unit &= (uint64_t)(w[0] * w[0]) + (uint64_t)(w[1] * w[1])
                <= (1ULL << 60) + (1ULL << 50);
    }
    VARIANTS(diag_vbody, clip, re, im, lo, hi, k, masks, c, unit);
}

/* CX on 16-word blocks, n >= 4. With 2^target >= 16 a block whose target
 * bit is clear swaps with the block 2^target above it; with a smaller
 * target each word of a block takes word l ^ 2^target of the same block.
 * With 2^control >= 16 only blocks whose control bit is set change;
 * with a smaller control only their words whose control bit is set
 * (`on`: -1 on those words, 0 elsewhere). */
static VTARGET void cx_avx512(int32_t *re, int32_t *im, int n, int control, int target)
{
    const v16d lane = LANES;
    int64_t size = 1LL << n, cbit = 1LL << control, tbit = 1LL << target;
    v16d on = control < 4 ? (lane & (int)cbit) != 0 : lane >= 0;
    int64_t clear = target >= 4 ? tbit : 0, set = control >= 4 ? cbit : 0;
    int32_t *comp[2] = {re, im};
    for (int64_t i = 0; i < size;) {
        if (i & clear) {                        /* skip the run with the target bit set */
            i = (i | (clear - 1)) + 1;
            continue;
        }
        if ((i & set) != set) {                 /* skip the run with the control bit clear */
            i = (i | (set - 1)) + 1;
            continue;
        }
        for (int c = 0; c < 2; c++) {
            v16d a = vload(comp[c] + i);
            if (target < 4) {
                v16d b = __builtin_shuffle(a, lane ^ (int)tbit);
                vstore(comp[c] + i, (b & on) | (a & ~on));
            } else {
                v16d b = vload(comp[c] + i + tbit);
                vstore(comp[c] + i, (b & on) | (a & ~on));
                vstore(comp[c] + i + tbit, (a & on) | (b & ~on));
            }
        }
        i += 16;
    }
}

static int have_avx512(void)
{
    return __builtin_cpu_supports("avx512f");
}
#endif

/* 1 when fxp.product_fits every one of the k coefficients: each lies in
 * (-2^30, 2^30], so no product needs a clip */
static int all_fit(const int64_t *c, int k)
{
    int all = 1;
    for (int j = 0; j < k; j++)
        all &= -(1LL << 30) < c[j] && c[j] <= (1LL << 30);
    return all;
}

/* SU step on the pairs [lo, hi) of qubit t: pair j, the words k = j +
 * (j & -2^t) and k + 2^t of re and im, <- su_eval of the pair. coefs
 * holds m00, m01, m10, m11 as (re, im) int64 pairs. */
void hpqe_pair_banks(int32_t *re, int32_t *im, int t, int64_t lo, int64_t hi,
                     const void *coefs)
{
    int64_t m[8];
    __builtin_memcpy(m, coefs, sizeof m);
    int clip = !all_fit(m, 8);
#ifdef HPQE_AVX512
    if (have_avx512()) {
        pair_avx512(re, im, t, lo, hi, m, clip);
        return;
    }
#endif
    pair_portable(re, im, t, lo, hi, m, clip);
}

/* A stretch of k diagonal steps on the words [lo, hi): for j = 0, ...,
 * k-1 in order, word i of re and im <- cfx_mul(c1 of step j if the
 * parity of i & masks[j] is odd else c0 of step j, word i). masks holds k
 * int64 masks, coefs the k steps' (c0, c1) as (re, im) int64 pairs. One
 * clip, and one body, serve every step of the call; a longer stretch
 * runs as passes of DIAG_STEPS steps. */
void hpqe_diag(int32_t *re, int32_t *im, int64_t lo, int64_t hi, int64_t k,
               const void *masks, const void *coefs)
{
    for (int64_t j = 0; j < k; j += DIAG_STEPS) {
        int steps = k - j < DIAG_STEPS ? (int)(k - j) : DIAG_STEPS;
        int64_t m[DIAG_STEPS], c[4 * DIAG_STEPS];
        __builtin_memcpy(m, (const int64_t *)masks + j, steps * sizeof *m);
        __builtin_memcpy(c, (const int64_t *)coefs + 4 * j, 4 * steps * sizeof *c);
        int clip = !all_fit(c, 4 * steps);
#ifdef HPQE_AVX512
        if (have_avx512()) {
            diag_avx512(re, im, lo, hi, steps, m, c, clip);
            continue;
        }
#endif
        diag_steps_portable(re, im, lo, hi, steps, m, c, clip);
    }
}

/* CX on an n-qubit state: swap word i with word i | 2^target for every i
 * whose control bit is set and target bit is clear, in re and in im. */
void hpqe_cx(int32_t *re, int32_t *im, int n, int control, int target)
{
#ifdef HPQE_AVX512
    if (n >= 4 && have_avx512()) {
        cx_avx512(re, im, n, control, target);
        return;
    }
#endif
    cx_body(re, im, n, control, target);
}
