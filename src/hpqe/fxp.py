"""Saturating Q2.30 fixed-point arithmetic.

Single source of truth for the accelerator's numeric word: a 32-bit
two's-complement integer read as value = raw * 2^-30 (2 integer bits,
30 fractional bits). Every operation saturates to [-2.0, 2.0 - 2^-30]
instead of wrapping, and every narrowing step rounds to nearest with
ties to even, so results are reproducible bit for bit.

Scalar functions (plain Python ints) define the semantics. Bank
kernels apply them in place to a flat state's two arrays of WORD, the
machine's 32-bit word, and the test suite proves them bit-identical to
the scalars: the SU step on amplitude pairs (`Banks.pair`), a stretch
of diagonal (sparse) steps, each of which multiplies each word by one
of two coefficients picked by the parity of its stored index under its
mask (`Banks.diag`), and the CX swap (`Banks.cx`). The stretch runs
every step on a word, in order, before the next word, so it reads and
writes the bank once for all its steps. `Banks` binds the two arrays
to the kernels once, so that the engine computes each piece of a gate
with one call on an index range of the whole state (words for a
stretch, amplitude pairs for the SU step), and it is the only code that
calls the native library. Each kernel has two bodies:

  * native: `kernels.c`, compiled with the system C compiler on the
    first kernel call (never at import) and cached in the package's
    __pycache__ under a hash of the source and the flags; see
    `native_kernels`. It holds an AVX-512F body, taken per call on a
    CPU that has it, and portable C loops for every other host.
  * numpy: `pair_banks` and `diag`, and a swap of views for the CX; the
    fallback where the library cannot be built or loaded, and for
    arrays the native body does not take. They copy each bank BLOCK
    elements at a time into int64 rows of one scratch array, allocated
    per call so that concurrent calls share none, compute there (every
    step of a stretch) and narrow on write-back; their temporaries are
    bounded by the block, not by the state.

Both round each real product as (p + 2^29 - 1 + ((p >> 30) & 1)) >> 30,
which is fx_mul's round-half-even, and saturate every sum as fx_add /
fx_sub do. They skip only steps that provably cannot change a bit: a
zero coefficient's product, which is exactly 0 (the numpy body decides
it per coefficient), and a product's clip when its coefficient lies in
(-2^30, 2^30] (see `product_fits`; the numpy body decides per
coefficient, the native one once per call for all of them, every step
of a stretch included). The native vector body also skips the clips
between the steps of a stretch where they cannot bite: on words in
[-2^30, 2^30] under coefficients of magnitude at most about 1 (the
proof is in `kernels.c`).

Which body ran never shows in the results. `quantize_array` is
`quantize` over an array. Golden values and oracles use the scalars.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import struct
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

FRAC = 30
SCALE = 1 << FRAC
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1
FRAC_MASK = SCALE - 1
HALF_ULP = 1 << (FRAC - 1)

WORD = np.int32           # the stored word of a state or a bank

RAW_ONE = SCALE                  # quantize(1.0)
RAW_SQRT_HALF = 759250125        # quantize(1/sqrt(2)), frozen golden value

DENSE = "dense"
SPARSE = "sparse"


class CFx(NamedTuple):
    """Complex amplitude as a pair of raw Q2.30 components."""

    re: int
    im: int


CFX_ZERO = CFx(0, 0)
CFX_ONE = CFx(RAW_ONE, 0)


def saturate(raw: int) -> int:
    if raw > RAW_MAX:
        return RAW_MAX
    if raw < RAW_MIN:
        return RAW_MIN
    return raw


def quantize(x: float) -> int:
    """Round x to the nearest representable raw value (ties to even)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    if abs(x) >= 4.0:
        return RAW_MAX if x > 0 else RAW_MIN
    # x * SCALE is exact in float64 (power-of-two scaling); round() is
    # round-half-even on floats.
    return saturate(round(x * SCALE))


def quantize_array(x) -> np.ndarray:
    """quantize() of every element of a float array, as int64 raws.

    x * SCALE is exact and np.rint rounds ties to even, as round() does.
    Values with |x| >= 4 are first clipped to +-4, which then saturates
    exactly as quantize() does, without overflowing the product.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    scaled = np.rint(np.clip(x, -4.0, 4.0) * SCALE)
    return np.clip(scaled, RAW_MIN, RAW_MAX).astype(np.int64)


def to_real(raw: int) -> float:
    return raw / SCALE


def quantize_complex(z: complex) -> CFx:
    return CFx(quantize(z.real), quantize(z.imag))


def fx_add(a: int, b: int) -> int:
    return saturate(a + b)


def fx_sub(a: int, b: int) -> int:
    return saturate(a - b)


def fx_mul(a: int, b: int) -> int:
    """Exact 64-bit product, shifted down 30 with round-half-even."""
    p = a * b
    q = p >> FRAC           # floor; remainder below is non-negative
    r = p & FRAC_MASK
    if r > HALF_ULP or (r == HALF_ULP and q & 1):
        q += 1
    return saturate(q)


def cfx_add(a: CFx, b: CFx) -> CFx:
    return CFx(fx_add(a.re, b.re), fx_add(a.im, b.im))


def cfx_mul(a: CFx, b: CFx) -> CFx:
    """Schoolbook complex multiply: 4 real multiplies, 2 adds."""
    re = fx_sub(fx_mul(a.re, b.re), fx_mul(a.im, b.im))
    im = fx_add(fx_mul(a.re, b.im), fx_mul(a.im, b.re))
    return CFx(re, im)


def su_eval(c0: CFx, c1: CFx, x: CFx, y: CFx, op: str = DENSE) -> CFx:
    """One Special Unit step: c0*x + c1*y (dense) or c0*x (sparse).

    Sparse mode bypasses the second multiplier, as the hardware does
    for diagonal gates.
    """
    if op == SPARSE:
        return cfx_mul(c0, x)
    if op != DENSE:
        raise ValueError(f"unknown SU mode {op!r}")
    return cfx_add(cfx_mul(c0, x), cfx_mul(c1, y))


# ---------------------------------------------------------------------------
# Native kernels. The library is built once per process, on the first
# kernel call: a failed build or load (no compiler, an unwritable cache,
# a library the loader rejects) leaves the numpy bodies in use, silently.
# ---------------------------------------------------------------------------

NATIVE_SOURCE = Path(__file__).with_name("kernels.c")
NATIVE_CACHE = NATIVE_SOURCE.parent / "__pycache__"
NATIVE_CC = "cc"
NATIVE_FLAGS = ("-O3", "-shared", "-fPIC")

_native_lock = threading.Lock()
_native: list = []       # empty until the first call, then [CDLL or None]


def native_kernels():
    """The compiled kernels as a ctypes.CDLL, or None.

    The first call builds `kernels.c` with NATIVE_CC and NATIVE_FLAGS
    into NATIVE_CACHE, unless a library built from the same source and
    flags is already there, and loads it. The result, library or None,
    is kept for the life of the process. ctypes releases the GIL during
    a call, so worker threads run the kernels in parallel.
    """
    with _native_lock:
        if not _native:
            _native.append(_load_native())
        return _native[0]


def _load_native():
    import hashlib

    try:
        key = hashlib.sha256(NATIVE_SOURCE.read_bytes())
        key.update(repr(NATIVE_FLAGS).encode())
        path = NATIVE_CACHE / f"kernels-{key.hexdigest()[:16]}.so"
        if not path.is_file() and not _build_native(path):
            return None
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    ptr, i64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
    coefs = ctypes.c_char_p          # the bytes of `_coefs`, passed without a copy
    lib.hpqe_pair_banks.argtypes = [ptr, ptr, i32, i64, i64, coefs]
    lib.hpqe_diag.argtypes = [ptr, ptr, i64, i64, i64, coefs, coefs]
    lib.hpqe_cx.argtypes = [ptr, ptr, i32, i32, i32]
    for fn in (lib.hpqe_pair_banks, lib.hpqe_diag, lib.hpqe_cx):
        fn.restype = None
    return lib


def _build_native(path: Path) -> bool:
    # compile kernels.c into path; False if the compiler fails, OSError if
    # it cannot run or the cache cannot be written
    import subprocess
    import tempfile

    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    # build under a unique name and move it into place, so that processes
    # building at once never load a half-written file
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=NATIVE_CACHE)
    os.close(fd)
    try:
        subprocess.run([NATIVE_CC, *NATIVE_FLAGS, "-o", tmp, str(NATIVE_SOURCE)],
                       check=True, timeout=300, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.chmod(tmp, 0o755)     # mkstemp made it private to this user
        os.replace(tmp, path)
    except subprocess.SubprocessError:
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # drop the libraries of earlier sources or flags; the mkstemp names of
    # builds still running elsewhere do not match the pattern
    for stale in NATIVE_CACHE.glob("kernels-*.so"):
        if stale != path:
            with contextlib.suppress(OSError):
                stale.unlink()
    return True


# ---------------------------------------------------------------------------
# Numpy bank kernels (blocked, in place) -- bit-identical to the scalar
# forms. Products of two in-range raws fit in 62 bits, so int64 is exact.
# A bank is processed BLOCK elements at a time: each block is copied into
# int64 rows of the call's scratch array of SCRATCH_ROWS x BLOCK words,
# computed there and narrowed back to the bank only after its final clip.
# Writing an int64 result into a WORD bank through a ufunc's `out=` would
# wrap silently before any clip. The temporaries stay bounded by the
# block whatever the bank size.
# ---------------------------------------------------------------------------

BLOCK = 1 << 16          # elements per kernel step
SCRATCH_ROWS = 8         # int64 buffers of BLOCK words each kernel may use


def new_scratch() -> np.ndarray:
    """Scratch for one call of a numpy kernel body."""
    return np.empty((SCRATCH_ROWS, BLOCK), dtype=np.int64)


def product_fits(c: int) -> bool:
    """True when fx_mul(c, x) needs no saturation for any in-range x.

    For c in (-2^30, 2^30): |c*x| / 2^30 <= (2^30 - 1) * 2^31 / 2^30
    = 2^31 - 2, so even after rounding the result stays inside
    [RAW_MIN, RAW_MAX]. For c = 2^30 the product is x itself. For
    c = -2^30 (RZ(2*pi) yields it) and x = RAW_MIN the result is 2^31,
    which saturates, so that coefficient keeps its clip.
    """
    return -SCALE < c <= SCALE


def _prod(c, v, out, t):
    # out <- fx_mul(c, v) and return out; c is an int, or a _PerWord with
    # one coefficient per word of v. None stands for an exact 0 when c is
    # zero. v is read in full before out is written, so out may be v.
    if isinstance(c, _PerWord):
        c, fits = c
    elif c == 0:
        return None
    else:
        fits = product_fits(c)
    np.multiply(v, c, out=t)
    np.right_shift(t, FRAC, out=out)
    out &= 1
    out += HALF_ULP - 1
    out += t
    out >>= FRAC
    if not fits:
        np.clip(out, RAW_MIN, RAW_MAX, out=out)
    return out


def _sum_into(p, q, sub: bool, out):
    # out <- fx_sub(p, q) if sub else fx_add(p, q), and return out; None
    # is an exact 0, and two of them sum to None. p is out or None (every
    # caller passes it so), so a q of None leaves out holding p. Adding 0
    # to an in-range word needs no saturation, and negating one can only
    # overflow at -RAW_MIN.
    if p is None and q is None:
        return None
    if p is None:
        if sub:
            np.negative(q, out=out)
            np.minimum(out, RAW_MAX, out=out)
        else:
            out[...] = q
    elif q is not None:
        (np.subtract if sub else np.add)(p, q, out=out)
        np.clip(out, RAW_MIN, RAW_MAX, out=out)
    return out


def _cmul_part(c, xr, xi, imag: bool, out, s, t):
    # out <- the real or imaginary part of cfx_mul(c, x), c a CFx or a
    # pair of per-word parts (see _prod); out may be xr (imag=False) or
    # xi (imag=True)
    if imag:
        return _sum_into(_prod(c[0], xi, out, t), _prod(c[1], xr, s, t),
                         False, out)
    return _sum_into(_prod(c[0], xr, out, t), _prod(c[1], xi, s, t),
                     True, out)


def block_slices(shape, block: int):
    """Index expressions cutting an array of this shape into pieces.

    Every axis after the first has a power-of-two length; each piece
    holds at most `block` (a power of two) elements: whole rows along
    the first axis while a row is narrower than the block, pieces of
    one row otherwise.
    """
    if len(shape) == 1:
        for lo in range(0, shape[0], block):
            yield slice(lo, lo + block)
        return
    width = math.prod(shape[1:])
    if width >= block:
        for r in range(shape[0]):
            for sl in block_slices(shape[1:], block):
                yield (r, *sl) if isinstance(sl, tuple) else (r, sl)
        return
    step = block // width
    for lo in range(0, shape[0], step):
        yield slice(lo, lo + step)


def _coefs(*cs: CFx) -> bytes:
    # the (re, im) parts of the coefficients as the native kernels read them
    return struct.pack(f"<{2 * len(cs)}q", *itertools.chain.from_iterable(cs))


def pair_banks(c00: CFx, c01: CFx, c10: CFx, c11: CFx,
               xr: np.ndarray, xi: np.ndarray, yr: np.ndarray, yi: np.ndarray) -> None:
    """SU step over paired banks, in place: the numpy body of `Banks.pair`.

    x <- su_eval(c00, c01, x, y) and y <- su_eval(c10, c11, x, y), both
    from the old x and y. The four integer arrays share one shape: 1-D of
    any length, or 2-D (strided views of the pair halves inside a bank).
    It allocates its scratch (`new_scratch`) per call, copies each block
    of x and y into it as int64, sums each output there and narrows it
    on write-back.
    """
    gxr, gxi, gyr, gyi, acc, y, s, tmp = new_scratch()
    outputs = ((c00, c01, xr, False), (c00, c01, xi, True),
               (c10, c11, yr, False), (c10, c11, yi, True))
    for sl in block_slices(xr.shape, BLOCK):
        shape = xr[sl].shape
        m = xr[sl].size
        g = [buf[:m].reshape(shape) for buf in (gxr, gxi, gyr, gyi)]
        for dst, src in zip(g, (xr, xi, yr, yi)):
            np.copyto(dst, src[sl])
        a, b, s_, t_ = (buf[:m].reshape(shape) for buf in (acc, y, s, tmp))
        for ca, cb, out, imag in outputs:
            # one part of su_eval: fx_add(cfx_mul(ca, x), cfx_mul(cb, y))
            part = _sum_into(_cmul_part(ca, g[0], g[1], imag, a, s_, t_),
                             _cmul_part(cb, g[2], g[3], imag, b, s_, t_),
                             False, a)
            out[sl] = 0 if part is None else part


class _PerWord(NamedTuple):
    """The coefficients of a diagonal step's words, one per word."""

    words: np.ndarray       # int64
    fits: bool              # product_fits of every one


def _per_word(a: int, b: int, odd, out):
    # a where odd is 0 and b where it is 1: a plain int when a == b
    if a == b:
        return a
    np.multiply(odd, b - a, out=out)
    out += a
    return _PerWord(out, product_fits(a) and product_fits(b))


def _parity_pattern(mask: int, length: int, out) -> None:
    # out[k] <- parity(k & mask) for k < length, a power of two, built by
    # doubling: the second half of each prefix is the first half, flipped
    # where the prefix's new top bit is in the mask
    out[0] = 0
    w = 1
    while w < length:
        if mask & w:
            np.subtract(1, out[:w], out=out[w:2 * w])
        else:
            out[w:2 * w] = out[:w]
        w <<= 1


def _steps(steps) -> tuple:
    # (k, masks, coefficients) of a stretch as hpqe_diag reads them
    return (len(steps), struct.pack(f"<{len(steps)}q", *(m for _, _, m in steps)),
            _coefs(*itertools.chain.from_iterable(c[:2] for c in steps)))


def diag(steps, re: np.ndarray, im: np.ndarray, lo: int, hi: int) -> None:
    """A stretch of diagonal steps over the words [lo, hi) of a state, in
    place: the numpy body of `Banks.diag`.

    steps is a sequence of (c0, c1, mask), run in order. In each step
    word k <- cfx_mul(c1, word) where the parity of k & mask is odd and
    cfx_mul(c0, word) where it is even. With mask = 2^t a step is a
    diagonal gate on qubit t; the masks are non-negative. re and im are
    the state's 1-D integer arrays, of one length, and 0 <= lo <= hi <=
    that length. Every step keeps its own products, roundings and
    saturations, so a stretch gives the bits of its steps run one call
    each; it only reads and writes each word once.

    It cuts the range at multiples of a period P (a power of two, at
    most BLOCK) of the word index, loads each piece into int64 scratch
    once, runs every step on it there and narrows it back once. In a
    step, the parity of the mask's bits below P is one pattern for every
    piece, and the bits above it flip the pattern of a whole piece.
    """
    period = min(BLOCK, 1 << (hi - lo - 1).bit_length())
    row_r, row_i, row_a, pattern, coef_re, coef_im, s, tmp = new_scratch()
    for first in range((lo // period) * period, hi, period):
        start, end = max(first, lo), min(first + period, hi)
        m = end - start
        # the piece's real and imaginary parts, and a free row
        xr, xi, acc = row_r[:m], row_i[:m], row_a[:m]
        np.copyto(xr, re[start:end])
        np.copyto(xi, im[start:end])
        for c0, c1, mask in steps:
            a, b = (c1, c0) if bin(first & mask).count("1") & 1 else (c0, c1)
            if a != b and mask & (period - 1):
                _parity_pattern(mask, period, pattern)
                odd = pattern[start - first:end - first]
                cr, ci = (_per_word(a[j], b[j], odd, row[:m])
                          for j, row in ((0, coef_re), (1, coef_im)))
            else:
                cr, ci = a
            # the real part into the free row, then the imaginary part in
            # place: it reads the old real part too
            for dst, imag in ((acc, False), (xi, True)):
                if _cmul_part((cr, ci), xr, xi, imag, dst, s[:m], tmp[:m]) is None:
                    dst[...] = 0
            xr, acc = acc, xr
        re[start:end] = xr
        im[start:end] = xi


class Banks:
    """A flat state's two WORD arrays, bound to the bank kernels once.

    `pair` and `diag` compute a piece of a gate named by an index range
    of the whole state, and `cx` a whole CX. This is the only code that
    calls the native library: where it is loaded and both arrays are
    writable, C-contiguous 1-D WORD arrays of one length, each call is
    one foreign call on the base addresses taken here and the range,
    with no views and no per-call checks of the arrays. Anything else (no
    library, a wider integer type, a read-only or strided array) runs the
    numpy bodies: `pair_banks` on views of the piece, `diag` on the two
    arrays and the range, and the CX as a swap of views. Pieces that
    share no word may run at once.

    Every coefficient passed to `pair` and `diag` is a word, a raw in
    [RAW_MIN, RAW_MAX]; no body checks it. `engine._check_single` checks
    it for every gate before any kernel call.
    """

    def __init__(self, re: np.ndarray, im: np.ndarray):
        self.re, self.im = re, im
        lib = native_kernels()
        self._lib = None
        if lib is not None and re.shape == im.shape and all(
                a.dtype == WORD and a.ndim == 1 and a.flags.c_contiguous
                and a.flags.writeable for a in (re, im)):
            self._lib = lib
            # the address of each first word: a ctypes view of the buffer
            # costs a fifth of `ndarray.ctypes.data`
            self._addr = tuple(ctypes.addressof(ctypes.c_char.from_buffer(a))
                               for a in (re, im))

    def pair(self, m: tuple, t: int, lo: int, hi: int) -> None:
        """`pair_banks` with m = (m00, m01, m10, m11) on the pairs [lo, hi) of
        qubit t: pair j is word k = j + (j & -2^t), j with a 0 inserted at
        bit t, and word k + 2^t.

        Without the library the range is at most three `pair_banks`
        calls: the part of a row (2^t pairs of consecutive words) before
        the first row boundary, the whole rows after it as one 2-D view,
        and the part of a row after the last boundary.
        """
        if self._lib is not None:
            self._lib.hpqe_pair_banks(*self._addr, t, lo, hi, _coefs(*m))
            return
        half = 1 << t
        first = min((lo + half - 1) & -half, hi)
        last = max(hi & -half, first)
        for j, end in ((lo, first), (last, hi)):
            if j < end:
                k = j + (j & -half)
                pair_banks(*m, *(a[h:h + end - j] for h in (k, k + half)
                                 for a in (self.re, self.im)))
        if first < last:
            pair_banks(*m, *(a[2 * first:2 * last].reshape(-1, 2, half)[:, h]
                             for h in (0, 1) for a in (self.re, self.im)))

    def diag(self, steps, lo: int, hi: int) -> None:
        """`diag` with these steps on the words [lo, hi) of the state."""
        if self._lib is not None:
            self._lib.hpqe_diag(*self._addr, lo, hi, *_steps(steps))
            return
        diag(steps, self.re, self.im, lo, hi)

    def cx(self, control: int, target: int) -> None:
        """Swap word i with word i | 2^target for every i whose control bit
        is set and target bit clear, in both arrays of a 2^n-word state.

        Without the library each array is viewed as an n-axis array of
        shape [2]*n (qubit q is axis n-1-q), so the control=1, target=0
        and target=1 halves are strided views and the swap needs no index
        arrays.
        """
        n = self.re.size.bit_length() - 1
        if self._lib is not None:
            self._lib.hpqe_cx(*self._addr, n, control, target)
            return
        lo = [slice(None)] * n
        lo[n - 1 - control] = slice(1, 2)       # slices keep every view an array
        hi = list(lo)
        lo[n - 1 - target] = slice(0, 1)
        hi[n - 1 - target] = slice(1, 2)
        for arr in (self.re, self.im):
            grid = arr.reshape([2] * n)
            a, b = grid[tuple(lo)], grid[tuple(hi)]
            tmp = a.copy()
            a[...] = b
            b[...] = tmp

