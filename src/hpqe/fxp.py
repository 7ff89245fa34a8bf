"""Saturating Q2.30 fixed-point arithmetic.

Single source of truth for the accelerator's numeric word: a 32-bit
two's-complement integer read as value = raw * 2^-30 (2 integer bits,
30 fractional bits). Every operation saturates to [-2.0, 2.0 - 2^-30]
instead of wrapping, and every narrowing step rounds to nearest with
ties to even, so results are reproducible bit for bit.

Scalar functions (plain Python ints) define the semantics. The bank
kernels `scale_bank` (sparse SU step) and `pair_banks` (dense SU step)
apply them in place to whole arrays of WORD, the machine's 32-bit word,
and the test suite proves them bit-identical to the scalars. Each
kernel has two bodies:

  * native: `kernels.c`, compiled with the system C compiler on the
    first kernel call (never at import) and cached in the package's
    __pycache__ under a hash of the source and the flags; see
    `native_kernels`. It holds an AVX-512F body, taken per call on a
    CPU that has it, and portable C loops for every other host.
  * numpy: the fallback where the library cannot be built or loaded,
    and for arrays the native body does not take. It copies each bank
    BLOCK elements at a time into int64 rows of one scratch array,
    allocated per call so that concurrent calls share none, computes
    there and narrows on write-back; its temporaries are bounded by the
    block, not by the state.

Both round each real product as (p + 2^29 - 1 + ((p >> 30) & 1)) >> 30,
which is fx_mul's round-half-even, and saturate every sum as fx_add /
fx_sub do. They skip a product's clip only where it provably cannot
change a bit: when its coefficient lies in (-2^30, 2^30] (see
`product_fits`; the numpy body decides per coefficient, the native one
once per call for all of them). The numpy body also skips a zero
coefficient's product, which is exactly 0.

Which body ran never shows in the results. `quantize_array` is
`quantize` over an array. Golden values and oracles use the scalars.
"""

from __future__ import annotations

import contextlib
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


def to_complex(c: CFx) -> complex:
    return complex(to_real(c.re), to_real(c.im))


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
    import ctypes
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
    lib.hpqe_scale_bank.argtypes = [ptr, ptr, i64, i32, i64, i64, i64, i64]
    lib.hpqe_pair_banks.argtypes = [ptr, ptr, ptr, ptr, i64, i64, i64, ptr]
    lib.hpqe_cx.argtypes = [ptr, ptr, i32, i32, i32]
    for fn in (lib.hpqe_scale_bank, lib.hpqe_pair_banks, lib.hpqe_cx):
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


def native_rows(*arrays):
    """(rows, width, row stride in words) of arrays the native kernels take.

    The arrays must be writable native WORD, of one shape and strides,
    1-D (one row) or 2-D, with unit stride inside a row. None otherwise
    (a wider integer array included): the caller then runs its numpy body.
    """
    a = arrays[0]
    size = np.dtype(WORD).itemsize
    for b in arrays:
        if not (isinstance(b, np.ndarray) and b.dtype == WORD
                and b.flags.writeable and b.ndim in (1, 2)
                and b.shape == a.shape and b.strides == a.strides
                and (b.strides[-1] == size or b.shape[-1] <= 1)):
            return None
    if a.ndim == 1:
        return 1, a.size, a.size
    if a.strides[0] % size:
        return None
    return a.shape[0], a.shape[1], a.strides[0] // size


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


class _Coef(NamedTuple):
    # one real coefficient for a block: an int, or an int64 array holding
    # a per-element pattern of the ints in `parts`
    value: object
    zero: bool           # every part is 0: the product is exactly 0
    clip: bool           # some part may saturate its product


def _coef(value, *parts: int) -> _Coef:
    parts = parts or (value,)
    return _Coef(value, not any(parts),
                 not all(product_fits(p) for p in parts))


def _prod(c: _Coef, v, out, t):
    # out <- fx_mul(c, v) and return out; None stands for an exact 0 when
    # c is zero. v is read in full before out is written, so out may be v.
    if c.zero:
        return None
    np.multiply(v, c.value, out=t)
    np.right_shift(t, FRAC, out=out)
    out &= 1
    out += HALF_ULP - 1
    out += t
    out >>= FRAC
    if c.clip:
        np.clip(out, RAW_MIN, RAW_MAX, out=out)
    return out


def _sum_into(p, q, sub: bool, out):
    # out <- fx_sub(p, q) if sub else fx_add(p, q), and return out; None
    # is an exact 0. Adding 0 to an in-range word needs no saturation,
    # and negating one can only overflow at -RAW_MIN.
    if p is None and q is None:
        out.fill(0)
    elif q is None:
        if p is not out:
            out[...] = p
    elif p is None:
        if sub:
            np.negative(q, out=out)
            np.minimum(out, RAW_MAX, out=out)
        else:
            out[...] = q
    else:
        (np.subtract if sub else np.add)(p, q, out=out)
        np.clip(out, RAW_MIN, RAW_MAX, out=out)
    return out


def _cmul_part(c, xr, xi, imag: bool, out, s, t):
    # out <- the real or imaginary part of cfx_mul(c, x), c a (re, im)
    # pair of _Coefs; out may be xr (imag=False) or xi (imag=True)
    if imag:
        return _sum_into(_prod(c[0], xi, out, t), _prod(c[1], xr, s, t),
                         False, out)
    return _sum_into(_prod(c[0], xr, out, t), _prod(c[1], xi, s, t),
                     True, out)


def scale_bank(c0: CFx, c1: CFx, t: int, re: np.ndarray, im: np.ndarray) -> None:
    """Sparse SU step over one bank, in place: x[k] <- cfx_mul(c, x[k]).

    c is c1 where bit t of k is set and c0 elsewhere: a diagonal gate on
    qubit t of a bank whose first index has bit t clear. One coefficient
    for a whole bank is scale_bank(c, c, 0, ...). re and im are 1-D WORD
    arrays of one length, any length.

    The native body takes the bank whole. The numpy body allocates its
    scratch (`new_scratch`) per call: when the period 2^(t+1) fits a
    block, every block is scaled by one periodic (c0, c1) pattern, built
    once per call; otherwise 2^t is a multiple of BLOCK and bit t is
    constant within each block.
    """
    lib = native_kernels()
    if lib is not None and native_rows(re, im) and re.ndim == 1:
        lib.hpqe_scale_bank(re.ctypes.data, im.ctypes.data, re.size, t, *c0, *c1)
        return
    gr, gi, s_ir, s, tmp = new_scratch()[:5]
    fixed = [[_coef(v) for v in c] for c in (c0, c1)]
    periodic = c0 != c1 and (2 << t) <= BLOCK
    if periodic:
        size = min(BLOCK, len(re))
        reps = -(-size >> (t + 1))
        pattern = [_coef(np.tile(np.repeat(np.array(pair, dtype=np.int64), 1 << t),
                                 reps)[:size], *pair)
                   for pair in zip(c0, c1)]
    for lo in range(0, len(re), BLOCK):
        m = min(BLOCK, len(re) - lo)
        xr, xi = gr[:m], gi[:m]
        np.copyto(xr, re[lo:lo + m])
        np.copyto(xi, im[lo:lo + m])
        if periodic:
            cr, ci = (c._replace(value=c.value[:m]) for c in pattern)
        else:
            cr, ci = fixed[(lo >> t) & 1]
        # keep fx_mul(ci, xr) for the imaginary part, then overwrite the
        # copies: xr <- cr*xr - ci*xi, xi <- cr*xi + ci*xr
        ir = _prod(ci, xr, s_ir[:m], tmp[:m])
        _cmul_part((cr, ci), xr, xi, False, xr, s[:m], tmp[:m])
        _sum_into(_prod(cr, xi, xi, tmp[:m]), ir, False, xi)
        re[lo:lo + m] = xr      # in range after the clips: narrows exactly
        im[lo:lo + m] = xi


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


def pair_banks(c00: CFx, c01: CFx, c10: CFx, c11: CFx,
               xr: np.ndarray, xi: np.ndarray, yr: np.ndarray, yi: np.ndarray) -> None:
    """Dense SU step over paired banks, in place.

    x <- su_eval(c00, c01, x, y) and y <- su_eval(c10, c11, x, y), both
    from the old x and y. The four WORD arrays share one shape: 1-D of
    any length, or 2-D (strided views of the pair halves inside a bank).
    The native body reads all four words of a pair before it writes
    one. The numpy body allocates its scratch (`new_scratch`) per call,
    copies each block of x and y into it as int64, sums each output
    there and narrows it on write-back.
    """
    lib = native_kernels()
    rows = native_rows(xr, xi, yr, yi) if lib is not None else None
    if rows is not None:
        coefs = np.array([*c00, *c01, *c10, *c11], dtype=np.int64)
        lib.hpqe_pair_banks(xr.ctypes.data, xi.ctypes.data, yr.ctypes.data,
                            yi.ctypes.data, *rows, coefs.ctypes.data)
        return
    gxr, gxi, gyr, gyi, acc, y, s, tmp = new_scratch()
    coefs = [tuple(_coef(v) for v in c) for c in (c00, c01, c10, c11)]
    outputs = ((coefs[0], coefs[1], xr, False), (coefs[0], coefs[1], xi, True),
               (coefs[2], coefs[3], yr, False), (coefs[2], coefs[3], yi, True))
    for sl in block_slices(xr.shape, BLOCK):
        shape = xr[sl].shape
        m = xr[sl].size
        g = [buf[:m].reshape(shape) for buf in (gxr, gxi, gyr, gyi)]
        for dst, src in zip(g, (xr, xi, yr, yi)):
            np.copyto(dst, src[sl])
        a, b, s_, t_ = (buf[:m].reshape(shape) for buf in (acc, y, s, tmp))
        for ca, cb, out, imag in outputs:
            # one part of su_eval: fx_add(cfx_mul(ca, x), cfx_mul(cb, y))
            out[sl] = _sum_into(_cmul_part(ca, g[0], g[1], imag, a, s_, t_),
                                _cmul_part(cb, g[2], g[3], imag, b, s_, t_),
                                False, a)


# ---------------------------------------------------------------------------
# Wire format: raw Fx32 is a 32-bit little-endian two's-complement word.
# ---------------------------------------------------------------------------

def pack_fx32(raw: int) -> bytes:
    return struct.pack("<i", raw)


def unpack_fx32(data: bytes) -> int:
    return struct.unpack("<i", data)[0]


def pack_cfx(c: CFx) -> bytes:
    return struct.pack("<ii", c.re, c.im)


def unpack_cfx(data: bytes) -> CFx:
    re, im = struct.unpack("<ii", data)
    return CFx(re, im)
