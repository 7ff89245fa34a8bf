"""The bank kernels and the engine's gate paths against the scalar spec.

`fxp.Banks.pair` (the SU step) and `fxp.Banks.diag` (the sparse SU
step), the one door to the kernels, are driven on banks of the stored
word (`fxp.WORD`) holding full-range values, with full-range
coefficients (RAW_MIN, RAW_MAX, exact rounding ties, the clip-elision
boundary), and every element is compared with `fxp.su_eval` /
`fxp.cfx_mul` / `fxp.fx_mul`; the words of the bank outside the piece
must keep their values. `run_circuit`, which defers CX gates, is held
to an eager gate-by-gate replay.

Each kernel test runs on three bodies: its class names in BODIES the
bodies it pins (`bodies`), and the test computes its scalar expectation
once and asserts each of them against it, naming the body in the
message. A base class pins the native library as built for this host
(on an AVX-512F CPU its vector body), a `...Portable` subclass the same
library built without the vector body, so that its portable C loops
run, and a `...Numpy` subclass the numpy bodies. `TestClipElision` and
`TestWorkers` are pinned to numpy, and a `...Native` subclass reruns
their kernel tests (a `...Portable` one too for `TestWorkers`); `TestCx`
holds each C body's swap to the numpy view swap. `TestZeroVectors` pins
both C bodies at once, and `TestSparseStates` all three. A class that names a
C body the host cannot build or load skips, and `TestBanks.test_pin`
names each such body.
Most property tests shrink BLOCK to a few elements, so a bank spans many
blocks of the numpy body and ends in a partial one while staying small
enough for the scalar reference; the rest run at the real BLOCK.
"""

import contextlib
import functools
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hpqe import circuits, engine, fxp, gateset, oracle, state
from hpqe.fxp import CFx, RAW_MAX, RAW_MIN, SCALE

from helpers import (PORTABLE_FLAG, as_cfx, pair_flat, random_circuit, rne, split_every_state,
                     window_model)

EDGES = (RAW_MIN, RAW_MIN + 1, -SCALE - 1, -SCALE, -SCALE + 1, -fxp.HALF_ULP,
         -1, 0, 1, fxp.HALF_ULP, SCALE - 1, SCALE, SCALE + 1, RAW_MAX - 1,
         RAW_MAX)

raws = st.one_of(st.sampled_from(EDGES), st.integers(RAW_MIN, RAW_MAX))
cfxs = st.builds(CFx, raws, raws)
small_blocks = st.sampled_from((1, 2, 4, 8, 16))
# the per-body subclasses rerun each hypothesis test with a `self` of
# another class, which hypothesis otherwise reports as a health failure
INHERITED = [HealthCheck.differing_executors]

C_BODIES = ("native", "portable")


def _no_scratch():
    raise AssertionError("a numpy kernel body ran under the native one")


class Body(NamedTuple):
    """One kernel body: a C library ("native", "portable") or "numpy"."""

    name: str
    lib: object = None

    @contextlib.contextmanager
    def pinned(self):
        """Run every kernel on this body, and restore the loader after.

        A C body is pinned through `fxp._native`, and a numpy body cannot
        run unnoticed under it: its scratch allocation fails the test.
        The numpy body is pinned by a loader that finds no library.
        """
        mp = pytest.MonkeyPatch()
        if self.lib is not None:
            mp.setattr(fxp, "_native", [self.lib])
            mp.setattr(fxp, "new_scratch", _no_scratch)
        else:
            mp.setattr(fxp, "native_kernels", lambda: None)
        try:
            yield self
        finally:
            mp.undo()


@pytest.fixture(scope="session")
def host_bodies(tmp_path_factory) -> dict:
    """Every body this host has, by name, the C ones that build and load
    first.

    The portable library is built with PORTABLE_FLAG into a cache of its
    own, because a build deletes every other library in its cache; the
    loader's state is restored after.
    """
    libs = {"native": fxp.native_kernels()}
    mp = pytest.MonkeyPatch()
    mp.setattr(fxp, "NATIVE_FLAGS", (*fxp.NATIVE_FLAGS, PORTABLE_FLAG))
    mp.setattr(fxp, "NATIVE_CACHE", tmp_path_factory.mktemp("portable-kernels"))
    mp.setattr(fxp, "_native", [])
    try:
        libs["portable"] = fxp.native_kernels()
    finally:
        mp.undo()
    return {**{name: Body(name, lib) for name, lib in libs.items() if lib is not None},
            "numpy": Body("numpy")}


@pytest.fixture(scope="class")
def bodies(request, host_bodies) -> tuple:
    """The bodies the test's class names in BODIES (every body the host
    has where it names none): pin each in turn with `with body.pinned():`.
    A class that names a C body the host cannot build or load skips."""
    names = getattr(request.cls, "BODIES", tuple(host_bodies))
    missing = [name for name in names if name not in host_bodies]
    if missing:
        pytest.skip(f"the {missing[0]} body cannot be built or loaded on this host")
    return tuple(host_bodies[name] for name in names)


@contextlib.contextmanager
def block_size(size: int):
    """Run the kernels with a different BLOCK (a power of two)."""
    saved = fxp.BLOCK
    fxp.BLOCK = size
    try:
        yield
    finally:
        fxp.BLOCK = saved


def word_lists(size: int):
    return st.lists(raws, min_size=size, max_size=size)


def words(values) -> np.ndarray:
    return np.array(values, dtype=fxp.WORD)


def scalar_scale(c0, c1, t, re, im) -> list:
    return [fxp.su_eval(c1 if (k >> t) & 1 else c0, fxp.CFX_ZERO, x,
                        fxp.CFX_ZERO, op=fxp.SPARSE)
            for k, x in enumerate(as_cfx(re, im))]


def scalar_pairs(m, xs, ys) -> tuple:
    # su_eval of the two rows of m on each pair (x, y)
    return ([fxp.su_eval(m[0], m[1], a, b) for a, b in zip(xs, ys)],
            [fxp.su_eval(m[2], m[3], a, b) for a, b in zip(xs, ys)])


def diagonal(c0: CFx, c1: CFx) -> tuple:
    return c0, fxp.CFX_ZERO, fxp.CFX_ZERO, c1


def random_words(rng, size: int) -> np.ndarray:
    return rng.integers(RAW_MIN, RAW_MAX + 1, size, dtype=fxp.WORD)


@functools.cache
def _pattern(size: int) -> tuple:
    # run_banks' fixed words of a bank of this size, read-only: every
    # call shares them
    rng = np.random.default_rng(size)
    pattern = tuple(random_words(rng, size) for _ in range(2))
    for a in pattern:
        a.flags.writeable = False
    return pattern


def run_banks(call, size: int, parts) -> None:
    """call(fxp.Banks) on a bank of `size` words that holds each (lo, re,
    im) of parts at word lo and a fixed pattern elsewhere. The pattern
    must keep its values; each part takes its new words, in place."""
    keep = _pattern(size)
    bank = [k.copy() for k in keep]
    outside = np.ones(size, dtype=bool)
    for lo, re, im in parts:
        outside[lo:lo + re.size] = False
        bank[0][lo:lo + re.size] = re
        bank[1][lo:lo + re.size] = im
    call(fxp.Banks(*bank))
    for b, k in zip(bank, keep):
        assert b[outside].tobytes() == k[outside].tobytes()
    for lo, re, im in parts:
        re[...] = bank[0][lo:lo + re.size]
        im[...] = bank[1][lo:lo + re.size]


def run_diag(steps, re, im, base: int = 0) -> None:
    """`fxp.diag` through `Banks.diag`: the words of re and im sit at
    word base of a bank of base + size + 1 words, so that their stored
    indices start at base."""
    run_banks(lambda b: b.diag(steps, base, base + re.size), base + re.size + 1,
              [(base, re, im)])


def run_pair(m, xr, xi, yr, yi) -> None:
    """`fxp.pair_banks` on flat x and y banks of one length through
    `Banks.pair`: the first `size` pairs of qubit t, x at word 0 and y at
    word 2^t, the least power of two not below the size."""
    size = xr.size
    t = max(size - 1, 0).bit_length()
    run_banks(lambda b: b.pair(m, t, 0, size), (2 << t) + 1,
              [(0, xr, xi), (1 << t, yr, yi)])


def run_rows(m, t, re, im) -> None:
    """`Banks.pair` on every pair (k, k + 2^t) of a bank whose length is a
    multiple of 2^(t+1), as one range of pairs."""
    run_banks(lambda b: b.pair(m, t, 0, re.size // 2), re.size + 1, [(0, re, im)])


def scale_halves(c0, c1, t, re, im) -> None:
    """The sparse step on qubit t of a bank, in place: `Banks.diag` with
    the mask 2^t, so word k takes c1 where bit t of k is set and c0
    elsewhere. The bank's length is a multiple of 2^(t+1)."""
    run_diag([(c0, c1, 1 << t)], re, im)


def random_coeff(rng) -> CFx:
    pick = lambda: int(rng.choice(EDGES)) if rng.random() < 0.3 else int(
        rng.integers(RAW_MIN, RAW_MAX + 1))
    return CFx(pick(), pick())


# Lane boundaries of the vector body: a vector holds 16 words, even words
# and odd words take separate products, and the words after the last
# whole vector run the scalar loop. Banks of these lengths end in every
# kind of remainder; the last one also crosses the numpy body's BLOCK.
LANE_SIZES = (15, 16, 17, 31, 33, (1 << 16) + 37)
TIE = fxp.HALF_ULP
# every EDGES word, and odd words that make exact ties with the TIE
# coefficients below; the cycle of 19 words is prime to 16, so each word
# falls on every lane of a vector, even and odd, and into the tails
LANE_WORDS = np.array(EDGES + (3, -3, SCALE + 3, -SCALE + 3), dtype=fxp.WORD)
LANE_COEFFS = (
    (CFx(TIE, -3 * TIE), CFx(-TIE, 3 * TIE)),       # a tie for every odd word
    (CFx(-SCALE, 0), CFx(0, -SCALE)),               # -2^30 * RAW_MIN saturates
    (CFx(RAW_MIN, RAW_MAX), CFx(SCALE + 1, -SCALE - 1)),
    (CFx(fxp.RAW_SQRT_HALF, -fxp.RAW_SQRT_HALF), CFx(SCALE, SCALE - 1)),   # no clips
    # two real rows: the pair tests' matrix of the two, (-2^30, TIE,
    # RAW_MIN, 2^30 + 1), is real, so it takes the vector body's real
    # variant with every product clip-worthy and ties on the odd words
    (CFx(-SCALE, 0), CFx(SCALE + 1, 0)),
    (CFx(TIE, 0), CFx(RAW_MIN, 0)),
)


def lane_bank(size: int) -> tuple:
    # re and im cycle LANE_WORDS from different starts
    return (np.resize(LANE_WORDS, size), np.resize(np.roll(LANE_WORDS, 7), size))


def lane_checked(size: int) -> range | list:
    # every word of a small bank; the ends, the BLOCK boundary and a fixed
    # sample of a large one
    if size <= 64:
        return range(size)
    rng = np.random.default_rng(size)
    return sorted({*range(48), *range(fxp.BLOCK - 48, min(size, fxp.BLOCK + 48)),
                   *range(size - 48, size), *rng.integers(0, size, 256).tolist()})


class TestScaleBank:
    # the sparse SU step: Banks.diag with the mask 2^t on a bank, and a
    # dense Banks.pair with zero off-diagonals, which gives the same bits,
    # on flat banks
    BODIES = ("native",)

    @settings(max_examples=100, deadline=None, suppress_health_check=INHERITED)
    @given(c0=cfxs, c1=cfxs, t=st.integers(0, 5), block=small_blocks,
           data=st.data())
    def test_matches_scalar(self, bodies, c0, c1, t, block, data):
        size = data.draw(st.integers(0, 3)) << (t + 1)
        re = words(data.draw(word_lists(size)))
        im = words(data.draw(word_lists(size)))
        want = scalar_scale(c0, c1, t, re, im)
        # flat banks, of any length: x takes c0, y takes c1
        size = data.draw(st.integers(0, 40))
        x = [words(data.draw(word_lists(size))) for _ in range(4)]
        want_x = [fxp.cfx_mul(c0, v) for v in as_cfx(x[0], x[1])]
        want_y = [fxp.cfx_mul(c1, v) for v in as_cfx(x[2], x[3])]
        for body in bodies:
            gre, gim = re.copy(), im.copy()
            got = [a.copy() for a in x]
            with body.pinned(), block_size(block):
                scale_halves(c0, c1, t, gre, gim)
                run_pair(diagonal(c0, c1), *got)
            assert as_cfx(gre, gim) == want, body.name
            assert as_cfx(got[0], got[1]) == want_x, body.name
            assert as_cfx(got[2], got[3]) == want_y, body.name

    def test_real_block_partial_tail(self, bodies):
        # flat banks whose length is not a multiple of BLOCK, and halves
        # narrower than a block (t=3) and as wide as one (t=16)
        rng = np.random.default_rng(70)
        c0, c1 = random_coeff(rng), random_coeff(rng)
        size = fxp.BLOCK + 37
        x = [random_words(rng, size) for _ in range(4)]
        want_x = scalar_scale(c0, c0, 0, x[0], x[1])
        want_y = scalar_scale(c1, c1, 0, x[2], x[3])
        size = 2 << 16
        ks = lane_checked(size)
        re, im = random_words(rng, size), random_words(rng, size)
        want = {t: [fxp.cfx_mul(c1 if (k >> t) & 1 else c0, CFx(int(re[k]), int(im[k])))
                    for k in ks] for t in (3, 16)}
        for body in bodies:
            with body.pinned():
                got = [a.copy() for a in x]
                run_pair(diagonal(c0, c1), *got)
                assert as_cfx(got[0], got[1]) == want_x, body.name
                assert as_cfx(got[2], got[3]) == want_y, body.name
                for t in (3, 16):
                    got = (re.copy(), im.copy())
                    scale_halves(c0, c1, t, *got)
                    assert as_cfx(got[0][ks], got[1][ks]) == want[t], (body.name, t)

    @pytest.mark.parametrize("size", LANE_SIZES)
    def test_lane_boundaries(self, bodies, size):
        # the halves of a bank of `size` pairs in whole rows, t = 0..6: for
        # t = 0..3 each vector holds one (c0, c1) pattern, for t >= 4 the
        # bank is one run that switches whole vectors between c0 and c1
        for t in range(7):
            rows = -(-size >> t)
            re, im = lane_bank(rows << (t + 1))
            ks = lane_checked(re.size)
            for c0, c1 in LANE_COEFFS:
                for a, b in ((c0, c1), (c1, c0)):
                    want = [fxp.cfx_mul(b if (k >> t) & 1 else a,
                                        CFx(int(re[k]), int(im[k]))) for k in ks]
                    for body in bodies:
                        got = (re.copy(), im.copy())
                        with body.pinned():
                            scale_halves(a, b, t, *got)
                        assert as_cfx(got[0][ks], got[1][ks]) == want, (body.name, a, b, t)


def parity(i: int) -> int:
    return bin(i).count("1") & 1


def scalar_diag(c0, c1, mask, base, re, im, ks) -> list:
    # word k of the bank, at stored index base + k, times c1 where the
    # parity of its index under the mask is odd, c0 elsewhere
    return [fxp.cfx_mul(c1 if parity((base + k) & mask) else c0,
                        CFx(int(re[k]), int(im[k]))) for k in ks]


# masks with bits only below 4 (a per-word pattern in a vector), only at
# 4 and above (a whole vector flips) and both, and the mask 0
MASKS = (0, 1, 2, 8, 9, 16, 0b110110, 1 << 9, (1 << 16) | 5)
diag_masks = st.one_of(st.sampled_from(MASKS), st.integers(0, (1 << 10) - 1))
# coefficients on both sides of the unit bound cr^2 + ci^2 <= 2^60 + 2^50
# of the native vector body, one far past it, and quantized unit phases
UNIT_EDGES = (CFx(SCALE, 1 << 25), CFx(-(1 << 25), -SCALE), CFx(SCALE, (1 << 25) + 1),
              CFx(-SCALE, 0), CFx(0, SCALE), CFx(fxp.RAW_SQRT_HALF, fxp.RAW_SQRT_HALF),
              CFx(SCALE + 1, 0), CFx(RAW_MIN, RAW_MAX))
unit_cfxs = st.one_of(
    st.sampled_from(UNIT_EDGES),
    st.floats(0, 2 * np.pi).map(lambda a: fxp.quantize_complex(complex(np.exp(1j * a)))))


def scalar_stretch(steps, base, re, im, ks) -> list:
    # cfx_mul of each step in turn, on the words ks of the bank
    amps = as_cfx(re[list(ks)], im[list(ks)])
    for c0, c1, mask in steps:
        amps = [fxp.cfx_mul(c1 if parity((base + k) & mask) else c0, x)
                for k, x in zip(ks, amps)]
    return amps


def check_stretch(bodies, steps, base, re, im, block=None) -> None:
    # on every body a stretch gives the bits of its steps run one call
    # each, and of cfx_mul applied step after step
    want = scalar_stretch(steps, base, re, im, range(re.size))
    for body in bodies:
        got, one = (re.copy(), im.copy()), (re.copy(), im.copy())
        with body.pinned(), block_size(block or fxp.BLOCK):
            run_diag(steps, *got, base)
            for step in steps:
                run_diag([step], *one, base)
        assert as_cfx(*got) == as_cfx(*one) == want, body.name


class TestDiag:
    # the diagonal step Banks.diag (native hpqe_diag) on the words [base,
    # base + size) of a bank: bases and lengths that are not multiples of
    # 16 put words before the first whole vector and after the last one
    BODIES = ("native",)

    @settings(max_examples=150, deadline=None, suppress_health_check=INHERITED)
    @given(c0=cfxs, c1=cfxs, base=st.integers(0, 300), block=small_blocks,
           mask=diag_masks, data=st.data())
    def test_matches_scalar(self, bodies, c0, c1, base, mask, block, data):
        size = data.draw(st.integers(0, 70))
        re = words(data.draw(word_lists(size)))
        im = words(data.draw(word_lists(size)))
        want = scalar_diag(c0, c1, mask, base, re, im, range(size))
        for body in bodies:
            got = (re.copy(), im.copy())
            with body.pinned(), block_size(block):
                run_diag([(c0, c1, mask)], *got, base)
            assert as_cfx(*got) == want, body.name

    @pytest.mark.parametrize("size", LANE_SIZES)
    def test_lane_boundaries(self, bodies, size):
        # EDGES words and exact ties on every lane, the clip-boundary
        # coefficients, every kind of mask, aligned and unaligned bases
        re, im = lane_bank(size)
        ks = lane_checked(size)
        for mask in MASKS:
            for base in (0, 5, 16 + 3):
                for c0, c1 in LANE_COEFFS:
                    for a, b in ((c0, c1), (c1, c0)):
                        want = scalar_diag(a, b, mask, base, re, im, ks)
                        for body in bodies:
                            got = (re.copy(), im.copy())
                            with body.pinned():
                                run_diag([(a, b, mask)], *got, base)
                            assert as_cfx(got[0][ks], got[1][ks]) == want, (
                                body.name, mask, base, a, b)

    @settings(max_examples=60, deadline=None, suppress_health_check=INHERITED)
    @given(steps=st.lists(st.tuples(cfxs, cfxs, diag_masks), min_size=1, max_size=70),
           base=st.integers(0, 300), block=small_blocks, data=st.data())
    def test_stretch_matches_steps(self, bodies, steps, base, block, data):
        # a stretch of k = 1..70 steps (three passes of the native body at
        # its cap)
        size = data.draw(st.integers(0, 70))
        re = words(data.draw(word_lists(size)))
        im = words(data.draw(word_lists(size)))
        check_stretch(bodies, steps, base, re, im, block)

    @settings(max_examples=60, deadline=None, suppress_health_check=INHERITED)
    @given(steps=st.lists(st.tuples(unit_cfxs, unit_cfxs, diag_masks), min_size=1,
                          max_size=70),
           base=st.integers(0, 40), data=st.data())
    def test_stretch_of_unit_steps(self, bodies, steps, base, data):
        # words in [-2^30, 2^30] and coefficients with cr^2 + ci^2 at most
        # 2^60 + 2^50, where the vector body skips the clips between steps,
        # and coefficients just past that bound, where it keeps them
        size = data.draw(st.integers(16, 70))
        small = st.one_of(st.sampled_from((-SCALE, SCALE, 0, -1, TIE, -TIE)),
                          st.integers(-SCALE, SCALE))
        re, im = (words(data.draw(st.lists(small, min_size=size, max_size=size)))
                  for _ in range(2))
        check_stretch(bodies, steps, base, re, im)

    @pytest.mark.parametrize("size", LANE_SIZES)
    def test_stretch_lane_boundaries(self, bodies, size):
        # EDGES words and exact ties on every lane; RZ(2 pi)'s -2^30 and the
        # other clip-boundary coefficients, which saturate words between
        # steps; masks below and above bit 4; aligned and unaligned bases
        re, im = lane_bank(size)
        ks = lane_checked(size)
        rz = gateset.single("RZ", 0, 2 * np.pi).matrix
        coeffs = [c for pair in LANE_COEFFS for c in pair] + [rz[0], rz[3]]
        steps = [(coeffs[j % len(coeffs)], coeffs[(3 * j + 1) % len(coeffs)],
                  MASKS[j % len(MASKS)]) for j in range(70)]
        for base in (0, 5, 16 + 3):
            want = scalar_stretch(steps, base, re, im, ks)
            for body in bodies:
                one, done = (re.copy(), im.copy()), 0
                with body.pinned():
                    for k in (1, 4, 33, 70):
                        got = (re.copy(), im.copy())
                        run_diag(steps[:k], *got, base)
                        for step in steps[done:k]:      # one holds steps[:done]
                            run_diag([step], *one, base)
                        done = k
                        assert got[0].tobytes() == one[0].tobytes(), (body.name, base, k)
                        assert got[1].tobytes() == one[1].tobytes(), (body.name, base, k)
                assert as_cfx(got[0][ks], got[1][ks]) == want, (body.name, base)

    def test_rz_two_pi_needs_the_clip(self, bodies):
        # RZ(2 pi) is -1: its coefficient -2^30 times RAW_MIN saturates
        rz = gateset.single("RZ", 0, 2 * np.pi)
        m00, _, _, m11 = rz.matrix
        assert m00.re == m11.re == -SCALE
        re = words([RAW_MIN, RAW_MAX, RAW_MIN, 0, -SCALE, SCALE] * 7)
        im = re[::-1].copy()
        for mask, base in ((1, 0), (0b10001, 3), (16, 16)):
            want = scalar_diag(m00, m11, mask, base, re, im, range(re.size))
            assert RAW_MAX in [w.re for w in want]
            for body in bodies:
                got = (re.copy(), im.copy())
                with body.pinned():
                    run_diag([(m00, m11, mask)], *got, base)
                assert as_cfx(*got) == want, (body.name, mask, base)


def check_pair_range(bodies, m, t, lo, hi, re, im) -> None:
    """Banks.pair(m, t, lo, hi) on each body against su_eval: pair j is
    word k = j + (j & -2^t) and word k + 2^t, and every word outside the
    range keeps its value."""
    want = (re.copy(), im.copy())
    for j in range(lo, hi):
        k = j + (j & -(1 << t))
        x, y = (CFx(int(re[i]), int(im[i])) for i in (k, k + (1 << t)))
        for i, a, b in ((k, m[0], m[1]), (k + (1 << t), m[2], m[3])):
            want[0][i], want[1][i] = fxp.su_eval(a, b, x, y)
    for body in bodies:
        got = (re.copy(), im.copy())
        with body.pinned():
            fxp.Banks(*got).pair(m, t, lo, hi)
        assert got[0].tobytes() == want[0].tobytes(), (body.name, m)
        assert got[1].tobytes() == want[1].tobytes(), (body.name, m)


# Real matrices (H, RY) take the vector body's real variant. -2^30 as m00
# keeps the product clip on, and RAW_MIN words meet it often among EDGES
real_cfxs = st.builds(CFx, raws, st.just(0))
real_matrices = st.tuples(st.one_of(st.just(CFx(-SCALE, 0)), real_cfxs),
                          real_cfxs, real_cfxs, real_cfxs)

# Real matrices (a, b, a, -b) with |a|, |b| < 2^30 on t >= 4 take the
# vector body's butterfly, which forms each product once for both
# outputs; at |a| or |b| = 2^30 a product against RAW_MIN saturates, and
# the real variant must run instead
FLY_PARTS = (SCALE - 1, -SCALE + 1, SCALE, -SCALE, 0, TIE)
fly_parts = st.one_of(st.sampled_from(FLY_PARTS), st.integers(RAW_MIN + 1, RAW_MAX))


def butterfly(a: int, b: int) -> tuple:
    return CFx(a, 0), CFx(b, 0), CFx(a, 0), CFx(-b, 0)


def fly_bank(n: int, t: int, rng) -> tuple:
    # a third of the words EDGES words and the rest random; then, row by
    # row of 2^t pairs, the x words of every fourth row RAW_MIN, the y
    # words of the next RAW_MIN, and the whole row after that RAW_MAX
    re, im = (np.where(rng.random(1 << n) < 0.3, rng.choice(EDGES, 1 << n),
                       random_words(rng, 1 << n)).astype(fxp.WORD) for _ in range(2))
    k = np.arange(1 << n)
    row, odd = (k >> (t + 1)) % 4, (k >> t) & 1
    for bank in (re, im):
        bank[(row == 1) & (odd == 0)] = RAW_MIN
        bank[(row == 2) & (odd == 1)] = RAW_MIN
        bank[row == 3] = RAW_MAX
    return re, im


class TestPairBanks:
    BODIES = ("native",)

    @settings(max_examples=100, deadline=None, suppress_health_check=INHERITED)
    @given(m=st.tuples(cfxs, cfxs, cfxs, cfxs), block=small_blocks,
           data=st.data())
    def test_flat_banks_match_scalar(self, bodies, m, block, data):
        size = data.draw(st.integers(0, 40))
        x = [words(data.draw(word_lists(size))) for _ in range(4)]
        want = scalar_pairs(m, as_cfx(x[0], x[1]), as_cfx(x[2], x[3]))
        for body in bodies:
            got = [a.copy() for a in x]
            with body.pinned(), block_size(block):
                run_pair(m, *got)
            assert (as_cfx(got[0], got[1]), as_cfx(got[2], got[3])) == want, body.name

    @settings(max_examples=80, deadline=None, suppress_health_check=INHERITED)
    @given(m=st.tuples(cfxs, cfxs, cfxs, cfxs), t=st.integers(0, 4),
           rows=st.integers(1, 4), block=small_blocks, data=st.data())
    def test_strided_halves_match_scalar(self, bodies, m, t, rows, block, data):
        # the pair halves (k, k + 2^t) of one bank, in rows of whole pairs
        # (2-D strided views in the numpy body)
        size = rows << (t + 1)
        re = words(data.draw(word_lists(size)))
        im = words(data.draw(word_lists(size)))
        want = (re.copy(), im.copy())
        for k in range(size):
            if not (k >> t) & 1:
                j = k | (1 << t)
                x, y = CFx(int(re[k]), int(im[k])), CFx(int(re[j]), int(im[j]))
                want[0][k], want[1][k] = fxp.su_eval(m[0], m[1], x, y)
                want[0][j], want[1][j] = fxp.su_eval(m[2], m[3], x, y)
        for body in bodies:
            gre, gim = re.copy(), im.copy()
            with body.pinned(), block_size(block):
                run_rows(m, t, gre, gim)
            assert as_cfx(gre, gim) == as_cfx(*want), body.name

    @settings(max_examples=150, deadline=None, suppress_health_check=INHERITED)
    @given(m=st.tuples(cfxs, cfxs, cfxs, cfxs), t=st.integers(0, 8), block=small_blocks,
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_any_pair_range_matches_scalar(self, bodies, m, t, block, seed, data):
        # Banks.pair on pairs [lo, hi) of a whole state: pair j is word k =
        # j + (j & -2^t) and word k + 2^t. The ends fall anywhere, or on or
        # next to a vector (8 or 16 pairs) or row (2^t pairs) boundary;
        # every word outside the range keeps its value
        n = data.draw(st.integers(t + 1, 10))
        pairs = 1 << (n - 1)
        edge = st.builds(lambda size, i, d: min(max(i * size + d, 0), pairs),
                         st.sampled_from((8, 16, 1 << t)), st.integers(0, pairs >> t),
                         st.integers(-1, 1))
        end = st.one_of(st.integers(0, pairs), edge)
        lo, hi = sorted((data.draw(end), data.draw(end)))
        rng = np.random.default_rng(seed)
        re, im = (np.where(rng.random(1 << n) < 0.3, rng.choice(EDGES, 1 << n),
                           random_words(rng, 1 << n)).astype(fxp.WORD) for _ in range(2))
        with block_size(block):
            check_pair_range(bodies, m, t, lo, hi, re, im)

    @settings(max_examples=150, deadline=None, suppress_health_check=INHERITED)
    @given(m=real_matrices, t=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
           whole=st.booleans())
    @example(m=(CFx(-SCALE, 0), CFx(-SCALE, 0), CFx(RAW_MIN, 0), CFx(-SCALE, 0)), t=0,
             seed=0, whole=True)
    def test_real_matrices_match_scalar(self, bodies, m, t, seed, whole):
        # EDGES words on all the pairs of an 8-qubit state, or on a range
        # whose ends fall anywhere
        n = 8
        rng = np.random.default_rng(seed)
        lo, hi = sorted(rng.integers(0, (1 << (n - 1)) + 1, 2).tolist())
        if whole:
            lo, hi = 0, 1 << (n - 1)
        re, im = (rng.choice(EDGES, 1 << n).astype(fxp.WORD) for _ in range(2))
        check_pair_range(bodies, m, t, lo, hi, re, im)

    @pytest.mark.parametrize("t", range(8))
    def test_butterfly_edges(self, bodies, t):
        # every (a, b) of FLY_PARTS, at the bound 2^30 - 1 and past it, on
        # a range of 4 rows of pairs that starts 3 pairs in and ends 5
        # pairs short, so the vector loop has partial tails on both sides
        n = t + 3
        re, im = fly_bank(n, t, np.random.default_rng([32, t]))
        for a in FLY_PARTS:
            for b in FLY_PARTS:
                check_pair_range(bodies, butterfly(a, b), t, 3, (1 << (n - 1)) - 5, re, im)

    @settings(max_examples=60, deadline=None, suppress_health_check=INHERITED)
    @given(a=fly_parts, b=fly_parts, t=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_butterflies_match_scalar(self, bodies, a, b, t, seed, data):
        # a butterfly matrix on a range whose ends fall anywhere, or on
        # or next to a vector or row boundary
        n = data.draw(st.integers(t + 1, 9))
        pairs = 1 << (n - 1)
        edge = st.builds(lambda size, i, d: min(max(i * size + d, 0), pairs),
                         st.sampled_from((16, 1 << t)), st.integers(0, pairs >> t),
                         st.integers(-1, 1))
        end = st.one_of(st.integers(0, pairs), edge)
        lo, hi = sorted((data.draw(end), data.draw(end)))
        re, im = fly_bank(n, t, np.random.default_rng(seed))
        check_pair_range(bodies, butterfly(a, b), t, lo, hi, re, im)

    @pytest.mark.parametrize("t", (0, 3, 4, 6))
    def test_one_imaginary_part_is_complex(self, bodies, t):
        # a real matrix but for one imaginary part, at each of the four
        # entries: the complex products must run, so the vector body may
        # take its real variant only when all four parts are 0
        n = 8
        re, im = lane_bank(1 << n)
        real = (CFx(-SCALE, 0), CFx(fxp.RAW_SQRT_HALF, 0), CFx(TIE, 0), CFx(SCALE + 1, 0))
        for e in range(4):
            for part in (-SCALE, 1, RAW_MAX):
                m = list(real)
                m[e] = CFx(m[e].re, part)
                check_pair_range(bodies, tuple(m), t, 3, (1 << (n - 1)) - 5, re, im)

    def test_real_block_partial_tail(self, bodies):
        rng = np.random.default_rng(71)
        m = [random_coeff(rng) for _ in range(4)]
        size = fxp.BLOCK + 37
        x = [random_words(rng, size) for _ in range(4)]
        want = scalar_pairs(m, as_cfx(x[0], x[1]), as_cfx(x[2], x[3]))
        for body in bodies:
            got = [a.copy() for a in x]
            with body.pinned():
                run_pair(m, *got)
            assert (as_cfx(got[0], got[1]), as_cfx(got[2], got[3])) == want, body.name

    @pytest.mark.parametrize("size", LANE_SIZES)
    def test_lane_boundaries_flat(self, bodies, size):
        re, im = lane_bank(size)
        ks = lane_checked(size)
        x = [re, im, im[::-1].copy(), re[::-1].copy()]
        xs = [CFx(int(x[0][k]), int(x[1][k])) for k in ks]
        ys = [CFx(int(x[2][k]), int(x[3][k])) for k in ks]
        for (a, b), (c, d) in zip(LANE_COEFFS, LANE_COEFFS[1:] + LANE_COEFFS[:1]):
            m = (a, c, d, b)
            want = scalar_pairs(m, xs, ys)
            for body in bodies:
                got = [v.copy() for v in x]
                with body.pinned():
                    run_pair(m, *got)
                assert (as_cfx(got[0][ks], got[1][ks]),
                        as_cfx(got[2][ks], got[3][ks])) == want, (body.name, m)

    @pytest.mark.parametrize("t", range(7))
    @pytest.mark.parametrize("large", (False, True))
    def test_lane_boundaries_halves(self, bodies, t, large):
        # the mode-1 views: rows of 1 to 8 words pack whole pairs into a
        # vector, wider rows run whole vectors; some rows lie past the
        # last whole vector
        rows = ((1 << 16) if large else 48) // (2 << t) + 3
        size = rows << (t + 1)
        re, im = lane_bank(size)
        ks = [k for k in lane_checked(size) if not (k >> t) & 1]
        js = [k | (1 << t) for k in ks]
        xs, ys = as_cfx(re[ks], im[ks]), as_cfx(re[js], im[js])
        for (a, b), (c, d) in zip(LANE_COEFFS, LANE_COEFFS[1:] + LANE_COEFFS[:1]):
            m = (a, c, d, b)
            want = scalar_pairs(m, xs, ys)
            for body in bodies:
                gre, gim = re.copy(), im.copy()
                with body.pinned():
                    run_rows(m, t, gre, gim)
                assert (as_cfx(gre[ks], gim[ks]), as_cfx(gre[js], gim[js])) == want, (
                    body.name, m)


# The vector bodies skip the arithmetic of vectors whose words are all
# zero, which random words almost never give. A diagonal chunk is 32
# words from a stored index that is a multiple of 16: base 11 and this
# size put 5 words before the first chunk, two chunks, and 9 words after
# them, which the portable loop runs.
ZERO_BASE, ZERO_SIZE = 11, 5 + 64 + 9
NONZERO = [e for e in EDGES if e]
# (c0, c1) of the diagonal steps: unit coefficients without the clip
# and with it (-2^30 does not fit), then non-unit ones without and with
ZERO_DIAG_COEFFS = (
    (CFx(fxp.RAW_SQRT_HALF, fxp.RAW_SQRT_HALF), CFx(SCALE, 1 << 25)),
    (CFx(-SCALE, 0), CFx(0, SCALE)),
    (CFx(SCALE, SCALE), CFx(-SCALE + 1, SCALE - 1)),
    (CFx(RAW_MIN, RAW_MAX), CFx(SCALE + 1, -SCALE - 1)),
)
# dense matrices with nonzero off-diagonal entries, without and with the clip
ZERO_PAIR_MATRICES = (
    gateset.single("H", 0).matrix,
    (CFx(RAW_MIN, RAW_MAX), CFx(SCALE + 1, -SCALE - 1), CFx(-SCALE, 0), CFx(0, -SCALE)),
)


class TestZeroVectors:
    # One nonzero word, in re or in im, at every position of a range:
    # every lane of a chunk or vector, its own words and its partner's,
    # and the head and tail the portable loop runs. Every other word of
    # the range is zero and must stay zero, as the scalar functions give
    BODIES = C_BODIES

    @pytest.mark.parametrize("k", (1, 40))      # 40: two passes of DIAG_STEPS
    def test_diag_single_word(self, bodies, k):
        zeros = np.zeros(ZERO_SIZE, dtype=fxp.WORD)
        for c0, c1 in ZERO_DIAG_COEFFS:
            steps = [((c0, c1) if j % 2 else (c1, c0)) + (MASKS[j % len(MASKS)],)
                     for j in range(k)]
            rest = scalar_stretch(steps, ZERO_BASE, zeros, zeros, range(ZERO_SIZE))
            assert rest == [fxp.CFX_ZERO] * ZERO_SIZE
            for p in range(ZERO_SIZE):
                for part in (0, 1):
                    start = (zeros.copy(), zeros.copy())
                    start[part][p] = NONZERO[p % len(NONZERO)]
                    want = list(rest)
                    want[p], = scalar_stretch(steps, ZERO_BASE, *start, [p])
                    for body in bodies:
                        got = (start[0].copy(), start[1].copy())
                        with body.pinned():
                            run_diag(steps, *got, ZERO_BASE)
                        assert as_cfx(*got) == want, (body.name, k, c0, c1, p, part)

    @pytest.mark.parametrize("t", (0, 2, 3, 4, 6))
    def test_pair_single_word(self, bodies, t):
        # pairs [3, 123) of an 8-qubit state: on t < 4 a vector holds 8
        # whole pairs, on t >= 4 an x vector and its y vector; the words
        # outside the range keep their random values
        n, lo, hi, half = 8, 3, 123, 1 << t
        rng = np.random.default_rng(500 + t)
        outside = [random_words(rng, 1 << n) for _ in range(2)]
        inside = [j + (j & -half) + side for j in range(lo, hi) for side in (0, half)]
        for a in outside:
            a[inside] = 0
        for m in ZERO_PAIR_MATRICES:
            assert fxp.su_eval(m[0], m[1], fxp.CFX_ZERO, fxp.CFX_ZERO) == fxp.CFX_ZERO
            assert fxp.su_eval(m[2], m[3], fxp.CFX_ZERO, fxp.CFX_ZERO) == fxp.CFX_ZERO
            for p in inside:
                for part in (0, 1):
                    start = (outside[0].copy(), outside[1].copy())
                    start[part][p] = NONZERO[p % len(NONZERO)]
                    want = (start[0].copy(), start[1].copy())
                    x = p & ~half
                    pair = as_cfx(start[0][[x, x | half]], start[1][[x, x | half]])
                    for i, a, b in ((x, m[0], m[1]), (x | half, m[2], m[3])):
                        want[0][i], want[1][i] = fxp.su_eval(a, b, *pair)
                    for body in bodies:
                        got = (start[0].copy(), start[1].copy())
                        with body.pinned():
                            fxp.Banks(*got).pair(m, t, lo, hi)
                        assert got[0].tobytes() == want[0].tobytes(), (body.name, p, part)
                        assert got[1].tobytes() == want[1].tobytes(), (body.name, p, part)


class TestSparseStates:
    # QFT from a basis state: qubit q enters superposition only at H(q),
    # so most vectors of the stretches and pairs before it are all zero
    BODIES = (*C_BODIES, "numpy")

    @pytest.mark.parametrize("n", range(8, 13))
    def test_qft_bodies_agree(self, bodies, n):
        circuit = circuits.qft(n)
        for index in (0, 1, 5, 3 << (n - 2), (1 << n) - 1):
            dumps = set()
            for body in bodies:
                with body.pinned():
                    sv, _ = engine.run_circuit(state.init_basis(n, index), circuit)
                dumps.add(bytes(sv.dump()))
            assert len(dumps) == 1, (n, index)

    def test_qft_workers_agree(self, bodies):
        # at n = 17 four workers cut each stretch and dense gate into
        # pieces, some of them all zero
        n = 17
        circuit = circuits.qft(n)
        for index in (5, (1 << n) - 1):
            dumps = set()
            for body in (b for b in bodies if b.lib is not None):
                with body.pinned():
                    for workers in (1, 4):
                        sv, _ = engine.run_circuit(state.init_basis(n, index), circuit,
                                                   workers=workers)
                        dumps.add(bytes(sv.dump()))
            assert len(dumps) == 1, index


class TestRoundingTies:
    # c = a * 2^29 with a odd and x = 2k + 1 odd makes c*x an exact tie
    # (c*x mod 2^30 == 2^29) with floor quotient of either parity
    BODIES = ("native",)

    @settings(max_examples=200, deadline=None, suppress_health_check=INHERITED)
    @given(k=st.integers(-(1 << 30), (1 << 30) - 1),
           a=st.sampled_from((1, -1, 3, -3)))
    @example(k=0, a=1)        # 0.5 -> 0, even quotient
    @example(k=1, a=1)        # 1.5 -> 2, odd quotient
    @example(k=-1, a=1)       # -0.5 -> 0
    @example(k=-2, a=1)       # -1.5 -> -2
    @example(k=(1 << 30) - 1, a=3)   # saturates after rounding
    def test_ties_round_half_even(self, bodies, k, a):
        c, x = a * fxp.HALF_ULP, 2 * k + 1
        assert (c * x) % SCALE == fxp.HALF_ULP
        want = max(RAW_MIN, min(RAW_MAX, rne(Fraction(c * x, SCALE))))
        assert fxp.fx_mul(c, x) == want
        for coeff, part in ((CFx(c, 0), 0), (CFx(0, c), 1)):
            # (x + 0i) * coeff puts the product in part `part` of word 0
            words_want = [fxp.cfx_mul(coeff, CFx(x, 0)), fxp.cfx_mul(coeff, CFx(0, x))]
            assert words_want[0][part] == want
            for body in bodies:
                re, im = words([x, 0]), words([0, x])
                with body.pinned():
                    scale_halves(coeff, coeff, 0, re, im)
                assert as_cfx(re, im) == words_want, (body.name, coeff)


class ClipElisionKernels:
    @pytest.mark.parametrize("c", (-SCALE, -SCALE + 1, SCALE))
    def test_boundary_coefficients_against_raw_min(self, bodies, c):
        expected = {-SCALE: RAW_MAX, -SCALE + 1: RAW_MAX - 1, SCALE: RAW_MIN}
        assert fxp.fx_mul(c, RAW_MIN) == expected[c]
        re = words([RAW_MIN, RAW_MIN, RAW_MAX])
        im = words([RAW_MIN, 0, RAW_MIN])
        xs, ys = as_cfx(re, im), as_cfx(im, re)
        for coeff in (CFx(c, 0), CFx(0, c), CFx(c, c)):
            want_diag = ([fxp.cfx_mul(coeff, v) for v in xs],
                         [fxp.cfx_mul(coeff, v) for v in ys])
            want_dense = [fxp.su_eval(coeff, coeff, a, b) for a, b in zip(xs, ys)]
            for body in bodies:
                with body.pinned():
                    got = [a.copy() for a in (re, im, im, re)]
                    run_pair(diagonal(coeff, coeff), *got)
                    assert (as_cfx(got[0], got[1]),
                            as_cfx(got[2], got[3])) == want_diag, (body.name, coeff)
                    got = [a.copy() for a in (re, im, im, re)]
                    run_pair((coeff, coeff, coeff, coeff), *got)
                    assert as_cfx(got[0], got[1]) == want_dense, (body.name, coeff)


class TestClipElision(ClipElisionKernels):
    BODIES = ("numpy",)

    def test_boundary(self):
        assert not fxp.product_fits(-SCALE)
        assert fxp.product_fits(-SCALE + 1)
        assert fxp.product_fits(SCALE)
        assert not fxp.product_fits(SCALE + 1)

    @given(c=st.integers(-SCALE + 1, SCALE),
           x=st.one_of(st.sampled_from((RAW_MIN, RAW_MAX)), raws))
    def test_elided_clip_cannot_bite(self, c, x):
        # the unsaturated round-half-even product already lies in range
        assert RAW_MIN <= rne(Fraction(c * x, SCALE)) <= RAW_MAX


class TestNarrowing:
    # the numpy body computes in int64 scratch and narrows to the word only
    # after the final clip: an int64 result written into a WORD bank
    # through a ufunc's out= would wrap 2^31 to RAW_MIN instead
    WORDS = (RAW_MIN, RAW_MAX, -SCALE, SCALE, -1, 0)

    def test_edge_words_saturate_before_narrowing(self):
        pairs = [(a, b) for a in self.WORDS for b in self.WORDS]
        re = words([a for a, _ in pairs])
        im = words([b for _, b in pairs])
        xs = as_cfx(re, im)
        ys = xs[::-1]
        c = -SCALE
        assert fxp.fx_mul(c, RAW_MIN) == RAW_MAX        # 2^31, clipped
        for coeff in (CFx(c, 0), CFx(0, c), CFx(c, c), CFx(c, SCALE)):
            got = (re.copy(), im.copy())
            fxp.diag(*got, 0, re.size, [(coeff, fxp.CFX_ONE, 1)])
            assert as_cfx(*got) == scalar_scale(coeff, fxp.CFX_ONE, 0, re, im)
            got = [re.copy(), im.copy(), re[::-1].copy(), im[::-1].copy()]
            pair_flat((coeff, coeff, coeff, fxp.CFX_ONE), *got)
            assert all(a.dtype == fxp.WORD for a in got)
            assert as_cfx(got[0], got[1]) == [fxp.su_eval(coeff, coeff, a, b)
                                              for a, b in zip(xs, ys)]
            assert as_cfx(got[2], got[3]) == [fxp.su_eval(coeff, fxp.CFX_ONE, a, b)
                                              for a, b in zip(xs, ys)]


class TestBanks:
    # fxp.Banks is the one door to the library: a writable, contiguous
    # 1-D WORD pair takes it for every kernel; any other pair of arrays
    # runs the numpy bodies, whose scratch allocation fails under a C
    # pin, and never reaches the int32_t * C code

    def test_takes_only_the_word(self, bodies):
        h = gateset.single("H", 0).matrix
        step = [(fxp.CFX_ONE, CFx(0, SCALE), 1)]
        a = np.zeros(16, dtype=fxp.WORD)
        read_only = a.copy()
        read_only.flags.writeable = False
        others = [(b, b.copy()) for b in (np.zeros(16, dtype=wide)
                                          for wide in (np.int64, np.uint32, np.float32))]
        others += [(a, np.zeros(16, dtype=np.int64)), (read_only, a.copy()),
                   (a[::2], a[1::2])]                   # an 8-byte word stride
        for body in bodies:
            calls = []

            class Recording:
                def __getattr__(self, name):
                    calls.append(name)
                    return getattr(body.lib, name)

            with body.pinned(), pytest.MonkeyPatch.context() as mp:
                mp.setattr(fxp, "_native", [Recording()])
                banks = fxp.Banks(a, a.copy())
                banks.pair(h, 0, 0, 8)
                banks.diag(step, 0, 16)
                banks.cx(1, 0)
                if body.lib is None:
                    # the numpy pin finds no library, so nothing reaches one
                    assert calls == [], body.name
                    continue
                assert calls == ["hpqe_pair_banks", "hpqe_diag", "hpqe_cx"], body.name
                calls.clear()
                for re, im in others:
                    banks = fxp.Banks(re, im)
                    for run in (lambda: banks.pair(h, 0, 0, 4),
                                lambda: banks.diag(step, 0, 8)):
                        with pytest.raises(AssertionError, match="numpy kernel body ran"):
                            run()
                # one word per array passes every stride rule: only the type
                # refuses it
                wide = np.zeros(1, dtype=np.int64)
                with pytest.raises(AssertionError, match="numpy kernel body ran"):
                    fxp.Banks(wide, wide.copy()).diag(step, 0, 1)
                assert calls == [], body.name

    @pytest.mark.parametrize("name", (*C_BODIES, "numpy"))
    def test_pin(self, bodies, name):
        # a C pin hands every Banks its library and fails a numpy scratch
        # allocation; the numpy pin leaves every Banks without a library;
        # after each, even one left by an error, the loader is as before.
        # A C body this host cannot build skips here, naming it.
        body = next((b for b in bodies if b.name == name), None)
        if body is None:
            pytest.skip(f"the {name} body cannot be built or loaded on this host; "
                        "the kernel checks ran without it")
        saved = (fxp._native, fxp.native_kernels, fxp.new_scratch)
        a = np.zeros(16, dtype=fxp.WORD)
        with body.pinned():
            assert fxp.Banks(a, a.copy())._lib is body.lib
            if body.lib is None:
                assert fxp.new_scratch().shape == (fxp.SCRATCH_ROWS, fxp.BLOCK)
            else:
                assert fxp.native_kernels() is body.lib
                with pytest.raises(AssertionError, match="numpy kernel body ran"):
                    fxp.new_scratch()
        with pytest.raises(ZeroDivisionError), body.pinned():
            1 // 0
        now = (fxp._native, fxp.native_kernels, fxp.new_scratch)
        assert all(x is y for x, y in zip(now, saved))


def _random_state(n: int, rng) -> state.StateVector:
    sv = state.init_basis(n, 0)
    sv.re[:] = random_words(rng, 1 << n)
    sv.im[:] = random_words(rng, 1 << n)
    return sv


# Angles at which RZ, RX and RY have a part of -2^30, outside (-2^30,
# 2^30] (`fxp.product_fits`), so that their calls take the kernels' clip
# path: m00 at 2π, the imaginary part of RZ's m00 and of RX's m01 at π,
# and RZ's m00 at 2π + 1e-5, whose imaginary part is nonzero. On a
# RAW_MIN word such a part's product is 2^31 and clips; the clip changes
# the result where that product is subtracted (at π) or summed with a
# nonzero product of the same coefficient (RZ at 2π + 1e-5)
CLIP_ANGLES = (np.pi, 2 * np.pi, 2 * np.pi + 1e-5)
SPARSE_GATES = (*(("RZ", a) for a in CLIP_ANGLES), ("S", None), ("RZ", 0.7))
DENSE_GATES = (*(("RX", a) for a in CLIP_ANGLES), ("RY", 2 * np.pi), ("H", None),
               ("RX", 2.3), ("RY", 5.1))


def _edge_state(n: int, rng) -> state.StateVector:
    # a random state of which about a third of the words are EDGES words,
    # RAW_MIN among them
    sv = _random_state(n, rng)
    for bank in (sv.re, sv.im):
        edge = rng.random(bank.size) < 0.3
        bank[edge] = rng.choice(EDGES, int(edge.sum()))
    return sv


def _check_gate(bodies, n: int, rng, exhaustive: bool, workers=(None,)) -> None:
    # one gate per target, sparse and dense, through apply_single (None)
    # or through run_circuit on each worker count in `workers`, on each
    # body; the gates take turns from SPARSE_GATES and DENSE_GATES
    sv0 = _edge_state(n, rng)
    pairs = 1 << (n - 1)
    for t in range(n):
        for sparse, gates in ((True, SPARSE_GATES), (False, DENSE_GATES)):
            kind, angle = gates[(n + t) % len(gates)]
            op = gateset.single(kind, t, angle)
            m = op.matrix
            ks = range(pairs) if exhaustive else {0, pairs - 1, *rng.integers(
                0, pairs, 64).tolist()}
            index, want = [], []
            for k in ks:
                i0 = ((k >> t) << (t + 1)) | (k & ((1 << t) - 1))
                i1 = i0 | (1 << t)
                x, y = as_cfx(sv0.re[[i0, i1]], sv0.im[[i0, i1]])
                index += [i0, i1]
                if sparse:
                    want += [fxp.cfx_mul(m[0], x), fxp.cfx_mul(m[3], y)]
                else:
                    want += [fxp.su_eval(m[0], m[1], x, y),
                             fxp.su_eval(m[2], m[3], x, y)]
            for body in bodies:
                with body.pinned():
                    for w in workers:
                        sv = sv0.copy()
                        if w is None:
                            engine.apply_single(sv, op)
                        else:
                            engine.run_circuit(sv, gateset.Circuit(n=n, ops=[op]),
                                               workers=w)
                        assert as_cfx(sv.re[index], sv.im[index]) == want, (
                            body.name, n, t, op.kind, op.angle, w)


class TestEngineEveryTarget:
    BODIES = ("native",)

    @pytest.mark.parametrize("n", range(3, 18))
    def test_every_target_both_modes(self, bodies, n):
        # t <= n-4 is access mode 1, t >= n-3 mode 2; sparse and dense each
        modes = {engine.access_mode(t, n) for t in range(n)}
        assert modes == ({engine.MODE2} if n == 3 else {engine.MODE1, engine.MODE2})
        _check_gate(bodies, n, np.random.default_rng(100 + n), exhaustive=n <= 10)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_small_block_exhaustive(self, bodies, n):
        # banks of several blocks, pair halves wider than a block
        with block_size(4):
            _check_gate(bodies, n, np.random.default_rng(200 + n), exhaustive=True)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_cut(self, bodies, n):
        # p = min(workers, 2^(n-1)) pieces: sparse pieces shorter than the
        # period 2^(t+1), inside one half, and dense pair ranges inside one
        # row when the 2^(n-1-t) rows are fewer than p
        with split_every_state():
            _check_gate(bodies, n, np.random.default_rng(400 + n), exhaustive=True,
                        workers=range(2, 9))


class TestDeferral:
    # run_circuit defers every CX as a relabeling and runs each stretch of
    # diagonal gates as one call per piece, each gate with its parity mask;
    # a gate-by-gate replay through the eager apply_single and apply_cx on
    # the same body must end on the same bits. Stretches cross CX
    # relabelings and end at dense gates and at the end of the circuit;
    # the state is cut into pieces at every worker count.
    BODIES = ("native",)

    @settings(max_examples=60, deadline=None, suppress_health_check=INHERITED)
    @given(n=st.integers(2, 10), workers=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_run_equals_eager_replay(self, bodies, n, workers, seed, data):
        rng = np.random.default_rng(seed)
        qubit = st.integers(0, n - 1)
        cx = st.tuples(st.just("CX"), qubit, qubit).filter(lambda g: g[1] != g[2])
        sparse = st.tuples(st.sampled_from(("RZ", "S", "clip")), qubit)
        dense = st.tuples(st.sampled_from(("H", "RY", "RX")), qubit)
        stretch = st.lists(st.one_of(sparse, cx), min_size=1, max_size=40)
        ops = []
        for part in data.draw(st.lists(st.one_of(stretch, dense.map(lambda g: [g])),
                                       max_size=6)):
            for g in part:
                if g[0] == "CX":
                    ops.append(gateset.cx(g[1], g[2]))
                elif g[0] == "clip":        # the clip path's words
                    ops.append(gateset.single("RZ", g[1], float(rng.choice(CLIP_ANGLES))))
                else:
                    angle = float(rng.uniform(0, 4 * np.pi)) if g[0] not in ("H", "S") else None
                    ops.append(gateset.single(g[0], g[1], angle))
        start = _random_state(n, rng)
        for body in bodies:
            with body.pinned():
                with split_every_state():
                    sv, _ = engine.run_circuit(start.copy(), gateset.Circuit(n=n, ops=ops),
                                               workers=workers)
                want = start.copy()
                for op in ops:
                    if op.kind == "CX":
                        engine.apply_cx(want, op.control, op.target)
                    else:
                        engine.apply_single(want, op)
            assert sv.dump() == want.dump(), body.name


def _layout_ops(n: int, rng, gates: int) -> list:
    # mostly CX and diagonal gates and few dense ones, so that qubits stay
    # fixed across CXs: a CX from a fixed control of value 1 onto a fixed
    # target moves the window at the next dense gate, one from a free
    # control grows it there unless a second CX cancels it, and diagonal
    # gates fall on fixed qubits
    ops = []
    for _ in range(gates):
        r, q = rng.random(), int(rng.integers(n))
        if n >= 2 and r < 0.45:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(gateset.cx(int(a), int(b)))
        elif r < 0.6:                        # the clip path's words
            ops.append(gateset.single("RZ", q, float(rng.choice(CLIP_ANGLES))))
        elif r < 0.85:
            ops.append(gateset.single("S", q) if r < 0.65 else
                       gateset.single("RZ", q, float(rng.uniform(0, 4 * np.pi))))
        else:
            kind = ("H", "RX", "RY")[int(rng.integers(3))]
            ops.append(gateset.single(kind, q, None if kind == "H" else
                                      float(rng.uniform(0, 4 * np.pi))))
    return ops


def _one_word(n: int, index: int, rng) -> state.StateVector:
    # a basis state whose one nonzero word lies in re, in im or in both,
    # of either sign
    sv = state.init_basis(n, 0)
    sv.re[0] = 0
    word = random_coeff(rng)
    parts = ((word.re, 0), (0, word.im), tuple(word))[int(rng.integers(3))]
    sv.re[index], sv.im[index] = parts if any(parts) else (-1, 0)
    return sv


def _replay(start: state.StateVector, ops) -> bytearray:
    want = start.copy()
    for op in ops:
        if op.kind == "CX":
            engine.apply_cx(want, op.control, op.target)
        else:
            engine.apply_single(want, op)
    return want.dump()


def _window_cases(n: int, index: int, ops) -> set:
    # the cases of run_circuit's window a circuit reaches from the basis
    # state `index`, read from the calls of `helpers.window_model`: at a
    # dense gate the window moves (a qubit that stays fixed changed its
    # value) or grows by more than its target (the map freed a qubit); a
    # diagonal step reads no free bit; the map ends neither the natural
    # identity, nor (then) in the identity layout
    calls, natural, order = window_model(n, index, ops)
    seen, held = set(), (sum(1 << order.index(q) for q in range(n) if index >> q & 1), 1)
    for name, first, _, lo, size in calls:
        if name == "diag":
            if any(mask & (size - 1) == 0 for _, _, mask in first):
                seen.add("fixed diagonal")
            continue
        if size > 2 * held[1]:
            seen.add("grows")
        if lo & -size != held[0] & -size:
            seen.add("moves")
        held = lo, size
    if not natural:
        seen.add("final map")
        if order != list(range(n)):
            seen.add("layout undone")
    return seen


class TestLayout:
    # From a basis state run_circuit keeps each qubit on a stored bit in
    # the order it becomes free, and runs every call on the window of
    # words that can be nonzero: the window moves, grows, runs diagonal
    # gates of fixed qubits, and the layout is undone at the end where
    # the deferred map is not the identity. On every body and worker
    # count, the window shorter than the piece count included, the bits
    # must be those of an eager gate-by-gate replay.
    BODIES = (*C_BODIES, "numpy")
    CASES = {"moves", "grows", "fixed diagonal", "final map", "layout undone"}

    @staticmethod
    def _agree(bodies, start, ops, want=None) -> None:
        want = _replay(start, ops) if want is None else want
        circuit = gateset.Circuit(n=start.n, ops=ops)
        for body in bodies:
            with body.pinned(), split_every_state():
                for workers in (1, 2, 4):
                    sv, _ = engine.run_circuit(start.copy(), circuit, workers=workers)
                    assert sv.dump() == want, (body.name, workers)

    def test_every_basis_state(self, bodies):
        seen = set()
        for n in range(1, 7):
            for index in range(1 << n):
                rng = np.random.default_rng([n, index])
                ops = _layout_ops(n, rng, 8 * n)
                seen |= _window_cases(n, index, ops)
                self._agree(bodies, _one_word(n, index, rng), ops)
        assert seen == self.CASES

    @settings(max_examples=25, deadline=None, suppress_health_check=INHERITED)
    @given(n=st.integers(7, 14), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_basis_states(self, bodies, n, seed):
        rng = np.random.default_rng(seed)
        index = int(rng.integers(1 << n))
        self._agree(bodies, _one_word(n, index, rng), _layout_ops(n, rng, 6 * n))

    def test_other_starts(self, bodies):
        # two nonzero words, in one array or one in each, a zero state and
        # a full one: every qubit free, the identity layout
        rng = np.random.default_rng(25)
        for n in (2, 5, 9):
            ops = _layout_ops(n, rng, 6 * n)
            starts = [_random_state(n, rng), state.init_basis(n, 0)]
            starts[1].re[0] = 0
            for a, b in ((0, 1), (1, (1 << n) - 1), (2, 3)):
                sv = state.init_basis(n, 0)
                sv.re[0] = 0
                sv.re[a], sv.im[b] = fxp.RAW_MIN, 5
                starts.append(sv)
            two = state.init_basis(n, 1)
            two.re[(1 << n) - 2] = -7
            starts.append(two)
            for start in starts:
                self._agree(bodies, start, ops)

    @pytest.mark.parametrize("bad", (
        gateset.GateOp(kind="CX", target=1, control=1),
        replace(gateset.single("H", 0), control=1),
        replace(gateset.single("RZ", 0, 0.3), target=9)))
    def test_bad_op_fails_at_its_position(self, bodies, bad):
        # from a basis state, with a layout that is not the identity: the
        # ops before the bad one run, and the state is left logical
        n = 6
        rng = np.random.default_rng(77)
        ops = _layout_ops(n, rng, 40)
        with pytest.raises(ValueError) as eager:
            gateset.check_gate(bad, n)
        for cut in (0, 7, 23, 40):
            start = _one_word(n, 0b101101, rng)
            want = _replay(start, ops[:cut])
            circuit = gateset.Circuit(n=n, ops=[*ops[:cut], bad, *ops[cut:]])
            for body in bodies:
                with body.pinned(), split_every_state():
                    for workers in (1, 2, 4):
                        sv = start.copy()
                        with pytest.raises(ValueError, match=re.escape(str(eager.value))):
                            engine.run_circuit(sv, circuit, workers=workers)
                        assert sv.dump() == want, (body.name, workers, cut)


class TestWorkers:
    BODIES = ("numpy",)

    @pytest.mark.parametrize("block", (fxp.BLOCK, 1 << 12))
    def test_bit_identical_across_workers(self, bodies, block):
        # at n = 17 a piece is 2^14 to 2^17 words; with BLOCK = 2^12 it
        # spans several blocks, so every worker streams several blocks per gate
        n = 17
        rng = np.random.default_rng(17)
        circuit = random_circuit(n, 40, rng)
        start = _random_state(n, rng)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for body in bodies:
                results = []
                with body.pinned(), block_size(block), split_every_state():
                    for workers in range(1, 9):
                        sv, report = engine.run_circuit(start.copy(), circuit,
                                                        workers=workers)
                        results.append((sv.dump(), report.total_cycles))
                assert all(r == results[0] for r in results[1:]), body.name
        finally:
            sys.setswitchinterval(interval)


class TestCx:
    BODIES = ("native",)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_native_matches_views(self, bodies, n):
        # each C body's swap against the numpy [2]*n view swap, for every
        # pair; from n = 4 the vector body takes 16-word blocks, and control
        # and target each fall below or above a block
        rng = np.random.default_rng(300 + n)
        sv0 = _random_state(n, rng)
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        views = {}
        with Body("numpy").pinned():
            for control, target in pairs:
                sv = sv0.copy()
                engine.apply_cx(sv, control, target)
                views[control, target] = sv.dump()
                assert views[control, target] != sv0.dump()
        for body in (b for b in bodies if b.lib is not None):
            with body.pinned():
                for control, target in pairs:
                    sv = sv0.copy()
                    engine.apply_cx(sv, control, target)
                    assert sv.dump() == views[control, target], (body.name, n, control,
                                                                 target)


class TestClipElisionNative(ClipElisionKernels):
    BODIES = ("native",)


class TestWorkersNative(TestWorkers):
    BODIES = ("native",)


class TestWorkersPortable(TestWorkers):
    BODIES = ("portable",)


class TestCxPortable(TestCx):
    BODIES = ("portable",)


# The same tests on the numpy body and on the portable C body.

class TestScaleBankNumpy(TestScaleBank):
    BODIES = ("numpy",)


class TestScaleBankPortable(TestScaleBank):
    BODIES = ("portable",)


class TestDiagNumpy(TestDiag):
    BODIES = ("numpy",)


class TestDiagPortable(TestDiag):
    BODIES = ("portable",)


class TestPairBanksNumpy(TestPairBanks):
    BODIES = ("numpy",)


class TestPairBanksPortable(TestPairBanks):
    BODIES = ("portable",)


class TestRoundingTiesNumpy(TestRoundingTies):
    BODIES = ("numpy",)


class TestRoundingTiesPortable(TestRoundingTies):
    BODIES = ("portable",)


class TestEngineEveryTargetNumpy(TestEngineEveryTarget):
    BODIES = ("numpy",)


class TestEngineEveryTargetPortable(TestEngineEveryTarget):
    BODIES = ("portable",)


class TestDeferralNumpy(TestDeferral):
    BODIES = ("numpy",)


class TestDeferralPortable(TestDeferral):
    BODIES = ("portable",)
