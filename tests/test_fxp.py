import math
from fractions import Fraction

import numpy as np
import pytest

from hpqe import fxp
from hpqe.fxp import CFx

from helpers import quantize_oracle, random_raws, rne

ULP = 2.0 ** -30


class TestQuantize:
    def test_exact_values(self):
        assert fxp.quantize(1.0) == 1073741824
        assert fxp.quantize(-2.0) == -2147483648
        assert fxp.quantize(0.0) == 0
        assert fxp.quantize(0.5) == 1 << 29

    def test_sqrt_half_golden(self):
        # frozen from the rational rounding oracle
        x = 1.0 / math.sqrt(2.0)
        assert quantize_oracle(x) == 759250125
        assert fxp.quantize(x) == 759250125
        assert fxp.quantize(-x) == -759250125
        assert fxp.RAW_SQRT_HALF == 759250125

    def test_saturation(self):
        assert fxp.quantize(2.0) == fxp.RAW_MAX
        assert fxp.quantize(100.0) == fxp.RAW_MAX
        assert fxp.quantize(-2.1) == fxp.RAW_MIN
        assert fxp.quantize(-1e30) == fxp.RAW_MIN

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                fxp.quantize(bad)

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1.999, 1.999, 2000):
            assert abs(fxp.to_real(fxp.quantize(x)) - x) <= 2.0 ** -31

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(2)
        samples = list(rng.uniform(-2.5, 2.5, 500))
        samples += [1.5, -1.5, 2.0 - ULP, -2.0, 3.0 * 2.0 ** -31]
        for x in samples:
            assert fxp.quantize(x) == quantize_oracle(x), x


class TestFxAdd:
    def test_examples(self):
        one, half = fxp.quantize(1.0), fxp.quantize(0.5)
        assert fxp.to_real(fxp.fx_add(one, half)) == 1.5
        assert fxp.fx_add(fxp.quantize(1.5), fxp.quantize(1.5)) == fxp.RAW_MAX
        assert fxp.to_real(fxp.RAW_MAX) == 2.0 - ULP

    def test_identity(self):
        rng = np.random.default_rng(3)
        for a in random_raws(rng, 200):
            assert fxp.fx_add(0, a) == a
            assert fxp.fx_add(a, 0) == a

    def test_negative_saturation(self):
        assert fxp.fx_add(fxp.RAW_MIN, -1) == fxp.RAW_MIN
        assert fxp.fx_sub(fxp.RAW_MIN, fxp.RAW_MAX) == fxp.RAW_MIN


class TestFxMul:
    def test_identity(self):
        rng = np.random.default_rng(4)
        one = fxp.quantize(1.0)
        for a in random_raws(rng, 200):
            assert fxp.fx_mul(one, a) == a
            assert fxp.fx_mul(a, one) == a

    def test_exact_quarter(self):
        half = fxp.quantize(0.5)
        assert fxp.to_real(fxp.fx_mul(half, half)) == 0.25

    def test_sqrt_half_square_golden(self):
        r = fxp.RAW_SQRT_HALF
        # independent rational oracle: RNE(r*r / 2^30)
        assert rne(Fraction(r * r, fxp.SCALE)) == 536870912
        got = fxp.fx_mul(r, r)
        assert got == 536870912           # exactly 0.5 in raw units
        assert abs(fxp.to_real(got) - 0.5) <= 2.0 ** -29

    def test_ties_round_to_even(self):
        half_ulp = fxp.HALF_ULP
        assert fxp.fx_mul(1, half_ulp) == 0       # 0.5 -> 0
        assert fxp.fx_mul(3, half_ulp) == 2       # 1.5 -> 2
        assert fxp.fx_mul(5, half_ulp) == 2       # 2.5 -> 2
        assert fxp.fx_mul(-1, half_ulp) == 0      # -0.5 -> 0
        assert fxp.fx_mul(-3, half_ulp) == -2     # -1.5 -> -2
        assert fxp.fx_mul(-5, half_ulp) == -2     # -2.5 -> -2

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(5)
        pairs = zip(random_raws(rng, 500), random_raws(rng, 500))
        for a, b in pairs:
            want = max(fxp.RAW_MIN, min(fxp.RAW_MAX, rne(Fraction(a * b, fxp.SCALE))))
            assert fxp.fx_mul(a, b) == want

    def test_rounding_bound(self):
        rng = np.random.default_rng(6)
        for a, b in rng.uniform(-1, 1, size=(1000, 2)):
            got = fxp.to_real(fxp.fx_mul(fxp.quantize(a), fxp.quantize(b)))
            assert abs(got - a * b) <= 3 * ULP


class TestSaturationTotality:
    def test_all_ops_stay_in_range(self):
        rng = np.random.default_rng(7)
        edges = [fxp.RAW_MIN, fxp.RAW_MAX, 0, 1, -1]
        raws = random_raws(rng, 300) + edges
        for a in edges:
            for b in raws:
                for op in (fxp.fx_add, fxp.fx_sub, fxp.fx_mul):
                    r = op(a, b)
                    assert fxp.RAW_MIN <= r <= fxp.RAW_MAX


class TestCfxMul:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(8)
        one = CFx(fxp.quantize(1.0), 0)
        for re, im in zip(random_raws(rng, 100), random_raws(rng, 100)):
            assert fxp.cfx_mul(one, CFx(re, im)) == CFx(re, im)

    def test_i_squared(self):
        i = CFx(0, fxp.quantize(1.0))
        assert fxp.cfx_mul(i, i) == CFx(fxp.quantize(-1.0), 0)

    def test_sqrt_half_product_golden(self):
        r = fxp.RAW_SQRT_HALF
        got = fxp.cfx_mul(CFx(r, r), CFx(r, -r))
        assert got == CFx(fxp.quantize(1.0), 0)
        assert abs(fxp.to_real(got.re) - 1.0) <= 2.0 ** -28
        assert abs(fxp.to_real(got.im)) <= 2.0 ** -28

    def test_within_one_ulp_of_extended_precision(self):
        rng = np.random.default_rng(9)
        bound = fxp.quantize(0.9)
        for _ in range(400):
            a = CFx(*random_raws(rng, 2, -bound, bound))
            b = CFx(*random_raws(rng, 2, -bound, bound))
            got = fxp.cfx_mul(a, b)
            want_re = rne(Fraction(a.re * b.re - a.im * b.im, fxp.SCALE))
            want_im = rne(Fraction(a.re * b.im + a.im * b.re, fxp.SCALE))
            assert abs(got.re - want_re) <= 1
            assert abs(got.im - want_im) <= 1


class TestSuEval:
    def test_dense_trivial(self):
        rng = np.random.default_rng(10)
        c0 = CFx(fxp.quantize(1.0), 0)
        for re, im in zip(random_raws(rng, 50), random_raws(rng, 50)):
            x = CFx(re, im)
            assert fxp.su_eval(c0, fxp.CFX_ZERO, x, CFx(1, -1)) == x

    def test_sparse_is_single_multiply(self):
        i = CFx(0, fxp.quantize(1.0))
        got = fxp.su_eval(i, CFx(5, 5), CFx(fxp.quantize(1.0), 0), CFx(7, 7),
                          op=fxp.SPARSE)
        assert got == CFx(0, fxp.quantize(1.0))

    def test_dense_hadamard_coefficients(self):
        r = CFx(fxp.RAW_SQRT_HALF, 0)
        got = fxp.su_eval(r, r, fxp.CFX_ONE, fxp.CFX_ZERO)
        assert got == CFx(fxp.RAW_SQRT_HALF, 0)

    def test_dense_matches_composition_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c0, c1, x, y = (CFx(*random_raws(rng, 2)) for _ in range(4))
            want = fxp.cfx_add(fxp.cfx_mul(c0, x), fxp.cfx_mul(c1, y))
            assert fxp.su_eval(c0, c1, x, y, op=fxp.DENSE) == want
            assert fxp.su_eval(c0, c1, x, y, op=fxp.SPARSE) == fxp.cfx_mul(c0, x)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            fxp.su_eval(fxp.CFX_ONE, fxp.CFX_ZERO, fxp.CFX_ONE, fxp.CFX_ZERO,
                        op="banana")


class TestVectorizedKernels:
    def test_match_scalar_bit_exact(self):
        rng = np.random.default_rng(12)
        edges = [fxp.RAW_MIN, fxp.RAW_MAX, 0, 1, -1, fxp.HALF_ULP,
                 -fxp.SCALE, fxp.SCALE]
        re = np.concatenate([rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 2000,
                                          dtype=np.int64), edges])
        im = np.concatenate([rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 2000,
                                          dtype=np.int64), edges[::-1]])
        coeffs = [CFx(a, b) for a in edges for b in edges[::3]]
        coeffs += [CFx(*random_raws(rng, 2)) for _ in range(6)]
        for c in coeffs:
            # a dense step with zero off-diagonals (c, 0, 0, c) on x and y
            banks = [a.copy() for a in (re, im, im, re)]
            fxp.pair_banks(c, fxp.CFX_ZERO, fxp.CFX_ZERO, c, *banks)
            for (gr, gi), (xr, xi) in (((banks[0], banks[1]), (re, im)),
                                       ((banks[2], banks[3]), (im, re))):
                want = [fxp.cfx_mul(c, CFx(int(x), int(y))) for x, y in zip(xr, xi)]
                assert [CFx(int(x), int(y)) for x, y in zip(gr, gi)] == want, c
            # the sparse step: c on the words of odd parity under the mask
            banks = [re.copy(), im.copy()]
            fxp.diag([(fxp.CFX_ONE, c, 0b101)], *banks, 0, re.size)
            want = [fxp.cfx_mul(c if bin(k & 0b101).count("1") & 1 else fxp.CFX_ONE,
                                CFx(int(x), int(y)))
                    for k, (x, y) in enumerate(zip(re, im))]
            assert [CFx(int(x), int(y)) for x, y in zip(*banks)] == want, c

    def test_pair_banks_matches_scalar(self):
        rng = np.random.default_rng(13)
        c00, c01, c10, c11 = (CFx(*random_raws(rng, 2)) for _ in range(4))
        size = 500
        xr, xi, yr, yi = (rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, size,
                                       dtype=np.int64) for _ in range(4))
        banks = [a.copy() for a in (xr, xi, yr, yi)]
        fxp.pair_banks(c00, c01, c10, c11, *banks)
        for k in range(size):
            x, y = CFx(int(xr[k]), int(xi[k])), CFx(int(yr[k]), int(yi[k]))
            assert (int(banks[0][k]), int(banks[1][k])) == fxp.su_eval(c00, c01, x, y)
            assert (int(banks[2][k]), int(banks[3][k])) == fxp.su_eval(c10, c11, x, y)

