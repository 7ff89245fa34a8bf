"""Shared test utilities: independent oracles and random generators."""

import contextlib
from fractions import Fraction

import numpy as np

from hpqe import engine, fxp, gateset

ALL_KINDS = ("H", "S", "RX", "RY", "RZ", "CX")
# built with this flag, kernels.c leaves out its AVX-512F body, so every
# call runs the portable C loops whatever the host
PORTABLE_FLAG = "-DHPQE_PORTABLE"


@contextlib.contextmanager
def split_every_state():
    """Let `engine.run_circuit` cut its kernel calls into pieces at any
    state size, as it does from `engine.SPLIT_MIN_AMPS` amplitudes up."""
    saved = engine.SPLIT_MIN_AMPS
    engine.SPLIT_MIN_AMPS = 1
    try:
        yield
    finally:
        engine.SPLIT_MIN_AMPS = saved


def rne(value: Fraction) -> int:
    """Round-half-even of an exact rational, via rational arithmetic.

    Independent of the bit-shift implementation under test.
    """
    floor = value.numerator // value.denominator
    rem = value - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor + (floor & 1)


def quantize_oracle(x) -> int:
    """Extended-precision quantization: RNE(x * 2^30), saturated."""
    raw = rne(Fraction(x) * fxp.SCALE)
    return max(fxp.RAW_MIN, min(fxp.RAW_MAX, raw))


def as_cfx(re, im) -> list:
    """The words of two integer arrays (a state's `re` and `im`, or a
    bank's) as CFx amplitudes, for comparison with the scalar functions."""
    return [fxp.CFx(r, i) for r, i in zip(re.tolist(), im.tolist())]


def random_raws(rng, size, lo=fxp.RAW_MIN, hi=fxp.RAW_MAX):
    vals = rng.integers(lo, hi + 1, size=size, dtype=np.int64)
    return [int(v) for v in vals]


def random_circuit(n: int, gates: int, rng) -> gateset.Circuit:
    """Uniformly random base-set circuit (CX only when n >= 2)."""
    circuit = gateset.Circuit(n=n)
    for _ in range(gates):
        kind = ALL_KINDS[rng.integers(0, len(ALL_KINDS))]
        if kind == "CX" and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            circuit.ops.append(gateset.cx(int(a), int(b)))
        else:
            if kind == "CX":
                kind = "H"
            angle = float(rng.uniform(0, 2 * np.pi)) if kind in ("RX", "RY", "RZ") else None
            circuit.ops.append(gateset.single(kind, int(rng.integers(0, n)), angle))
    return circuit


def random_ref_amplitudes(n: int, rng) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def apply_1q_reference(amps: np.ndarray, m: np.ndarray, q: int) -> None:
    """Whole-array single-qubit gate: contiguous copies of both halves.

    The form ref_run used before it streamed blocks; its blocked kernel
    must match it byte for byte.
    """
    a = amps.reshape(-1, 2, 1 << q)
    x = a[:, 0, :].copy()
    y = a[:, 1, :].copy()
    a[:, 0, :] = m[0, 0] * x + m[0, 1] * y
    a[:, 1, :] = m[1, 0] * x + m[1, 1] * y


def apply_cx_reference(amps: np.ndarray, control: int, target: int, n: int) -> None:
    """CX by swapping through a copy of one whole control=1 half.

    The form ref_run used before it swapped block by block; its blocked
    swap must match it byte for byte.
    """
    t = amps.reshape([2] * n)
    sel0 = [slice(None)] * n
    sel1 = [slice(None)] * n
    sel0[n - 1 - control] = 1
    sel1[n - 1 - control] = 1
    sel0[n - 1 - target] = 0
    sel1[n - 1 - target] = 1
    tmp = t[tuple(sel0)].copy()
    t[tuple(sel0)] = t[tuple(sel1)]
    t[tuple(sel1)] = tmp


def metrics_reference(av: np.ndarray, bv: np.ndarray):
    """(fidelity, mse_raw, mse_aligned, phase) by whole-array expressions.

    The form oracle.metrics had before it reused its buffers.
    """
    fidelity = float(abs(np.sum(np.conj(av) * bv)) ** 2)
    mse_raw = float(np.sum(np.abs(av - bv) ** 2)) / av.size
    overlap = np.sum(av * np.conj(bv))
    phase = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
    mse_aligned = float(np.sum(np.abs(av - np.exp(1j * phase) * bv) ** 2)) / av.size
    return fidelity, mse_raw, mse_aligned, phase
