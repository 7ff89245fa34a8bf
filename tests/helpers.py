"""Shared test utilities: independent oracles and random generators."""

import contextlib
import json
from fractions import Fraction

import numpy as np

from hpqe import engine, fxp, gateset, perfmodel

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


def pair_flat(m, xr, xi, yr, yi) -> None:
    """`fxp.pair_banks`, the numpy body, on flat x and y banks of one
    length and integer type, in place: the first `size` pairs of qubit t
    of a state of that type, x at word 0 and y at word 2^t, the least
    power of two not below the size."""
    size = xr.size
    t = max(size - 1, 0).bit_length()
    re, im = (np.zeros(2 << t, dtype=xr.dtype) for _ in range(2))
    x, y = slice(0, size), slice(1 << t, (1 << t) + size)
    re[x], im[x], re[y], im[y] = xr, xi, yr, yi
    fxp.pair_banks(re, im, t, 0, size, m)
    xr[...], xi[...], yr[...], yi[...] = re[x], im[x], re[y], im[y]


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


def window_model(n: int, index, ops) -> tuple:
    """`engine.run_circuit`'s kernel calls from the basis state `index`,
    or from a state that is not a basis state (index None), by the rules
    its docstrings state, written without its code.

    The rule in logical terms: qubit q is, at each op, the xor of the
    qubits in dep[q] as they stood at the last dense gate, so a CX onto
    q only xors its control's dep into dep[q]. From a basis state every
    qubit starts fixed at its bit of `index`, from any other state free.
    At a dense gate the target becomes free, and so does every fixed
    qubit whose dep holds a free one; the others take the parity of
    their dep's values. A free qubit stays free. Free qubits take stored
    bits 0, 1, ... in the order they become free (at one dense gate,
    those freed through dep in qubit order, then the target), the
    others the next bits in qubit order. Returns (calls, natural,
    order): calls one (name, first argument, dense target's stored bit,
    lo, words) per kernel call, the words [lo, lo + words) that can be
    nonzero where the words stand at the call; natural whether the
    deferred map ends as the identity of logical and stored bits; order
    the qubit on each stored bit.
    """
    free = 0 if index is not None else (1 << n) - 1
    order = [q for q in range(n) if free >> q & 1]
    dep, value, steps, events = [1 << q for q in range(n)], index or 0, [], []
    held = (value, free)              # where the words stand
    for op in [*ops, None]:
        if op is not None and op.kind == "CX":
            dep[op.target] ^= dep[op.control]
        elif op is not None and op.sparse:
            steps.append((op.matrix[0], op.matrix[3], dep[op.target]))
        else:
            if steps:
                events.append(("diag", steps, None, held))
            steps = []
            if op is None:
                break
            for q in [q for q in range(n) if dep[q] & free] + [op.target]:
                if not free >> q & 1:
                    free |= 1 << q
                    order.append(q)
            value = sum(bin(value & dep[q]).count("1") % 2 << q for q in range(n)) & ~free
            dep = [1 << q for q in range(n)]
            held = (value, free)
            events.append(("pair", op.matrix, op.target, held))
    order += [q for q in range(n) if not free >> q & 1]
    bit = {q: b for b, q in enumerate(order)}

    def stored(qubits):
        return sum(1 << bit[q] for q in range(n) if qubits >> q & 1)

    calls = []
    for name, first, target, (value, free) in events:
        if name == "diag":
            first = [(m00, m11, stored(mask)) for m00, m11, mask in first]
        calls.append((name, first, None if target is None else bit[target],
                      stored(value), 1 << bin(free).count("1")))
    return calls, all(stored(dep[q]) == 1 << q for q in range(n)), order


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

    The form oracle.metrics had before it read its inputs in blocks; its
    blocked core must match it byte for byte. Equal states (mse_raw 0)
    report no phase, as oracle.mse always has.
    """
    fidelity = float(abs(np.sum(np.conj(av) * bv)) ** 2)
    mse_raw = float(np.sum(np.abs(av - bv) ** 2)) / av.size
    if mse_raw == 0.0:
        return fidelity, 0.0, 0.0, 0.0
    overlap = np.sum(av * np.conj(bv))
    phase = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
    mse_aligned = float(np.sum(np.abs(av - np.exp(1j * phase) * bv) ** 2)) / av.size
    return fidelity, mse_raw, mse_aligned, phase


def norm_sq_reference(sv) -> float:
    """StateVector.norm_sq by the whole-array expression.

    The form norm_sq had before it read the state in blocks; the blocked
    form must match it byte for byte.
    """
    a = sv.to_complex()
    return float(np.sum(a.real * a.real + a.imag * a.imag))


def cycles_json_reference(report) -> str:
    """CycleReport.to_json by `json.dumps` of the whole document.

    The form to_json had before it wrote each gate through one format
    string; that form must match it byte for byte.
    """
    doc = {
        "gates": [{"index": i, "kind": k, "cycles": c} for i, k, c in report.per_gate],
        "total_cycles": report.total_cycles,
        "n": report.n,
        "mem_mode": report.mem_mode,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cycle_report_reference(circuit, cfg=perfmodel.DEFAULT_CONFIG) -> tuple:
    """(per_gate, total_cycles) of `engine.cycle_report`, with each gate's
    cycles worked out again for each op."""
    n = circuit.n
    per_gate = [(i, op.kind, engine.cx_cycles(n) if op.kind == "CX"
                 else perfmodel.cycles_single(n, cfg))
                for i, op in enumerate(circuit.ops)]
    return per_gate, sum(c for _, _, c in per_gate)
