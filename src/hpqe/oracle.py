"""Double-precision reference simulator and comparison metrics.

Two independent readings of circuit execution: gate-by-gate action on
the state (ref_run) and the explicit product of full Kronecker-built
operators (ref_run_matrix, n <= 6). Both apply the circuit's tracked
global phase at the end so transpiled circuits compare directly against
their composite targets.

ref_run works in place, in numpy alone: it shares no kernel with the
fixed-point engine. A single-qubit gate on qubit q pairs the two
strided halves x, y of amps.reshape(-1, 2, 2^q) and streams them, BLOCK
pairs at a time, through three reused contiguous scratch buffers:
    x <- m00*x + m01*y,    y <- m11*y + m10*x
each product one multiply and each output one add, as a whole-array
evaluation would (IEEE addition commutes, so the order of the two terms
does not matter). Both outputs need both old halves, so they are built
in scratch and copied back. A diagonal matrix (m01 == m10 == 0: RZ, S)
skips the off-diagonal product: for finite amplitudes it is an exact
+-0, and adding +-0 to a nonzero product changes no bit. Added to a zero
product it can change the zero's sign (-0 + +0 is +0), so a block whose
diagonal product has a zero part still takes the full sum. The result
is byte-identical to the whole-array form, which the tests keep as the
reference; path and block size never show in the output. A small state
(at most WHOLE_MAX_PAIRS pairs) takes that whole-array form itself
(`_apply_1q_whole`, `_apply_cx_whole`): on it, the blocked form's
slicing and scratch views cost more per gate than they save.

Every product has the matrix element as its first operand, e.g.
np.multiply(m00, x, out=...). With numpy's SIMD complex loops m * x and
x * m can differ in the last bit, while the scalar-first product into a
separate buffer equals the whole-array one on strided and contiguous
operands alike (a one-element product taken in place does not).

Fixed-point states are converted to doubles before any metric; metrics
are never computed in fixed point. Reductions use numpy's fixed
pairwise summation so reported values are reproducible.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import fxp
from .gateset import CX, Circuit, GateOp, matrix_of
from .state import StateVector

MATRIX_MAX_QUBITS = 6
BLOCK = 1 << 14          # amplitude pairs per ref_run step (256 KiB per buffer)
# states of at most this many pairs take the whole-array forms: QFT-n
# ref_run, best of 5 to 100 on a 2-core Xeon, took 0.6 / 1.3 / 2.9 / 8.9
# ms at n = 6 / 8 / 10 / 12 against 1.3 / 2.6 / 5.0 / 11.9 ms blocked, but
# 100-122 ms against 36-47 ms at n = 14, where the full sums of its
# diagonal gates cost more than the blocked form's per-gate overhead
WHOLE_MAX_PAIRS = 1 << 12


class SizeError(Exception):
    """Full-operator construction requested for too many qubits."""


@dataclass
class RefState:
    n: int
    amps: np.ndarray   # complex128, length 2^n

    def copy(self) -> "RefState":
        return RefState(self.n, self.amps.copy())


def basis_state(n: int, k: int = 0) -> RefState:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[k] = 1.0
    return RefState(n, amps)


def _has_zero(v: np.ndarray) -> bool:
    # v is contiguous complex128: is any real or imaginary part +-0?
    return 0 in v.view(np.float64)


def _apply_1q(amps: np.ndarray, m: np.ndarray, q: int, scratch: np.ndarray) -> None:
    """Apply the 2x2 matrix m to qubit q of amps, in place.

    scratch is a (3, block) complex128 array, block a power of two; the
    pair halves are cut into pieces of at most block elements.
    """
    a = amps.reshape(-1, 2, 1 << q)
    x, y = a[:, 0], a[:, 1]
    diagonal = m[0, 1] == 0 and m[1, 0] == 0
    for sl in fxp.block_slices(x.shape, scratch.shape[1]):
        xb, yb = x[sl], y[sl]
        nx, ny, t = (buf[:xb.size].reshape(xb.shape) for buf in scratch)
        np.multiply(m[0, 0], xb, out=nx)
        np.multiply(m[1, 1], yb, out=ny)
        for out, c, v in ((nx, m[0, 1], yb), (ny, m[1, 0], xb)):
            if not diagonal or _has_zero(out):
                out += np.multiply(c, v, out=t)
        xb[...] = nx
        yb[...] = ny


def _apply_1q_whole(amps: np.ndarray, m: np.ndarray, q: int) -> None:
    """`_apply_1q` on a small state, by whole-array expressions."""
    a = amps.reshape(-1, 2, 1 << q)
    x, y = a[:, 0].copy(), a[:, 1].copy()
    a[:, 0] = m[0, 0] * x + m[0, 1] * y
    a[:, 1] = m[1, 0] * x + m[1, 1] * y


def _apply_cx_whole(amps: np.ndarray, control: int, target: int, n: int) -> None:
    """`_apply_cx` on a small state, through a copy of one half."""
    grid = amps.reshape([2] * n)
    a, b = [slice(None)] * n, [slice(None)] * n
    a[n - 1 - control] = b[n - 1 - control] = 1
    a[n - 1 - target], b[n - 1 - target] = 0, 1
    a, b = tuple(a), tuple(b)
    t = grid[a].copy()
    grid[a] = grid[b]
    grid[b] = t


def _apply_cx(amps: np.ndarray, control: int, target: int,
              scratch: np.ndarray) -> None:
    """Swap the target=0 and target=1 halves where the control bit is 1.

    The halves are 3-D views of amps (no copy, so writes land in amps);
    they are swapped block by block through scratch[0].
    """
    lo, hi = sorted((control, target))
    # axis 1 is bit hi of the index, axis 3 bit lo
    grid = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    a = grid[:, 1, :, 0, :] if control == hi else grid[:, 0, :, 1, :]
    b = grid[:, 1, :, 1, :]
    buf = scratch[0]
    for sl in fxp.block_slices(a.shape, buf.size):
        ab, bb = a[sl], b[sl]
        t = buf[:ab.size].reshape(ab.shape)
        np.copyto(t, ab)
        ab[...] = bb
        bb[...] = t


def ref_run(circuit: Circuit, init: RefState) -> RefState:
    """Gate-by-gate exact action, then the tracked global phase."""
    if circuit.n != init.n:
        raise ValueError(f"circuit n={circuit.n} vs state n={init.n}")
    out = init.copy()
    amps = out.amps
    if amps.size >> 1 <= WHOLE_MAX_PAIRS:
        for op in circuit.ops:
            if op.kind == CX:
                _apply_cx_whole(amps, op.control, op.target, out.n)
            else:
                _apply_1q_whole(amps, matrix_of(op.kind, op.angle), op.target)
    else:
        scratch = np.empty((3, min(BLOCK, amps.size >> 1)), dtype=np.complex128)
        for op in circuit.ops:
            if op.kind == CX:
                _apply_cx(amps, op.control, op.target, scratch)
            else:
                _apply_1q(amps, matrix_of(op.kind, op.angle), op.target, scratch)
    if circuit.global_phase:
        out.amps *= cmath.exp(1j * circuit.global_phase)
    return out


def gate_operator(op: GateOp, n: int) -> np.ndarray:
    """Full 2^n operator for one gate (CX built directly as a permutation)."""
    dim = 1 << n
    if op.kind == CX:
        u = np.zeros((dim, dim), dtype=np.complex128)
        for j in range(dim):
            out = j ^ (1 << op.target) if (j >> op.control) & 1 else j
            u[out, j] = 1.0
        return u
    m = matrix_of(op.kind, op.angle)
    u = np.array([[1.0 + 0j]])
    for axis in range(n):
        qubit = n - 1 - axis
        u = np.kron(u, m if qubit == op.target else np.eye(2, dtype=np.complex128))
    return u


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of all gate operators, times the tracked global phase."""
    if circuit.n > MATRIX_MAX_QUBITS:
        raise SizeError(f"full operators limited to {MATRIX_MAX_QUBITS} qubits")
    u = np.eye(1 << circuit.n, dtype=np.complex128)
    for op in circuit.ops:
        u = gate_operator(op, circuit.n) @ u
    if circuit.global_phase:
        u = u * cmath.exp(1j * circuit.global_phase)
    return u


def ref_run_matrix(circuit: Circuit, init: RefState) -> RefState:
    """Second reading: apply the explicit operator product to the state."""
    if circuit.n != init.n:
        raise ValueError(f"circuit n={circuit.n} vs state n={init.n}")
    u = circuit_unitary(circuit)
    return RefState(init.n, u @ init.amps)


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-12) -> bool:
    """Max-norm equality of two matrices after aligning one global phase."""
    flat_u, flat_v = u.ravel(), v.ravel()
    k = int(np.argmax(np.abs(flat_v)))
    if abs(flat_v[k]) < tol:
        return bool(np.abs(u - v).max() <= tol)
    phase = flat_u[k] / flat_v[k]
    scale = abs(phase)
    if abs(scale - 1.0) > 1e-9:
        return False
    return bool(np.abs(u - (phase / scale) * v).max() <= tol)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    fidelity: float
    mse_raw: float
    mse_aligned: float
    phase: float

    def to_json(self, n: int, gates: int) -> str:
        """The metrics of a run of `gates` gates on n qubits, as one
        line of JSON with sorted keys."""
        doc = asdict(self) | {"n": n, "gates": gates}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _amplitudes(x) -> np.ndarray:
    if isinstance(x, RefState):
        return x.amps
    if isinstance(x, StateVector):
        return x.to_complex()
    return np.asarray(x, dtype=np.complex128)


def _pair(a, b):
    av, bv = _amplitudes(a), _amplitudes(b)
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape} vs {bv.shape}")
    return av, bv


def _sum_sq_abs(d: np.ndarray, buf: np.ndarray) -> float:
    # sum(|d|^2), with |d|^2 built in buf
    np.abs(d, out=buf)
    return float(np.sum(np.square(buf, out=buf)))


def fidelity(a, b) -> float:
    """|<a|b>|^2: global-phase-invariant overlap of two state vectors."""
    av, bv = _pair(a, b)
    return float(abs(np.sum(np.conj(av) * bv)) ** 2)


def mse(a, b):
    """Per-amplitude mean squared error, raw and after phase alignment.

    The reported phase is the rotation applied to b that minimizes the
    aligned error, so mse_aligned <= mse_raw always holds; for a sign
    flip it comes out as pi.
    """
    av, bv = _pair(a, b)
    size = av.size
    # Kept as one expression: from 256 KiB up numpy's temporary elision
    # evaluates it as conj(bv) * av in the temporary's buffer, below as
    # av * conj(bv), and the two orders can differ in the last bit.
    # Taken first, its temporary is gone before d and sq exist.
    overlap = np.sum(av * np.conj(bv))
    d = np.subtract(av, bv)
    sq = np.empty(size, dtype=np.float64)
    mse_raw = _sum_sq_abs(d, sq) / size
    if mse_raw == 0.0:
        return 0.0, 0.0, 0.0
    phase = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
    np.multiply(np.exp(1j * phase), bv, out=d)
    mse_aligned = _sum_sq_abs(np.subtract(av, d, out=d), sq) / size
    return mse_raw, mse_aligned, phase


def metrics(a, b) -> Metrics:
    """Fidelity and MSE of a against b, each state converted once."""
    av, bv = _pair(a, b)
    mse_raw, mse_aligned, phase = mse(av, bv)
    return Metrics(fidelity=fidelity(av, bv), mse_raw=mse_raw,
                   mse_aligned=mse_aligned, phase=phase)
