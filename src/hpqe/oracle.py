"""Double-precision reference simulator and comparison metrics.

Two independent readings of circuit execution: gate-by-gate action on
the state (ref_run) and the explicit product of full Kronecker-built
operators (ref_run_matrix, n <= 6). Both apply the circuit's tracked
global phase at the end so transpiled circuits compare directly against
their composite targets.

ref_run works in place, in numpy alone: it shares no code with the
fixed-point engine. It has one form for every state size: clusters,
one pass over the state per cluster.

A cluster is a maximal run of consecutive ops that together touch at
most CLUSTER_QUBITS qubits, a CX counting its control and its target;
`_clusters` cuts the circuit greedily, in order. A cluster on the k
qubits Q runs block by block. With b = min(BLOCK_BITS, n), a block is
the 2^b amplitudes that agree on every bit outside Q and the lowest
b - k bits outside Q (the filler), so a state of at most 2^BLOCK_BITS
amplitudes is one block. np.copyto gathers it, through a transposed
view of amps.reshape([2] * n), into one contiguous 2^b buffer: the
filler on the buffer's low bits and Q, in ascending order, on its top
bits, where the halves of a gate have the widest rows. Every op of the
cluster then runs on the buffer at its mapped bits, and the buffer is
copied back. The state is read and written once per cluster, and the
ops between work on a buffer that stays in L2.

A single-qubit gate on buffer bit q pairs the two strided halves x, y
of buf.reshape(-1, 2, 2^q) and computes, through three contiguous
scratch rows of 2^(b-1) elements, one half each:
    x <- m00*x + m01*y,    y <- m11*y + m10*x
each product one multiply and each output one add, as a whole-array
evaluation would (IEEE addition commutes, so the order of the two terms
does not matter). Both outputs need both old halves, so they are built
in scratch and copied back. A CX swaps the target = 0 and = 1 halves
where the control bit is 1, 2^(b-2) elements each, through the front of
one scratch row.

The bytes equal those of the whole-array form, which the tests keep as
the reference:
- every pair an op touches differs only in a bit of Q, so it lies in
  one block;
- the gather and scatter only move values, and inside the buffer each
  amplitude meets the same matrix elements and partners, in the same
  products and the same add, as in the whole state;
- the blocks are disjoint and each runs the cluster's ops in circuit
  order, so every amplitude sees every gate in order;
- a diagonal matrix (m01 == m10 == 0: RZ, S) skips the off-diagonal
  product of an output half whose diagonal product has no zero part.
  For finite amplitudes that product is an exact +-0, and adding +-0 to
  a nonzero part changes no bit. Added to a zero it can change the
  zero's sign (-0 + +0 is +0), so a half with a zero part takes the
  full sum;
- every product has the matrix element as its first operand, e.g.
  np.multiply(m00, x, out=...). With numpy's SIMD complex loops m * x
  and x * m can differ in the last bit, while the scalar-first product
  into a separate buffer equals the whole-array one on strided and
  contiguous operands alike (a one-element product taken in place does
  not).
No gate is reordered or fused.

The cluster loop runs with numpy's ufunc buffer set, inside
np.errstate(), to 2^(b - CLUSTER_QUBITS) elements: 128 at b = 15. The
cluster's qubits sit on the buffer's top bits, so that is the shortest
row of any half a step reads. numpy copies the operands of a row
shorter than its buffer through the buffer before the multiply. The
default buffer holds 8192 elements, and with it a product on a half of
rows of 2^10 or 2^12 cost 1.6-1.8 times one on rows read in place.
With a buffer no longer than the rows, each row is read in place.
numpy's smallest legal size is 16, and for b < CLUSTER_QUBITS the
exponent is negative, so the size is 1 << max(4, b - CLUSTER_QUBITS):
16 for every b < 12. There a step's rows can be shorter than the
buffer (one element, when b <= CLUSTER_QUBITS) and numpy copies them
through it. The bytes hold at any size: either way the same SIMD
complex multiply runs on contiguous rows, and the copy only moves
values. The tests compare the bytes at buffer sizes 16, 128 and 8192.
np.errstate restores the setting on exit, on an error too, and threads
start with numpy's default, so nothing outside ref_run sees it.

The one form costs a state of at most 2^12 amplitudes a few
microseconds more per gate than the whole-array expressions it once
took (README has the table). No benchmark workload runs a state below
2^20 amplitudes, and a second form for small states would be a size
switch with no workload on its small side.

README's "Reference oracle" section holds the measurements. Measured
and slower, so not done: blocks of the natural low bits with no
relabeling; b = 16 or 17; ping-pong buffers in place of the copy-back;
broadcast (1, 2, 1) coefficient arrays; real-coefficient float64-view
products for RY with a zero guard; two threads over a cluster's blocks;
each output's add written straight into its half (an out-of-place add
costs what the in-place add and the copy-back cost together; with four
scratch rows, 20-40% slower per RY); super-clusters of up to 15 qubits
with an in-cache transpose between their sub-clusters; a CX joining a
cluster whenever both its qubits fit in the block; a 256-float probe
before each full zero test (about 5 us more per test where no zero is
found, as on chain).

`metrics` reads its two states in blocks of min(2^BLOCK_BITS, size)
amplitudes. A fixed-point state's words are converted to doubles one
block at a time (StateVector.to_complex), so no state-sized array is
built; metrics are never computed in fixed point. Each block's sums are
numpy's pairwise sums, and the block sums are combined in numpy's tree,
so the values are the whole-array ones, bit for bit.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import asdict, dataclass
from functools import cache, partial

import numpy as np

from .gateset import CX, Circuit, GateOp, matrix_of
from .state import StateVector, sum_blocks

MATRIX_MAX_QUBITS = 6
# blocks of at most 2^BLOCK_BITS amplitudes: one buffer of 2^15
# amplitudes (512 KiB) and the 768 KiB of scratch stay in a 2 MiB L2.
# Chain-20x3 ref_run, best of 6 in one process on a 2-core Xeon, took
# 0.58 / 0.59 / 0.82 s at BLOCK_BITS = 15 / 14 / 16 (CLUSTER_QUBITS = 8)
# and 0.72 s at 13 (CLUSTER_QUBITS = 6)
BLOCK_BITS = 15
# at most this many qubits per cluster: chain-20x3 ref_run took 0.59 /
# 0.61 / 0.57 s (32 / 27 / 24 clusters) at 6 / 7 / 8, best of 10, and
# QFT-20 3.37 / 3.11 s (43 / 29 clusters) at 6 / 8, best of 2; more
# qubits put gates on lower buffer bits, whose halves have narrower rows
CLUSTER_QUBITS = 8


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


def _halves_1q(amps: np.ndarray, q: int):
    # the qubit-q = 0 and = 1 halves, as views of amps
    a = amps.reshape(-1, 2, 1 << q)
    return a[:, 0], a[:, 1]


def _halves_cx(amps: np.ndarray, control: int, target: int):
    # the target = 0 and = 1 halves where the control bit is 1
    lo, hi = sorted((control, target))
    # axis 1 is bit hi of the index, axis 3 bit lo
    grid = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    a = grid[:, 1, :, 0, :] if control == hi else grid[:, 0, :, 1, :]
    return a, grid[:, 1, :, 1, :]


def _step_1q(m: np.ndarray, x: np.ndarray, y: np.ndarray,
             nx: np.ndarray, ny: np.ndarray, t: np.ndarray) -> None:
    # the 2x2 matrix m on the halves x, y, in place, through the
    # contiguous scratch nx, ny, t of their shape
    m00, m01, m10, m11 = m.ravel()
    diagonal = m01 == 0 and m10 == 0
    np.multiply(m00, x, out=nx)
    np.multiply(m11, y, out=ny)
    for out, c, v in ((nx, m01, y), (ny, m10, x)):
        if not diagonal or _has_zero(out):
            out += np.multiply(c, v, out=t)
    x[...] = nx
    y[...] = ny


def _step_cx(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    # swap the halves a, b through the contiguous scratch t of their shape
    np.copyto(t, a)
    a[...] = b
    b[...] = t


def _clusters(ops, limit: int):
    """Cut ops, in order, into maximal runs that touch at most `limit`
    qubits together; yields (ops, qubits) per run."""
    run, qubits = [], set()
    for op in ops:
        touched = {op.control, op.target} if op.kind == CX else {op.target}
        if len(qubits | touched) > limit:
            yield run, qubits
            run, qubits = [], set()
        run.append(op)
        qubits |= touched
    if run:
        yield run, qubits


def _run_clusters(amps: np.ndarray, n: int, ops) -> None:
    """ref_run's gates on the 2^n amplitudes, in place, one pass over
    the state per cluster."""
    b = min(BLOCK_BITS, n)
    buf = np.empty(1 << b, dtype=np.complex128)
    scratch = np.empty((3, 1 << (b - 1)), dtype=np.complex128)
    grid = amps.reshape([2] * n)
    block_grid = buf.reshape([2] * b)

    # the views a step on the buffer takes, built once per buffer bit: a
    # single-qubit gate's halves fill the scratch rows, a CX's halves a
    # quarter of the buffer each
    @cache
    def views_1q(q):
        x, y = _halves_1q(buf, q)
        return (x, y, *(row.reshape(x.shape) for row in scratch))

    @cache
    def views_cx(control, target):
        x, y = _halves_cx(buf, control, target)
        return x, y, scratch[0, :x.size].reshape(x.shape)

    # numpy's ufunc buffer no longer than the shortest row a step reads,
    # 2^(b - CLUSTER_QUBITS), so products read the rows in place; at
    # least 16, numpy's smallest legal size, also where b < CLUSTER_QUBITS;
    # errstate restores it on exit
    with np.errstate():
        np.setbufsize(1 << max(4, b - CLUSTER_QUBITS))
        for run, qubits in _clusters(ops, CLUSTER_QUBITS):
            rest = [q for q in range(n) if q not in qubits]
            inner = rest[:b - len(qubits)] + sorted(qubits)   # buffer bit i -> qubit
            outer = rest[b - len(qubits):]
            bit = {q: i for i, q in enumerate(inner)}
            # each op's step on the buffer, built once for all blocks
            steps = [partial(_step_cx, *views_cx(bit[op.control], bit[op.target]))
                     if op.kind == CX else
                     partial(_step_1q, matrix_of(op.kind, op.angle), *views_1q(bit[op.target]))
                     for op in run]
            # axis n-1-q of grid is qubit q; a block's axes run from its top bit
            view = grid.transpose([n - 1 - q for q in reversed(outer)]
                                  + [n - 1 - q for q in reversed(inner)])
            for index in np.ndindex(*view.shape[:n - b]):
                block = view[index]
                np.copyto(block_grid, block)
                for step in steps:
                    step()
                np.copyto(block, block_grid)


def ref_run(circuit: Circuit, init: RefState) -> RefState:
    """Gate-by-gate exact action, then the tracked global phase.
    ValueError for a gate `gateset.check_gate` refuses, before any gate
    runs, or a state of another n."""
    if circuit.n != init.n:
        raise ValueError(f"circuit n={circuit.n} vs state n={init.n}")
    circuit.validate()
    out = init.copy()
    _run_clusters(out.amps, out.n, circuit.ops)
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


def _reader(x):
    """(size, read): x's amplitude count, and read(lo), its
    min(2^BLOCK_BITS, size) amplitudes from lo as complex128. A
    double-precision state gives views; a StateVector's words are
    converted (StateVector.to_complex) into one reused buffer."""
    if isinstance(x, StateVector):
        out = np.empty(min(1 << BLOCK_BITS, x.size), dtype=np.complex128)
        return x.size, partial(x.to_complex, out=out)
    amps = x.amps if isinstance(x, RefState) else np.asarray(x, dtype=np.complex128)
    step = min(1 << BLOCK_BITS, amps.size)
    return amps.size, lambda lo: amps[lo:lo + step]


def _sum_sq_abs(d: np.ndarray, buf: np.ndarray) -> float:
    # sum(|d|^2), with |d|^2 built in buf
    np.abs(d, out=buf)
    return np.sum(np.square(buf, out=buf))


def metrics(a, b) -> Metrics:
    """Fidelity and MSE of a against b, in blocks of
    min(2^BLOCK_BITS, size) amplitudes: one pass for the overlaps and
    the raw error, and one for the aligned error where the raw is not 0.

    The fidelity is |<a|b>|^2, which ignores a global phase. The MSEs
    are per amplitude, raw and after turning b by `phase`, the rotation
    that minimizes the aligned error, so mse_aligned <= mse_raw always
    holds; for a sign flip the phase comes out as pi.

    The bytes equal those of the whole-array expressions (the tests keep
    them as the reference): every amplitude meets the same elementwise
    operations, and `state.sum_blocks` combines the block sums in
    numpy's tree. From 256 KiB (2^14 amplitudes) up, numpy's temporary
    elision evaluates the whole-array overlap np.sum(a * np.conj(b)) as
    conj(b) * a, below as a * conj(b); the two orders can differ in the
    last bit, so the state's size picks the order for every block."""
    size, read_a = _reader(a)
    size_b, read_b = _reader(b)
    if size != size_b:
        raise ValueError(f"length mismatch: {size} vs {size_b}")
    step = min(1 << BLOCK_BITS, size)
    elided = size >= 1 << 14
    t = np.empty(step, dtype=np.complex128)
    sq = np.empty(step, dtype=np.float64)
    inner, overlap, raw = [], [], []
    for lo in range(0, size, step):
        x, y = read_a(lo), read_b(lo)
        np.conj(x, out=t)
        inner.append(np.sum(np.multiply(t, y, out=t)))
        np.conj(y, out=t)
        overlap.append(np.sum(np.multiply(t, x, out=t) if elided
                              else np.multiply(x, t, out=t)))
        raw.append(_sum_sq_abs(np.subtract(x, y, out=t), sq))
    fid = float(abs(sum_blocks(inner)) ** 2)
    mse_raw = float(sum_blocks(raw)) / size
    if mse_raw == 0.0:
        return Metrics(fidelity=fid, mse_raw=0.0, mse_aligned=0.0, phase=0.0)
    total = sum_blocks(overlap)
    phase = float(np.angle(total)) if abs(total) > 0 else 0.0
    turn = np.exp(1j * phase)
    aligned = []
    for lo in range(0, size, step):
        np.multiply(turn, read_b(lo), out=t)
        aligned.append(_sum_sq_abs(np.subtract(read_a(lo), t, out=t), sq))
    return Metrics(fidelity=fid, mse_raw=mse_raw,
                   mse_aligned=float(sum_blocks(aligned)) / size, phase=phase)
