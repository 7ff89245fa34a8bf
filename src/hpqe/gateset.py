"""Gate IR, 2x2 matrix synthesis, and transpilation to the base set.

The engine only ever sees {H, S, RX, RY, RZ, CX}. Composite gates
(controlled-phase, SWAP, controlled-RX) are rewritten here into that
set, with any global phase picked up by the rewrite accumulated on the
circuit rather than applied to the state: the fixed-point datapath has
no way to rotate the whole vector for free, so the reference simulator
applies the phase when comparing.

Angles stay double-precision on the host side. A `GateOp` is built
from its kind, qubits and angle alone, and derives its words from them:
its 2x2 matrix is the exact unitary of (kind, angle) quantized by
`fxp.quantize`, which saturates, so every coefficient is a Q2.30 word,
and its sparse flag says whether the kind is diagonal. Neither can be
passed or replaced, so a gate cannot carry words that disagree with
what it says it is.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import fxp
from .fxp import CFx

H, S, RX, RY, RZ, CX = "H", "S", "RX", "RY", "RZ", "CX"
BASE_KINDS = (H, S, RX, RY, RZ, CX)
SINGLE_KINDS = (H, S, RX, RY, RZ)
ROTATION_KINDS = (RX, RY, RZ)
SPARSE_KINDS = (S, RZ)   # exactly the diagonal base gates

_SQ2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, init=False)
class GateOp:
    """One base gate. `matrix` (m00, m01, m10, m11; None for CX) and
    `sparse` are derived from the kind and angle when the gate is built;
    an unknown kind, a rotation without a finite angle, or an angle on
    H, S or CX raises ValueError then."""

    kind: str
    target: int
    control: int | None = None      # CX only
    angle: float | None = None      # rotations only
    matrix: tuple[CFx, CFx, CFx, CFx] | None = field(init=False)
    sparse: bool = field(init=False)

    def __init__(self, kind: str, target: int, control: int | None = None,
                 angle: float | None = None):
        # the generated __init__ and a __post_init__ would set each field
        # through object.__setattr__, 40% of qft(20)'s build; the fields
        # go into the instance's __dict__ at once instead. Each such dict
        # has its own key table, so QFT-20's 1000 ops hold 0.34 MB where
        # they held 0.15; stores item by item keep one shared table (0.21
        # MB), but attribute loads from it made its _schedule 45% slower
        if kind not in BASE_KINDS:
            raise ValueError(f"{kind!r} is not a base gate kind")
        if angle is not None and kind not in ROTATION_KINDS:
            raise ValueError(f"{kind} takes no angle, got {angle!r}")
        self.__dict__.update(kind=kind, target=target, control=control, angle=angle,
                             matrix=None if kind == CX else _quantized(kind, angle),
                             sparse=kind in SPARSE_KINDS)


@dataclass
class Circuit:
    n: int
    ops: list[GateOp] = field(default_factory=list)
    global_phase: float = 0.0

    def extend(self, ops, phase: float = 0.0) -> "Circuit":
        self.ops.extend(ops)
        self.global_phase += phase
        return self

    def validate(self) -> None:
        """`check_gate` on every op, in order; `circuit_from_text` runs it
        on every parsed circuit and `oracle.ref_run` on every circuit it
        runs."""
        for op in self.ops:
            check_gate(op, self.n)


def check_gate(op: GateOp, n: int) -> None:
    """ValueError unless op's qubits suit a gate on n qubits.

    A target in 0..n-1; for CX, a control in 0..n-1 other than the
    target; for any other kind, no control. A qubit is anything
    `operator.index` takes, numpy integers included. The rest of what
    makes a gate runnable holds for every `GateOp` once it is built: a
    base kind, and words derived from its kind and angle. So this is
    the one test of whether a gate can run on n qubits;
    `Circuit.validate`, `engine.run_circuit` (on every op before its
    first kernel call), `engine.apply_single` and `engine.apply_cx`
    call it.
    """
    if not _is_qubit(op.target, n):
        raise ValueError(f"target {op.target!r} out of range for n={n}")
    if op.kind == CX:
        if not _is_qubit(op.control, n):
            raise ValueError(f"control {op.control!r} out of range for n={n}")
        if op.control == op.target:
            raise ValueError(f"CX control and target are both qubit {op.target}")
    elif op.control is not None:
        raise ValueError(f"{op.kind} takes no control, got control {op.control}")


def _is_qubit(q, n: int) -> bool:
    try:
        return 0 <= operator.index(q) < n
    except TypeError:
        return False


def matrix_of(kind: str, angle: float | None = None) -> np.ndarray:
    """Exact double-precision 2x2 unitary for a single-qubit kind."""
    if kind == H:
        return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
    if kind == S:
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if kind in ROTATION_KINDS:
        if angle is None:
            raise ValueError(f"{kind} requires an angle")
        if not math.isfinite(angle):
            raise ValueError(f"{kind} angle {angle!r} is not a finite number")
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        if kind == RX:
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if kind == RY:
            return np.array([[c, -s], [s, c]], dtype=complex)
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
    raise ValueError(f"{kind!r} is not a single-qubit kind")


@functools.lru_cache(maxsize=256)
def _quantized(kind: str, angle: float | None) -> tuple:
    # the four words of a single-qubit kind at angle; a circuit repeats
    # few distinct matrices (QFT-20: 39 in 590 gates). Angles that compare
    # equal, as +0.0 and -0.0 do, give the same words: quantization keeps
    # no sign of zero
    m = matrix_of(kind, angle)
    return tuple(fxp.quantize_complex(complex(m[r, c])) for r in (0, 1) for c in (0, 1))


def single(kind: str, target: int, angle: float | None = None) -> GateOp:
    return GateOp(kind, target, angle=angle)


def cx(control: int, target: int) -> GateOp:
    if control == target:
        raise ValueError("CX control and target must differ")
    return GateOp(kind=CX, target=target, control=control)


def decompose_cp(theta: float, control: int, target: int):
    """CP(theta) = diag(1,1,1,e^{i theta}) as 2 CX + 3 RZ.

    Returns (ops, phase): the op product equals CP(theta) up to the
    returned global phase of theta/4.
    """
    if control == target:
        raise ValueError("CP control and target must differ")
    ops = [
        single(RZ, control, theta / 2),
        cx(control, target),
        single(RZ, target, -theta / 2),
        cx(control, target),
        single(RZ, target, theta / 2),
    ]
    return ops, theta / 4


def decompose_swap(a: int, b: int) -> list[GateOp]:
    """SWAP(a, b) as three back-to-back CX gates (exact, no phase)."""
    if a == b:
        raise ValueError("SWAP qubits must differ")
    return [cx(a, b), cx(b, a), cx(a, b)]


def decompose_crx(theta: float, control: int, target: int):
    """Controlled-RX via the two-CX ABC construction (exact, no phase).

    With A = RZ(-pi/2) RY(theta/2), B = RY(-theta/2), C = RZ(pi/2) on the
    target, A X B X C = RX(theta) and A B C = I, so the sequence below
    reproduces CRX(theta) with zero phase left over.
    """
    if control == target:
        raise ValueError("CRX control and target must differ")
    ops = [
        single(RZ, target, math.pi / 2),
        cx(control, target),
        single(RY, target, -theta / 2),
        cx(control, target),
        single(RY, target, theta / 2),
        single(RZ, target, -math.pi / 2),
    ]
    return ops, 0.0


# ---------------------------------------------------------------------------
# Circuit text format:
#   QUBITS <n>
#   H <q> | S <q> | RX <q> <theta> | RY <q> <theta> | RZ <q> <theta>
#   CX <control> <target>
# '#' starts a comment. The emitter records the accumulated global phase
# in a '# global_phase <value>' comment so files round-trip losslessly.
# ---------------------------------------------------------------------------

def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"QUBITS {circuit.n}"]
    if circuit.global_phase:
        lines.append(f"# global_phase {circuit.global_phase!r}")
    for op in circuit.ops:
        if op.kind == CX:
            lines.append(f"CX {op.control} {op.target}")
        elif op.kind in ROTATION_KINDS:
            lines.append(f"{op.kind} {op.target} {op.angle!r}")
        else:
            lines.append(f"{op.kind} {op.target}")
    return "\n".join(lines) + "\n"


def _global_phase(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: global phase {text!r} is not a finite number")
    return value


def circuit_from_text(text: str, n: int | None = None) -> Circuit:
    if n is not None and n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    circuit = Circuit(n=n if n is not None else 0)
    header_line = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "global_phase":
                circuit.global_phase = _global_phase(fields[1], lineno)
            continue
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        try:
            if kind not in ("QUBITS", CX, H, S, *ROTATION_KINDS):
                raise ValueError(f"unknown gate {fields[0]!r}")
            operands = 2 if kind == CX or kind in ROTATION_KINDS else 1
            if len(fields) - 1 != operands:
                raise ValueError(f"{fields[0]} takes {operands} operand(s), "
                                 f"got {len(fields) - 1}")
            if kind == "QUBITS":
                if header_line:
                    raise ValueError(f"second QUBITS header (the first is line {header_line})")
                header_n = int(fields[1])
                if header_n < 1:
                    raise ValueError(f"qubit count must be >= 1, got {header_n}")
                if n is not None and header_n != n:
                    raise ValueError(
                        f"header says {header_n} qubits, caller requested {n}")
                circuit.n = header_n
                header_line = lineno
            elif kind == CX:
                circuit.ops.append(cx(int(fields[1]), int(fields[2])))
            elif kind in ROTATION_KINDS:
                circuit.ops.append(single(kind, int(fields[1]), float(fields[2])))
            else:
                circuit.ops.append(single(kind, int(fields[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not header_line and n is None:
        raise ValueError("missing QUBITS header and no qubit count supplied")
    circuit.validate()
    return circuit
