"""Gate IR, 2x2 matrix synthesis, and transpilation to the base set.

The engine only ever sees {H, S, RX, RY, RZ, CX}. Composite gates
(controlled-phase, SWAP, controlled-RX) are rewritten here into that
set, with any global phase picked up by the rewrite accumulated on the
circuit rather than applied to the state: the fixed-point datapath has
no way to rotate the whole vector for free, so the reference simulator
applies the phase when comparing.

Angles stay double-precision on the host side; only the resulting 2x2
matrices are quantized, once, when a gate is built.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import fxp
from .fxp import CFx

H, S, RX, RY, RZ, CX = "H", "S", "RX", "RY", "RZ", "CX"
BASE_KINDS = (H, S, RX, RY, RZ, CX)
SINGLE_KINDS = (H, S, RX, RY, RZ)
ROTATION_KINDS = (RX, RY, RZ)
SPARSE_KINDS = (S, RZ)   # exactly the diagonal base gates

_SQ2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GateOp:
    kind: str
    target: int
    control: int | None = None      # CX only
    angle: float | None = None      # rotations only
    matrix: tuple[CFx, CFx, CFx, CFx] | None = None   # (m00, m01, m10, m11)
    sparse: bool = False


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
        """ValueError for a target or control outside 0..n-1;
        `circuit_from_text` runs it on every parsed circuit."""
        for op in self.ops:
            if not 0 <= op.target < self.n:
                raise ValueError(f"target {op.target} out of range for n={self.n}")
            if op.control is not None and not 0 <= op.control < self.n:
                raise ValueError(f"control {op.control} out of range for n={self.n}")


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


def quantize_gate(op: GateOp) -> GateOp:
    """Populate the Q2.30 matrix from the exact unitary of kind/angle."""
    if op.kind not in SINGLE_KINDS:
        raise ValueError(f"quantize_gate applies to single-qubit kinds, not {op.kind}")
    m = matrix_of(op.kind, op.angle)
    quantized = tuple(fxp.quantize_complex(complex(m[r, c]))
                      for r in (0, 1) for c in (0, 1))
    return replace(op, matrix=quantized, sparse=op.kind in SPARSE_KINDS)


def single(kind: str, target: int, angle: float | None = None) -> GateOp:
    return quantize_gate(GateOp(kind=kind, target=target, angle=angle))


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


# ---------------------------------------------------------------------------
# Binary gate-instruction record (the arbiter stream): 40 bytes.
#   byte 0      kind code (H=0, S=1, RX=2, RY=3, RZ=4, CX=5)
#   byte 1      control qubit (0xFF when none)
#   byte 2      target qubit
#   byte 3      sparse flag
#   bytes 4-7   reserved (zero)
#   bytes 8-39  m00, m01, m10, m11 as (re, im) int32 little-endian
# The record carries coefficients, not angles: what the hardware sees.
# It is a machine fact that the tests pin; no computation reads it.
# ---------------------------------------------------------------------------

GATE_RECORD_BYTES = 40
_KIND_CODES = {H: 0, S: 1, RX: 2, RY: 3, RZ: 4, CX: 5}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_NO_CONTROL = 0xFF


def pack_gate_record(op: GateOp) -> bytes:
    control = _NO_CONTROL if op.control is None else op.control
    matrix = op.matrix if op.matrix is not None else (fxp.CFX_ZERO,) * 4
    flat = [x for entry in matrix for x in entry]
    return struct.pack("<BBBB4x8i", _KIND_CODES[op.kind], control,
                       op.target, int(op.sparse), *flat)


def unpack_gate_record(data: bytes) -> GateOp:
    if len(data) != GATE_RECORD_BYTES:
        raise ValueError(f"gate record must be {GATE_RECORD_BYTES} bytes")
    code, control, target, sparse, *flat = struct.unpack("<BBBB4x8i", data)
    kind = _CODE_KINDS[code]
    matrix = None
    if kind != CX:
        matrix = tuple(CFx(flat[2 * k], flat[2 * k + 1]) for k in range(4))
    return GateOp(
        kind=kind,
        target=target,
        control=None if control == _NO_CONTROL else control,
        matrix=matrix,
        sparse=bool(sparse),
    )
