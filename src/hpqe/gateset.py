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
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

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

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"{self.kind!r} is not a base gate kind")
        if self.angle is not None and self.kind not in ROTATION_KINDS:
            raise ValueError(f"{self.kind} takes no angle, got {self.angle!r}")
        object.__setattr__(self, "matrix",
                           None if self.kind == CX else _quantized(self.kind, self.angle))
        object.__setattr__(self, "sparse", self.kind in SPARSE_KINDS)


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


# ---------------------------------------------------------------------------
# Binary gate-instruction record (the arbiter stream): 40 bytes.
#   byte 0      kind code (H=0, S=1, RX=2, RY=3, RZ=4, CX=5)
#   byte 1      control qubit (0xFF when none)
#   byte 2      target qubit
#   byte 3      sparse flag
#   bytes 4-7   reserved (zero)
#   bytes 8-39  m00, m01, m10, m11 as (re, im) int32 little-endian
# The record carries coefficients, not angles: what the hardware sees.
# A qubit takes one byte and 0xFF means "no control", so a record holds
# qubits 0..254. It is a machine fact that the tests pin; no
# computation reads it.
# ---------------------------------------------------------------------------

GATE_RECORD_BYTES = 40
_RECORD = struct.Struct("<BBBBI8i")
_KIND_CODES = {H: 0, S: 1, RX: 2, RY: 3, RZ: 4, CX: 5}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_NO_CONTROL = 0xFF


def pack_gate_record(op: GateOp) -> bytes:
    """The op's 40-byte record; ValueError unless its qubits suit a gate
    on 255 qubits (`check_gate`), the most a record can name."""
    try:
        check_gate(op, _NO_CONTROL)
    except ValueError as exc:
        raise ValueError(f"gate does not fit a record (qubits 0..254): {exc}") from None
    control = _NO_CONTROL if op.control is None else op.control
    flat = [x for entry in op.matrix or (fxp.CFX_ZERO,) * 4 for x in entry]
    return _RECORD.pack(_KIND_CODES[op.kind], control, op.target, op.sparse, 0, *flat)


class GateRecord(NamedTuple):
    """A decoded record: the words the machine reads, not an angle, so it
    cannot be turned back into a `GateOp`."""

    kind: str
    target: int
    control: int | None
    matrix: tuple[CFx, CFx, CFx, CFx] | None
    sparse: bool


def _words_of_kind(kind: str, words: tuple) -> bool:
    # whether some gate of the kind has these eight words: H's and S's
    # are fixed, CX's zero, and a rotation's are cos and sin of half its
    # angle, x and y, quantized (symmetrically, so -y is the word of the
    # negated sine) in its kind's places, with x^2 + y^2 within the
    # rounding of 2^60
    if kind not in ROTATION_KINDS:
        want = (fxp.CFX_ZERO,) * 4 if kind == CX else _quantized(kind, None)
        return words == tuple(x for entry in want for x in entry)
    x = words[0]
    y = {RX: -words[3], RY: words[4], RZ: -words[1]}[kind]
    want = {RX: (x, 0, 0, -y, 0, -y, x, 0), RY: (x, 0, -y, 0, y, 0, x, 0),
            RZ: (x, -y, 0, 0, 0, 0, x, y)}[kind]
    return words == want and abs(math.hypot(x, y) - fxp.SCALE) <= 1


def unpack_gate_record(data: bytes) -> GateRecord:
    """The fields of a record; ValueError for one that `pack_gate_record`
    could not have written: a wrong length, an unknown kind code, a
    control byte that does not suit the kind, a target byte of 0xFF, a
    sparse flag other than the kind's, nonzero reserved bytes, or words
    no gate of the kind has."""
    if len(data) != GATE_RECORD_BYTES:
        raise ValueError(f"gate record must be {GATE_RECORD_BYTES} bytes")
    code, control, target, sparse, reserved, *flat = _RECORD.unpack(data)
    if code not in _CODE_KINDS:
        raise ValueError(f"gate record kind code {code} is not one of 0..{len(_CODE_KINDS) - 1}")
    kind = _CODE_KINDS[code]
    if target == _NO_CONTROL:
        raise ValueError("gate record target byte is 0xFF, which names no qubit")
    if control != _NO_CONTROL if kind != CX else control in (_NO_CONTROL, target):
        raise ValueError(f"gate record control byte {control} does not suit a {kind} "
                         f"on qubit {target}")
    if sparse != (kind in SPARSE_KINDS):
        raise ValueError(f"gate record sparse byte {sparse} does not match kind {kind}")
    if reserved:
        raise ValueError("gate record reserved bytes 4-7 are not zero")
    if not _words_of_kind(kind, tuple(flat)):
        raise ValueError(f"gate record words are those of no {kind} gate")
    matrix = None if kind == CX else tuple(CFx(*flat[k:k + 2]) for k in range(0, 8, 2))
    return GateRecord(kind, target, None if control == _NO_CONTROL else control, matrix,
                      bool(sparse))
