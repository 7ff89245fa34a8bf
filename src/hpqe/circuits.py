"""Benchmark circuit generators: QFT and four topology families.

Everything emitted here is already transpiled to the base set: the QFT
is built from H, controlled-phase rewritten as 2 CX + 3 RZ, and final
SWAPs as 3 CX each, giving n + 5*n*(n-1)/2 + 3*floor(n/2) gates. The
topology templates layer RY/RZ rotation columns over a configurable
entangling pattern (chain / alternating / all-to-all / rotation-only).
"""

from __future__ import annotations

import math

from .gateset import (CX, Circuit, cx, decompose_cp, decompose_swap, single,
                      H, RY, RZ)

CHAIN = "chain"
ALTERNATING = "alternating"
ALL_TO_ALL = "all_to_all"
ROTATION = "rotation"
TOPOLOGY_KINDS = (CHAIN, ALTERNATING, ALL_TO_ALL, ROTATION)


def qft(n: int) -> Circuit:
    """QFT on n qubits; the operator equals the DFT matrix exactly."""
    if n < 1:
        raise ValueError("QFT needs at least one qubit")
    circuit = Circuit(n=n)
    for q in range(n - 1, -1, -1):
        circuit.ops.append(single(H, q))
        for j in range(q - 1, -1, -1):
            ops, phase = decompose_cp(qft_angle(q - j), j, q)
            circuit.extend(ops, phase)
    for i in range(n // 2):
        circuit.extend(decompose_swap(i, n - 1 - i))
    return circuit


def qft_angle(k: int) -> float:
    """pi / 2^k, the controlled phase between qubits k apart in the QFT.

    Power-of-two scaling is exact, so this is the float pi / (1 << k)
    wherever that division is defined (k <= 1023); past it, where the
    integer no longer converts to a float, it underflows towards 0.
    """
    return math.ldexp(math.pi, -k)


def rotation_slots(kind: str, n: int, layers: int) -> int:
    """Angles a template consumes: one RY and one RZ per qubit per layer.

    Raises ValueError for a kind, n or layers that no template takes.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology {kind!r}")
    if kind != ROTATION and n < 2:
        raise ValueError(f"{kind} topology needs n >= 2")
    if n < 1 or layers < 1:
        raise ValueError("n and layers must be >= 1")
    return layers * 2 * n


def _entangler(kind: str, n: int) -> list:
    if kind == CHAIN:
        return [cx(q, q + 1) for q in range(n - 1)]
    if kind == ALTERNATING:
        ops = [cx(q, q + 1) for q in range(0, n - 1, 2)]
        ops += [cx(q, q + 1) for q in range(1, n - 1, 2)]
        return ops
    if kind == ALL_TO_ALL:
        return [cx(a, b) for a in range(n) for b in range(n) if a != b]
    return []


def template(kind: str, n: int, layers: int, angles) -> Circuit:
    """Layered topology circuit: rotation columns plus the CX pattern."""
    needed = rotation_slots(kind, n, layers)
    angles = [float(a) for a in angles]
    if len(angles) != needed:
        raise ValueError(
            f"{kind} with n={n}, layers={layers} needs {needed} angles, "
            f"got {len(angles)}")
    circuit = Circuit(n=n)
    it = iter(angles)
    for _ in range(layers):
        for q in range(n):
            circuit.ops.append(single(RY, q, next(it)))
        for q in range(n):
            circuit.ops.append(single(RZ, q, next(it)))
        circuit.ops.extend(_entangler(kind, n))
    return circuit


def gate_count(circuit: Circuit):
    """(total, cx_count, single_count) of a transpiled circuit."""
    cx_count = sum(1 for op in circuit.ops if op.kind == CX)
    total = len(circuit.ops)
    return total, cx_count, total - cx_count
