"""Fixed-point gate application and the pipelined CX swapper.

A dense single-qubit gate on qubit t pushes every amplitude pair
(i, i + 2^t) through the SU dataflow, in place (`fxp.Banks.pair` on a
range of pair indices): the kernel reads both words of a pair before it
writes either, so no shadow buffer is needed. A sparse (diagonal) gate, RZ or
S, is a step of `fxp.Banks.diag`: word i takes m11 where bit t of i is
set and m00 elsewhere. Like the machine's sparse mode, which bypasses
the second multiplier, it never reads the op's off-diagonal entries.
The state holds the machine's 32-bit words (`fxp.WORD`), and every
rounding and saturation step of the scalar `fxp.su_eval` is kept,
except the provably inert ones the `fxp` docstring lists. Every kernel
call, native or numpy, goes through `fxp.Banks`, and every gate passes
`gateset.check_gate` before it.

Each pair's words depend on that pair alone, so a gate may be cut into
contiguous pieces computed in any order, or at once, with the same
bits. The engine names a piece only by an index range: words [lo, hi)
of a diagonal stretch, pairs [lo, hi) of a dense gate; the kernels
alone know where a pair's words are. `apply_single` makes one kernel
call on the whole range. `run_circuit` cuts each kernel call's range
into one piece per thread of its pool by one rule (`_ranges`), with a
barrier between calls, from SPLIT_MIN_AMPS amplitudes up;
below that size it makes one call on the whole state and no pool.
Native calls release the GIL and each numpy-body call allocates its own
scratch, so results are bit-identical for any worker count.

`run_circuit` defers CX gates. A CX does no arithmetic, so instead of
moving words it relabels the stored indices: `parity[q]` is the mask of
stored-index bits whose parity gives logical bit q (at first 2^q), and
CX(c, t) is `parity[t] ^= parity[c]`. A diagonal gate on t then takes
the mask parity[t] in its diagonal step, so each word gets the
products, roundings and saturations it would get after the swaps, in
the same order, and the bits cannot change. Before a dense gate and at
the end of the circuit the deferred CXs are flushed: dropped if
together they are the identity, applied in order with `fxp.Banks.cx`
otherwise. In QFT each controlled phase puts a CX pair around an RZ,
and the pair cancels: QFT-20 swaps words for 30 of its 410 CX.
`apply_single` and `apply_cx` stay eager, and the modeled machine still
swaps for every CX, so `cycle_report` counts each one.

Since CXs only relabel, the diagonal gates between two dense gates form
one stretch, and `run_circuit` runs each stretch as one `Banks.diag`
call per piece, its steps the gates' (m00, m11, parity[t]) in order,
just before the dense gate's flush (or at the end of the loop). The
kernel runs every step on a word before it moves on to the next word,
each step with its own roundings and saturations, so the bits are
those of one call per gate; it reads and writes the state once per
stretch instead of once per gate. QFT-20's 570 RZ form 19 stretches.
From a basis state most of their words are zero, and the AVX-512F
bodies skip the arithmetic of all-zero vectors, whose bits cannot
change (kernels.c).

The machine's 8 segments (2 PE arrays x 4 PEs, `state.segment_of`) and
its access modes (Mode1: a pair inside one segment; Mode2: a pair
across two PEs at equal offsets, `access_mode`) matter to its timing
only: `cycle_report` counts the mode-2 gates, and no kernel call
follows the segments.

CX performs no arithmetic: it swaps 2^(n-2) amplitude pairs
(`fxp.Banks.cx`). The pipelined swapper schedule costs 2*(2^(n-2)+1)+1
cycles against the sequential baseline's 5*2^(n-2); `simulate_swapper`
steps the machine cycle by cycle and the closed forms are checked
against it in tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
import contextlib
from dataclasses import dataclass
import json

from . import fxp, perfmodel
from .gateset import CX, Circuit, GateOp, check_gate
from .state import StateVector

MODE1 = "Mode1"
MODE2 = "Mode2"

START, IDLE, LOAD, STORE, END = "Start", "IDLE", "LOAD", "STORE", "End"

# run_circuit cuts no kernel call below this many amplitudes, where the
# pool's round trips cost more than a second thread gains. On a 2-core
# AVX-512F Xeon, QFT-n run_circuit with every call cut in two took, over
# the uncut one (best of 3 to 40, two rounds): 3.1-3.9x at n = 12,
# 1.7x at n = 14, 1.1-1.3x at n = 15, 0.84-0.89x at n = 16, 0.58-0.60x
# at n = 20.
SPLIT_MIN_AMPS = 1 << 16


def access_mode(t: int, n: int) -> str:
    """Mode1: pair lives inside one segment. Mode2: pair spans two PEs."""
    if n < 3:
        raise ValueError("access modes are defined for n >= 3")
    if not 0 <= t < n:
        raise ValueError(f"target {t} out of range for n={n}")
    return MODE1 if t <= n - 4 else MODE2


def cx_cycles(n: int) -> int:
    """Pipelined swapper schedule: 2*(2^(n-2)+1)+1 cycles."""
    if n < 2:
        raise ValueError("CX requires n >= 2")
    return 2 * ((1 << (n - 2)) + 1) + 1


def cx_cycles_legacy(n: int) -> int:
    """Sequential baseline: 5 cycles for each of the 2^(n-2) pairs."""
    if n < 2:
        raise ValueError("CX requires n >= 2")
    return 5 * (1 << (n - 2))


# ---------------------------------------------------------------------------
# CX pair addressing: pair k is built by re-inserting a 0 at the target
# and a 1 at the control position of the compressed index k. Ascending k
# is the canonical enumeration order.
# ---------------------------------------------------------------------------

def _insert_bit(x, pos: int, bit: int):
    """x with `bit` inserted at position pos: the step of `cx_pair`'s
    address order, a machine fact that the tests pin; no computation
    reads it."""
    high = (x >> pos) << (pos + 1)
    low = x & ((1 << pos) - 1)
    return high | low | (bit << pos)


def cx_pair(k: int, n: int, control: int, target: int) -> tuple[int, int]:
    """Global indices of the k-th swapped pair (control=1, target=0/1).

    The swapper's address order: a machine fact that the tests pin; no
    computation reads it, since the schedule does not depend on it.
    """
    lo, hi = sorted((control, target))
    x = _insert_bit(_insert_bit(k, lo, 0), hi, 0)
    i0 = x | (1 << control)
    return i0, i0 | (1 << target)


def apply_cx(state: StateVector, control: int, target: int) -> None:
    """Swap the control=1 amplitude pairs in place (cycles: `cx_cycles`):
    words i and i | 2^target for every i whose control bit is set and
    target bit clear (`fxp.Banks.cx`), once `check_gate` passes the CX."""
    check_gate(GateOp(kind=CX, target=target, control=control), state.n)
    fxp.Banks(state.re, state.im).cx(control, target)


# ---------------------------------------------------------------------------
# Swapper state machine. One IDLE computes the first pair's addresses,
# then LOAD/STORE alternate (each STORE retires a pair while the next
# addresses are recalculated); Start arms the read port and End retires
# the final writes. Total: 1 + 1 + 2*pairs + 1 = 2*(2^(n-2)+1)+1.
# ---------------------------------------------------------------------------

@dataclass
class SwapperRun:
    n: int
    cycles: int
    pairs_processed: int
    stage_counts: dict
    writes_outstanding: int
    trace: list | None


def simulate_swapper(n: int, record_trace: bool | None = None) -> SwapperRun:
    """Step the swap schedule cycle by cycle for one CX gate.

    Traces are recorded for n <= 12 unless forced; the cycle and stage
    counts are always produced by honest stepping. The pairs' addresses
    (`cx_pair`) do not change the schedule, so no stage computes them.
    """
    if n < 2:
        raise ValueError("swapper requires n >= 2")
    pairs = 1 << (n - 2)
    record = (n <= 12) if record_trace is None else record_trace
    trace = [] if record else None
    counts = {START: 0, IDLE: 0, LOAD: 0, STORE: 0, END: 0}
    writes_outstanding = 0

    def step(stage: str):
        counts[stage] += 1
        if trace is not None:
            trace.append(stage)

    step(START)                                  # arm the read port
    step(IDLE)                                   # first pair's addresses
    done = 0
    while done < pairs:
        if writes_outstanding:                   # prior write lands in memory
            writes_outstanding -= 1
        step(LOAD)                               # reads of the pair issued
        done += 1                                # write back + next addresses
        writes_outstanding += 1
        step(STORE)
    writes_outstanding -= 1                      # final write retires here
    step(END)
    cycles = sum(counts.values())
    return SwapperRun(n=n, cycles=cycles, pairs_processed=done,
                      stage_counts=counts, writes_outstanding=writes_outstanding,
                      trace=trace)


# ---------------------------------------------------------------------------
# Single-qubit application.
# ---------------------------------------------------------------------------

def _ranges(total: int, p: int) -> list:
    # [lo, hi) of p contiguous ranges of near-equal length that cover [0,
    # total), p no greater than total; the kernel calls of the ranges
    # share no word, so they may run in any order or at once
    return [(total * i // p, total * (i + 1) // p) for i in range(p)]


def _diag_step(op: GateOp, mask: int) -> tuple:
    # a sparse gate as a diagonal step: word i takes m11 where the parity
    # of i & mask is odd, m00 elsewhere; the SU's bypass never reads m01
    # and m10
    m00, _, _, m11 = op.matrix
    return m00, m11, mask


def apply_single(state: StateVector, gate: GateOp,
                 cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG) -> None:
    """Apply one quantized single-qubit gate in place, as one kernel call.

    `cfg` is unused; it is kept for callers that pass it positionally.
    The gate's modeled cycles come from `cycle_report`.
    """
    if gate.kind == CX:
        raise ValueError("apply_single does not take CX")
    check_gate(gate, state.n)
    banks = fxp.Banks(state.re, state.im)
    if gate.sparse:
        banks.diag([_diag_step(gate, 1 << gate.target)], 0, state.size)
    else:
        banks.pair(gate.matrix, gate.target, 0, state.size // 2)


# ---------------------------------------------------------------------------
# Circuit execution and cycle accounting.
# ---------------------------------------------------------------------------

@dataclass
class CycleReport:
    n: int
    mem_mode: str
    per_gate: list          # (gate index, kind, cycles)
    total_cycles: int
    cx_pairs_swapped: int
    mode2_gate_count: int

    def to_json(self) -> str:
        doc = {
            "gates": [{"index": i, "kind": k, "cycles": c}
                      for i, k, c in self.per_gate],
            "total_cycles": self.total_cycles,
            "n": self.n,
            "mem_mode": self.mem_mode,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cycle_report(circuit: Circuit,
                 cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG) -> CycleReport:
    """Pure cycle accounting for a circuit, no state required."""
    n = circuit.n
    per_gate = []
    total = pairs = mode2 = 0
    for idx, op in enumerate(circuit.ops):
        cycles = cx_cycles(n) if op.kind == CX else perfmodel.cycles_single(n, cfg)
        per_gate.append((idx, op.kind, cycles))
        total += cycles
        if op.kind == CX:
            pairs += 1 << (n - 2)
        elif n >= 3 and access_mode(op.target, n) == MODE2:
            mode2 += 1
    return CycleReport(n=n, mem_mode=perfmodel.memory_mode(n, cfg),
                       per_gate=per_gate, total_cycles=total,
                       cx_pairs_swapped=pairs, mode2_gate_count=mode2)


class _Relabeling:
    """CX gates deferred as a GF(2) map of the stored indices.

    Logical bit q of the amplitude stored at index i is the parity of
    i & parity[q]. CX(c, t) adds row c to row t of the map and joins the
    pending list; `flush` makes the stored state the logical one again.
    """

    def __init__(self, n: int):
        self.identity = [1 << q for q in range(n)]
        self.parity = list(self.identity)
        self.pending: list = []

    def cx(self, control: int, target: int) -> None:
        self.parity[target] ^= self.parity[control]
        self.pending.append((control, target))

    def flush(self, banks: fxp.Banks) -> None:
        """Apply the pending CXs in order, unless their map is the identity."""
        if self.parity != self.identity:
            for control, target in self.pending:
                banks.cx(control, target)
            self.parity = list(self.identity)
        self.pending.clear()


def _pieces(workers: int, n: int) -> int:
    # `workers`, at most 2^(n-1), or 1 while the state is smaller than
    # SPLIT_MIN_AMPS
    if (1 << n) < SPLIT_MIN_AMPS:
        return 1
    return min(workers, 1 << (n - 1))


def run_circuit(state: StateVector, circuit: Circuit,
                cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG,
                workers: int = 1):
    """Apply a base-set circuit.

    Returns (state, cycle_report(circuit, cfg)). Each kernel call is cut
    into p contiguous pieces of near-equal length, p the smaller of
    `workers` and 2^(n-1), and a pool of p threads runs one call per
    piece, with a barrier after every call; below SPLIT_MIN_AMPS
    amplitudes p is 1 and no pool is made. The result is bit-identical
    for any worker count. CX gates are deferred as a relabeling, and each
    stretch of diagonal gates between two dense gates runs as one
    `Banks.diag` call per piece (see the module docstring). The stretch
    runs, and then the deferred CXs are flushed, before each dense gate
    and when the loop ends, an error included: a gate that fails
    `check_gate` when the loop reaches it leaves the state holding every
    gate before it.
    """
    if circuit.n != state.n:
        raise ValueError(f"circuit is for n={circuit.n}, state has n={state.n}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = state.n
    pieces = _pieces(workers, n)
    banks = fxp.Banks(state.re, state.im)
    labels = _Relabeling(n)
    steps: list = []          # the stretch of diagonal gates not yet run
    pool = ThreadPoolExecutor(max_workers=pieces) if pieces > 1 else None

    def run(kernel, total: int, *args) -> None:
        # kernel(*args, lo, hi) on each piece's range of [0, total)
        ranges = _ranges(total, pieces)
        if pool is None:
            kernel(*args, *ranges[0])
            return
        futures = [pool.submit(kernel, *args, lo, hi) for lo, hi in ranges]
        for f in wait(futures).done:
            f.result()   # re-raise worker errors, a barrier per call

    def run_stretch() -> None:
        nonlocal steps
        if steps:
            run(banks.diag, 1 << n, steps)
            steps = []

    with pool or contextlib.nullcontext():
        try:
            for op in circuit.ops:
                check_gate(op, n)
                if op.kind == CX:
                    labels.cx(op.control, op.target)
                    continue
                if op.sparse:
                    steps.append(_diag_step(op, labels.parity[op.target]))
                    continue
                run_stretch()
                labels.flush(banks)
                run(banks.pair, 1 << (n - 1), op.matrix, op.target)
        finally:
            run_stretch()
            labels.flush(banks)
    return state, cycle_report(circuit, cfg)
