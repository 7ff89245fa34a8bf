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
barrier between calls, for a call on SPLIT_MIN_AMPS words or more;
below that it makes one call, and below SPLIT_MIN_AMPS amplitudes it
makes no pool. Native calls release the GIL and each numpy-body call
allocates its own scratch, so results are bit-identical for any worker
count.

`run_circuit` plans, then runs. `_schedule` turns the checked ops into
the ordered list of kernel calls, reading no state, and its docstring
is the one statement of how CX gates are deferred as a relabeling of
the stored indices, how the diagonal gates between two dense gates form
one `Banks.diag` stretch, which qubits are free and which fixed, the
qubit layout, the window of words that can be nonzero, and why no bit
can change. `run_circuit` moves a basis state's one word to its stored
index and executes the calls. From a basis state QFT-20's calls cover
3 x 2^20 words instead of 39 x 2^20, its 570 RZ form 19 stretches, and
it makes no `Banks.cx` call. `apply_single` and `apply_cx` stay eager,
and the modeled machine still swaps for every CX, so `cycle_report`
counts each one. The AVX-512F bodies also skip the arithmetic of
all-zero vectors, whose bits cannot change (kernels.c).

The machine's 8 segments (2 PE arrays x 4 PEs, `state.segment_of`) and
its access modes (Mode1: a pair inside one segment; Mode2: a pair
across two PEs at equal offsets, `access_mode`) change neither the bits
nor the modeled cycles: no kernel call follows the segments, and
`perfmodel.cycles_single` charges every single-qubit gate
ceil(2^(n-1) / pe_pairs_per_cycle) + pipeline_fill cycles, whatever its
mode. `access_mode` names a gate's mode for the benchmark's split of
kernel time by path.

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

import numpy as np

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
    do not change the schedule, so no stage computes them.
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

    def to_json(self) -> str:
        """The report as `json.dumps({"gates": [{"index", "kind",
        "cycles"}, ...], "total_cycles", "n", "mem_mode"}, sort_keys=True,
        separators=(",", ":"))` would write it, byte for byte: each gate
        through one format string, each distinct kind encoded once."""
        kinds = {k: json.dumps(k) for k in {k for _, k, _ in self.per_gate}}
        gates = ",".join('{"cycles":%d,"index":%d,"kind":%s}' % (c, i, kinds[k])
                         for i, k, c in self.per_gate)
        return '{"gates":[%s],"mem_mode":%s,"n":%d,"total_cycles":%d}' % (
            gates, json.dumps(self.mem_mode), self.n, self.total_cycles)


def cycle_report(circuit: Circuit,
                 cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG) -> CycleReport:
    """Pure cycle accounting for a circuit, no state required: each CX
    costs `cx_cycles(n)`, each single-qubit gate
    `perfmodel.cycles_single(n, cfg)`."""
    n = circuit.n
    cx_cost = cx_cycles(n) if n >= 2 else None
    single_cost = perfmodel.cycles_single(n, cfg)
    per_gate = [(idx, op.kind, cx_cost if op.kind == CX else single_cost)
                for idx, op in enumerate(circuit.ops)]
    return CycleReport(n=n, mem_mode=perfmodel.memory_mode(n, cfg), per_gate=per_gate,
                       total_cycles=sum(c for _, _, c in per_gate))


def _basis_word(state: StateVector) -> int | None:
    # the index of the state's one nonzero word (in re, im or both), or
    # None; count_nonzero and argmax/argmin make no state-sized temporary
    found = set()
    for a in (state.re, state.im):
        count = np.count_nonzero(a)
        if count > 1:
            return None
        if count:
            i = int(a.argmax())
            found.add(i if a[i] else int(a.argmin()))
    return found.pop() if len(found) == 1 else None


def _walk(ops, n: int, word: int | None, slot: list, emit: bool = True) -> tuple:
    # the rule of `_schedule` over the ops, qubit q on stored bit
    # slot[q]: (the qubits in the order they become free, the stored
    # index of the basis word, the kernel calls). free is the mask of
    # the free qubits' stored bits, lo the stored bits of the fixed
    # qubits at 1, so the words that can be nonzero are those that agree
    # with lo outside free. Without emit it follows only the map and the
    # free mask, which alone decide the order, and returns no calls
    start = [1 << s for s in slot]
    if word is None:
        order, free, lo = list(range(n)), (1 << n) - 1, 0
    else:
        order, free = [], 0
        lo = sum(start[q] for q in range(n) if word >> q & 1)
    stored = lo
    parity, pending, steps, calls = list(start), [], [], []
    for op in [*ops, None]:
        if op is not None and op.sparse:
            if emit:
                steps.append(_diag_step(op, parity[op.target]))
        elif op is not None and op.kind == CX:
            c, t = op.control, op.target
            parity[t] ^= parity[c]
            if emit:
                pending.append(("cx", slot[c], slot[t]))
        else:
            k = free.bit_count()
            if steps:
                calls.append(("diag", k, lo, lo + (1 << k), steps))
                steps = []
            if op is None:
                break
            if emit and parity != start:
                calls += pending
            # only the qubits whose rows the pending CXs changed can take
            # a free bit or a new value: none after a CX pair that
            # cancels, as in QFT's controlled phases
            rows = [] if parity == start else [q for q in range(n) if parity[q] != start[q]]
            # the qubits the map frees, in qubit order, then the target
            for q in [q for q in rows if parity[q] & free] + [op.target]:
                if not start[q] & free:
                    order.append(q)
                    free |= start[q]
            if emit:
                # a fixed qubit's value, the parity of lo & parity[q],
                # flips where that of lo & (parity[q] ^ start[q]) is odd
                lo ^= sum(start[q] for q in rows
                          if (lo & (parity[q] ^ start[q])).bit_count() & 1)
                lo &= ~free
                k = free.bit_count()
                calls.append(("pair", k, lo >> 1, (lo + (1 << k)) >> 1, op.matrix,
                              slot[op.target]))
            parity, pending = list(start), []
    if emit and parity != [1 << q for q in range(n)]:
        if parity != start:
            calls += pending
        on = sorted(range(n), key=slot.__getitem__)     # the qubit on each stored bit
        for bit in range(n):        # stored bit `bit` back to qubit `bit`
            s = on.index(bit)
            if s != bit:
                calls += [("cx", bit, s), ("cx", s, bit), ("cx", bit, s)]
                on[bit], on[s] = bit, on[bit]
    return order, stored, calls


def _schedule(ops, n: int, word: int | None) -> tuple:
    """`run_circuit`'s plan: (the stored index of the basis word, the
    kernel calls in order) for checked ops on n qubits, word the logical
    index of a basis state's one nonzero word, or None for any other
    state. It reads no state.

    Deferred CX. A CX does no arithmetic, so no word moves for it.
    Logical bit q of the word stored at index i is the parity of
    i & parity[q], a GF(2) map that starts as the layout, 2^slot[q], and
    CX(c, t) is parity[t] ^= parity[c]. A diagonal gate on t is a step
    with the mask parity[t] (`_diag_step`), so each word gets the
    products, roundings and saturations it would get after the swaps, in
    the same order. The diagonal gates between two dense gates form one
    stretch, one `Banks.diag` call, which takes each word through every
    step before it moves on. Before a dense gate the pending CXs are
    flushed: dropped if the map is the layout again, applied in order on
    their qubits' stored bits otherwise. At the end they are dropped if
    the map is the natural identity (logical bit q is stored bit q), as
    QFT's final swaps undo its bit-reversed layout; otherwise they are
    flushed and each stored bit is swapped back to its qubit, three CXs
    a swap.

    Free/fixed rule, stated on the map. Each qubit is free, or fixed at
    one value on every word that can be nonzero: from a basis state
    every qubit starts fixed, from any other state free. Between dense
    gates a CX only edits the map. At a dense gate the pending CXs first
    move the words; then the gate's target becomes free, and so does
    every fixed qubit whose row of the map, parity[q], reads a free
    stored bit. A fixed qubit's value is the parity of lo & parity[q],
    lo the stored bits of the fixed qubits at 1. A free qubit stays
    free: a SWAP can move a fixed value onto a free qubit, but fixing it
    again would take a stored bit out of the window's low bits.

    Layout and window. Which qubits become free, and when, does not
    depend on the layout: a layout renames the stored bits of the map's
    rows and of the free mask alike. So `_walk` runs the rule once with
    each qubit on its own stored bit, following only the map and the
    free mask and emitting nothing, to learn the order in which the
    qubits become free (at one dense gate, those the map frees in qubit
    order, then the target; from a state that is not a basis state, all
    of them at the start, in qubit order), and once more to emit the
    calls with each qubit on its place in that order, slot[q], the
    others on the next bits in qubit order. The k free qubits then sit
    on stored bits 0..k-1, so the words that can be nonzero are one
    aligned window, [lo, lo + 2^k), and every stretch and dense gate
    runs on the window alone. The window moves only when words do, at a
    dense gate: until then the pending CXs move no word, whatever they
    did to the logical values. No bit depends on the layout or the
    window: a word outside the window is zero and stays zero through
    every step and pair it skips, and every word in it meets the same
    coefficients and partners, in the same order, as in a call on the
    whole state.

    Each call is ("diag", k, lo, hi, steps), `Banks.diag` on the words
    [lo, hi) of a 2^k-word window; ("pair", k, lo, hi, m, bit),
    `Banks.pair` on the pairs [lo, hi) of stored bit `bit`; or ("cx",
    control, target), `Banks.cx` on two stored bits.
    """
    order = _walk(ops, n, word, list(range(n)), emit=False)[0]
    order += [q for q in range(n) if q not in order]
    return _walk(ops, n, word, [order.index(q) for q in range(n)])[1:]


def _fits(call, n: int) -> bool:
    # whether a call of a plan stays inside the n-qubit state: a diag on
    # an aligned window [lo, lo + 2^k) of the 2^n words, a pair on an
    # aligned window [lo, lo + 2^(k-1)) of the 2^(n-1) pairs with its
    # bit below k, a cx on two distinct bits below n
    name, *args = call
    if name == "cx":
        return len(args) == 2 and 0 <= args[0] < n and 0 <= args[1] < n and args[0] != args[1]
    pair = name == "pair"
    if name not in ("diag", "pair") or len(args) != 4 + pair or not pair <= args[0] <= n:
        return False
    k, lo, hi = args[:3]
    size = 1 << (k - pair)      # the window's words, or pairs
    return (0 <= lo and lo % size == 0 and hi == lo + size <= 1 << (n - pair)
            and (not pair or 0 <= args[4] < k))


def _check_plan(stored: int, calls, n: int) -> None:
    # RuntimeError unless the plan's stored index is a word of the state
    # and every call `_fits`. No `fxp.Banks` call checks its range, and
    # the native kernels write wherever one points, so an unchecked
    # planning bug would corrupt memory instead of raising
    if not 0 <= stored < 1 << n:
        raise RuntimeError(f"plan stores the basis word at {stored}, outside n={n}")
    for call in calls:
        if not _fits(call, n):
            raise RuntimeError(f"plan call {call!r} does not fit a state of n={n}")


def _pieces(workers: int, k: int) -> int:
    # for a kernel call on 2^k words: `workers`, at most 2^(k-1), or 1
    # while the call covers fewer than SPLIT_MIN_AMPS words
    if k == 0 or (1 << k) < SPLIT_MIN_AMPS:
        return 1
    return min(workers, 1 << (k - 1))


def run_circuit(state: StateVector, circuit: Circuit,
                cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG,
                workers: int = 1):
    """Apply a base-set circuit.

    Returns (state, cycle_report(circuit, cfg)). `check_gate` runs once
    on each op, in order, before any kernel call; the ops before the
    first that fails run, the state is made logical, and then its error
    is raised, so the state holds every gate before it and none after.

    A state with exactly one nonzero word is a basis state, and that
    word moves to its stored index; then the calls of `_schedule` run in
    order. Before any word moves, `_check_plan` raises RuntimeError for
    a plan that leaves the state, a planning bug that the unchecked
    kernels would turn into a memory fault. Each `diag` and `pair` call
    is cut into p contiguous pieces of near-equal length, p the smaller
    of `workers` and 2^(k-1), with a barrier after every call; below
    SPLIT_MIN_AMPS words p is 1, and below SPLIT_MIN_AMPS amplitudes no
    pool is made. Each `cx` call is
    one `Banks.cx`. No bit depends on the worker count.
    """
    if circuit.n != state.n:
        raise ValueError(f"circuit is for n={circuit.n}, state has n={state.n}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = state.n
    ops, error = [], None
    for op in circuit.ops:
        try:
            check_gate(op, n)
        except ValueError as exc:
            error = exc
            break
        ops.append(op)
    word = _basis_word(state)
    stored, calls = _schedule(ops, n, word)
    _check_plan(stored, calls, n)
    if word is not None:
        for a in (state.re, state.im):
            a[stored], a[word] = a[word], a[stored]
    pieces = _pieces(workers, n)
    banks = fxp.Banks(state.re, state.im)
    pool = ThreadPoolExecutor(max_workers=pieces) if pieces > 1 else None

    def run(kernel, k: int, lo: int, hi: int, *args) -> None:
        # kernel(*args, a, b) on each piece [a, b) of [lo, hi), a range
        # of the 2^k-word window
        p = _pieces(workers, k)
        if p == 1:
            kernel(*args, lo, hi)
            return
        futures = [pool.submit(kernel, *args, lo + a, lo + b)
                   for a, b in _ranges(hi - lo, p)]
        for f in wait(futures).done:
            f.result()   # re-raise worker errors, a barrier per call

    with pool or contextlib.nullcontext():
        for name, *args in calls:
            if name == "cx":
                banks.cx(*args)
            else:
                run(getattr(banks, name), *args)
    if error is not None:
        raise error
    return state, cycle_report(circuit, cfg)
