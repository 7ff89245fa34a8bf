"""Fixed-point gate application and the pipelined CX swapper.

Single-qubit gates walk amplitude pairs (i, i + 2^t) and push each pair
through the SU dataflow, overwriting in place after a read-before-write
of the pair (no shadow buffer). Pairs whose members share a segment are
handled inside that segment (access mode 1); when the target bit selects
the segment itself, the pair spans two PEs at the same offset and the
owning segment computes both outputs from the exchanged values (mode 2).

The state holds the machine's 32-bit words (`fxp.WORD`). The arithmetic
runs in fxp's bank kernels, which take each segment in place: their
native body (`kernels.c`, built on first use) needs no scratch, and
their numpy fallback widens BLOCK-element slices into one int64 scratch
array allocated per call, so temporaries stay bounded by the block:
  * sparse (diagonal) gates scale contiguous banks in place, in mode 1
    by the (m00, m11) coefficient that bit t of each word's index picks
    (period 2^(t+1)), in mode 2 by the one coefficient the segment's
    target bit selects;
  * dense gates hand `fxp.pair_banks` the two halves of each pair: strided
    views of one segment in mode 1, two whole segments in mode 2.
Every rounding and saturation step of the scalar `fxp.su_eval` is kept,
except the provably inert ones the `fxp` docstring lists.

CX performs no arithmetic: it swaps 2^(n-2) amplitude pairs, in the
native `hpqe_cx` loop, or through views of each component reshaped to
[2]*n where the library is not available. The pipelined swapper
schedule costs 2*(2^(n-2)+1)+1 cycles against the sequential baseline's
5*2^(n-2); `simulate_swapper` steps the machine cycle by cycle and the
closed forms are checked against it in tests.

With one worker, a single-qubit gate is one kernel call on the whole
state, in either access mode: `scale_bank` with bit t for a sparse gate,
`pair_banks` on the (-1, 2, 2^t) halves for a dense one. Each pair's
words depend on that pair alone, so this gives the segment walk's bits.
The segment split remains the partition for several workers. Segment
updates never overlap, so gate application may be spread over 1..8
workers with a barrier between gates; native calls release the GIL,
each numpy-body worker call owns its scratch, and results are
bit-identical for any worker count. Workers split the segments that
compute for the gate: all 8, or the 4 owners of a dense mode-2 gate.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
import json


from . import fxp, perfmodel
from .gateset import Circuit, GateOp, CX
from .state import StateVector

MODE1 = "Mode1"
MODE2 = "Mode2"

START, IDLE, LOAD, STORE, END = "Start", "IDLE", "LOAD", "STORE", "End"


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
    high = (x >> pos) << (pos + 1)
    low = x & ((1 << pos) - 1)
    return high | low | (bit << pos)


def cx_pair(k: int, n: int, control: int, target: int) -> tuple[int, int]:
    """Global indices of the k-th swapped pair (control=1, target=0/1)."""
    lo, hi = sorted((control, target))
    x = _insert_bit(_insert_bit(k, lo, 0), hi, 0)
    i0 = x | (1 << control)
    return i0, i0 | (1 << target)


def apply_cx(state: StateVector, control: int, target: int) -> int:
    """Swap the control=1 amplitude pairs in place; returns cycles.

    The native kernel swaps words i and i | 2^target for every i whose
    control bit is set and target bit clear. Without it, each component
    is viewed as an n-axis array of shape [2]*n (qubit q is axis n-1-q),
    so the control=1, target=0 and target=1 halves are strided views and
    the swap needs no index arrays.
    """
    n = state.n
    if n < 2:
        raise ValueError("CX requires n >= 2")
    if control == target or not (0 <= control < n and 0 <= target < n):
        raise ValueError(f"bad CX qubits ({control}, {target}) for n={n}")
    lib = fxp.native_kernels()
    if lib is not None and fxp.native_rows(state.re, state.im) == (1, 1 << n, 1 << n):
        lib.hpqe_cx(state.re.ctypes.data, state.im.ctypes.data, n, control, target)
        return cx_cycles(n)
    lo = [slice(None)] * n
    lo[n - 1 - control] = slice(1, 2)       # slices keep every view an array
    hi = list(lo)
    lo[n - 1 - target] = slice(0, 1)
    hi[n - 1 - target] = slice(1, 2)
    for arr in (state.re, state.im):
        grid = arr.reshape([2] * n)
        a, b = grid[tuple(lo)], grid[tuple(hi)]
        tmp = a.copy()
        a[...] = b
        b[...] = tmp
    return cx_cycles(n)


# ---------------------------------------------------------------------------
# Swapper state machine. One IDLE computes the first pair's addresses,
# then LOAD/STORE alternate (each STORE retires a pair while the next
# addresses are recalculated); Start arms the read port and End retires
# the final writes. Total: 1 + 1 + 2*pairs + 1 = 2*(2^(n-2)+1)+1.
# ---------------------------------------------------------------------------

@dataclass
class SwapperState:
    stage: str
    pair_counter: int
    pending_addresses: tuple[int, int] | None


@dataclass
class SwapperRun:
    n: int
    cycles: int
    pairs_processed: int
    stage_counts: dict
    writes_outstanding: int
    trace: list | None


def simulate_swapper(n: int, control: int | None = None,
                     target: int | None = None,
                     record_trace: bool | None = None) -> SwapperRun:
    """Step the swap schedule cycle by cycle for one CX gate.

    Traces are recorded for n <= 12 unless forced; the cycle and stage
    counts are always produced by honest stepping.
    """
    if n < 2:
        raise ValueError("swapper requires n >= 2")
    if control is None:
        control = n - 1
    if target is None:
        target = 0
    pairs = 1 << (n - 2)
    record = (n <= 12) if record_trace is None else record_trace
    trace = [] if record else None
    counts = {START: 0, IDLE: 0, LOAD: 0, STORE: 0, END: 0}
    writes_outstanding = 0

    def step(st: SwapperState):
        counts[st.stage] += 1
        if trace is not None:
            trace.append(st.stage)

    st = SwapperState(stage=START, pair_counter=0, pending_addresses=None)
    step(st)                                     # arm the read port
    st.stage = IDLE
    st.pending_addresses = cx_pair(0, n, control, target)
    step(st)                                     # first pair's addresses
    done = 0
    while done < pairs:
        if writes_outstanding:                   # prior write lands in memory
            writes_outstanding -= 1
        st.stage = LOAD                          # reads issued at pending
        step(st)
        st.stage = STORE                         # write back + next addresses
        done += 1
        st.pair_counter = done
        if done < pairs:
            st.pending_addresses = cx_pair(done, n, control, target)
        else:
            st.pending_addresses = None
        writes_outstanding += 1
        step(st)
    st.stage = END
    writes_outstanding -= 1                      # final write retires here
    step(st)
    cycles = sum(counts.values())
    return SwapperRun(n=n, cycles=cycles, pairs_processed=done,
                      stage_counts=counts, writes_outstanding=writes_outstanding,
                      trace=trace)


# ---------------------------------------------------------------------------
# Single-qubit application.
# ---------------------------------------------------------------------------

def _segment_bit(t: int, n: int) -> int:
    return t - (n - 3)


def _update_intra(op: GateOp, banks, scratch) -> None:
    # both pair members inside each (re, im) bank: a segment in access
    # mode 1, or the whole state
    t = op.target
    m00, m01, m10, m11 = op.matrix
    if op.sparse:
        # diagonal: scale by the periodic (m00, m11) pattern, no exchange
        fxp.scale_bank(m00, m11, t, banks, scratch)
        return
    for re, im in banks:
        r3, i3 = (a.reshape(-1, 2, 1 << t) for a in (re, im))
        fxp.pair_banks(m00, m01, m10, m11, r3[:, 0], i3[:, 0], r3[:, 1], i3[:, 1],
                       scratch)


def _update_cross(sv: StateVector, op: GateOp, seg_ids, scratch) -> None:
    # pair spans two segments at equal offsets; a segment with the target
    # bit clear owns the pair and writes both halves
    bit = _segment_bit(op.target, sv.n)
    m00, m01, m10, m11 = op.matrix
    for sid in seg_ids:
        if op.sparse:
            # diagonal gates touch no partner data: scale the whole segment
            coeff = m11 if (sid >> bit) & 1 else m00
            fxp.scale_bank(coeff, coeff, 0, [sv.segment(sid)], scratch)
        elif not (sid >> bit) & 1:
            xr, xi = sv.segment(sid)
            yr, yi = sv.segment(sid | (1 << bit))
            fxp.pair_banks(m00, m01, m10, m11, xr, xi, yr, yi, scratch)


def _apply_single_segments(sv: StateVector, op: GateOp, seg_ids) -> None:
    # scratch is per call, so concurrent workers never share buffers
    scratch = fxp.scratch_for_call()
    if sv.n < 3 or access_mode(op.target, sv.n) == MODE1:
        _update_intra(op, map(sv.segment, seg_ids), scratch)
    else:
        _update_cross(sv, op, seg_ids, scratch)


def _apply_single_whole(sv: StateVector, op: GateOp) -> None:
    # one kernel call for the whole state: every pair (i, i + 2^t) lies in
    # it, in either access mode, and each pair's words depend on that pair
    # alone, so the bits equal the segment walk's; a numpy body allocates
    # its own scratch for the one call
    _update_intra(op, [(sv.re, sv.im)], None)


def apply_single(state: StateVector, gate: GateOp,
                 cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG) -> int:
    """Apply one quantized single-qubit gate in place; returns cycles."""
    if gate.kind == CX:
        raise ValueError("apply_single does not take CX")
    if gate.matrix is None:
        raise ValueError("gate matrix not quantized (use gateset.single)")
    if not 0 <= gate.target < state.n:
        raise ValueError(f"target {gate.target} out of range for n={state.n}")
    _apply_single_whole(state, gate)
    return perfmodel.cycles_single(state.n, cfg)


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


def _gate_cycles(op: GateOp, n: int, cfg: perfmodel.PerfConfig) -> int:
    return cx_cycles(n) if op.kind == CX else perfmodel.cycles_single(n, cfg)


def cycle_report(circuit: Circuit,
                 cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG) -> CycleReport:
    """Pure cycle accounting for a circuit, no state required."""
    n = circuit.n
    per_gate = []
    total = pairs = mode2 = 0
    for idx, op in enumerate(circuit.ops):
        cycles = _gate_cycles(op, n, cfg)
        per_gate.append((idx, op.kind, cycles))
        total += cycles
        if op.kind == CX:
            pairs += 1 << (n - 2)
        elif n >= 3 and access_mode(op.target, n) == MODE2:
            mode2 += 1
    return CycleReport(n=n, mem_mode=perfmodel.memory_mode(n, cfg),
                       per_gate=per_gate, total_cycles=total,
                       cx_pairs_swapped=pairs, mode2_gate_count=mode2)


def _busy_segments(op: GateOp, n: int, segment_count: int) -> list:
    # segments that compute for a single-qubit gate: in a dense mode-2
    # gate only the owners (target bit clear) do, writing both halves
    if op.sparse or n < 3 or access_mode(op.target, n) == MODE1:
        return list(range(segment_count))
    bit = _segment_bit(op.target, n)
    return [s for s in range(segment_count) if not (s >> bit) & 1]


def _worker_partition(segments: list, workers: int) -> list:
    return [segments[w::workers] for w in range(workers)]


def run_circuit(state: StateVector, circuit: Circuit,
                cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG,
                workers: int = 1):
    """Apply a base-set circuit gate by gate.

    Returns (state, cycle_report(circuit, cfg)). With workers > 1 the
    segments that compute for each gate are split evenly across a thread
    pool, with a barrier after every gate; the result is bit-identical
    for any worker count.
    """
    if circuit.n != state.n:
        raise ValueError(f"circuit is for n={circuit.n}, state has n={state.n}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, state.segment_count)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for idx, op in enumerate(circuit.ops):
            if op.kind == CX:
                apply_cx(state, op.control, op.target)
                continue
            if op.matrix is None:
                raise ValueError(f"gate {idx} has no quantized matrix")
            if pool is None:
                _apply_single_whole(state, op)
            else:
                busy = _busy_segments(op, state.n, state.segment_count)
                futures = [pool.submit(_apply_single_segments, state, op, part)
                           for part in _worker_partition(busy, workers) if part]
                for f in wait(futures).done:
                    f.result()   # re-raise worker errors, barrier per gate
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return state, cycle_report(circuit, cfg)
