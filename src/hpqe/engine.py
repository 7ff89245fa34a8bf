"""Fixed-point gate application and the pipelined CX swapper.

A single-qubit gate on qubit t pushes every amplitude pair (i, i + 2^t)
through the SU dataflow, in place: the kernels read both words of a
pair before they write either, so no shadow buffer is needed. The state
holds the machine's 32-bit words (`fxp.WORD`), and the arithmetic runs
in fxp's bank kernels:
  * a sparse (diagonal) gate scales contiguous banks by the (m00, m11)
    coefficient that bit t of each word's index picks (`scale_bank`);
  * a dense gate hands `pair_banks` the two halves of each pair, strided
    views of the state reshaped to (-1, 2, 2^t).
Every rounding and saturation step of the scalar `fxp.su_eval` is kept,
except the provably inert ones the `fxp` docstring lists.

Each pair's words depend on that pair alone, so a gate may be cut into
contiguous pieces of pairs computed in any order, or at once, with the
same bits. `apply_single` makes one kernel call on the whole state.
`run_circuit` cuts each gate into one piece per thread of its pool,
with a barrier between gates; native calls release the GIL and each
numpy-body call allocates its own scratch, so results are bit-identical
for any worker count.

The machine's 8 segments (2 PE arrays x 4 PEs, `state.segment_of`) and
its access modes (Mode1: a pair inside one segment; Mode2: a pair
across two PEs at equal offsets, `access_mode`) matter to its timing
only: `cycle_report` counts the mode-2 gates, and no kernel call
follows the segments.

CX performs no arithmetic: it swaps 2^(n-2) amplitude pairs, in the
native `hpqe_cx` loop, or through views of each component reshaped to
[2]*n where the library is not available. The pipelined swapper
schedule costs 2*(2^(n-2)+1)+1 cycles against the sequential baseline's
5*2^(n-2); `simulate_swapper` steps the machine cycle by cycle and the
closed forms are checked against it in tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
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


def apply_cx(state: StateVector, control: int, target: int) -> None:
    """Swap the control=1 amplitude pairs in place (cycles: `cx_cycles`).

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
        return
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

def _kernel_calls(sv: StateVector, op: GateOp, p: int) -> list:
    # the kernel calls of a single-qubit gate over p contiguous pieces of
    # 2^(n-1)/p pairs each (p a power of two, at most 2^(n-1)); the pieces
    # share no word, so the calls may run in any order or at once
    t = op.target
    m00, m01, m10, m11 = op.matrix
    if op.sparse:
        # bit t of a piece's first index is clear, unless the piece is
        # shorter than the period 2^(t+1): it then lies inside one half,
        # whose coefficient that bit picks for all its words
        step = sv.size // p
        return [partial(fxp.scale_bank, m11 if (lo >> t) & 1 else m00, m11, t,
                        sv.re[lo:lo + step], sv.im[lo:lo + step])
                for lo in range(0, sv.size, step)]
    rows = sv.size >> (t + 1)
    if rows >= p:
        step = rows // p
        cuts = [(slice(lo, lo + step), slice(None)) for lo in range(0, rows, step)]
    else:
        step = (rows << t) // p
        cuts = [(r, slice(lo, lo + step)) for r in range(rows)
                for lo in range(0, 1 << t, step)]
    halves = [a.reshape(rows, 2, 1 << t)[:, h]          # xr, xi, yr, yi
              for h in (0, 1) for a in (sv.re, sv.im)]
    return [partial(fxp.pair_banks, m00, m01, m10, m11, *(v[cut] for v in halves))
            for cut in cuts]


def apply_single(state: StateVector, gate: GateOp,
                 cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG) -> None:
    """Apply one quantized single-qubit gate in place, as one kernel call.

    `cfg` is unused; it is kept for callers that pass it positionally.
    The gate's modeled cycles come from `cycle_report`.
    """
    if gate.kind == CX:
        raise ValueError("apply_single does not take CX")
    if gate.matrix is None:
        raise ValueError("gate matrix not quantized (use gateset.single)")
    if not 0 <= gate.target < state.n:
        raise ValueError(f"target {gate.target} out of range for n={state.n}")
    for call in _kernel_calls(state, gate, 1):
        call()


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


def run_circuit(state: StateVector, circuit: Circuit,
                cfg: perfmodel.PerfConfig = perfmodel.DEFAULT_CONFIG,
                workers: int = 1):
    """Apply a base-set circuit gate by gate.

    Returns (state, cycle_report(circuit, cfg)). A single-qubit gate is
    cut into p contiguous pieces, p the largest power of two no greater
    than `workers` and 2^(n-1), and a pool of p threads runs one kernel
    call per piece, with a barrier after every gate; the result is
    bit-identical for any worker count.
    """
    if circuit.n != state.n:
        raise ValueError(f"circuit is for n={circuit.n}, state has n={state.n}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    pieces = 1 << (min(workers, state.size >> 1).bit_length() - 1)
    pool = ThreadPoolExecutor(max_workers=pieces) if pieces > 1 else None
    try:
        for idx, op in enumerate(circuit.ops):
            if op.kind == CX:
                apply_cx(state, op.control, op.target)
                continue
            if op.matrix is None:
                raise ValueError(f"gate {idx} has no quantized matrix")
            calls = _kernel_calls(state, op, pieces)
            if pool is None:
                calls[0]()
            else:
                futures = [pool.submit(call) for call in calls]
                for f in wait(futures).done:
                    f.result()   # re-raise worker errors, barrier per gate
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return state, cycle_report(circuit, cfg)
