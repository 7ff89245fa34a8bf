"""Spans recorded from the benchmark's side of hpqe's layer boundaries.

The traced op runs the same `hpqe.cli.main` flow as an untraced one, with
the public functions the CLI calls temporarily wrapped so that each call
records a span. `engine.run_circuit` is wrapped to keep a copy of its
input state, so that the circuit can afterwards be replayed one gate at a
time through `engine.apply_single` and `engine.apply_cx`. The replay times
every kernel path and must end on the same state digest as the
`run_circuit` call it repeats. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time
from dataclasses import dataclass, field

PATHS = ("dense_m1", "dense_m2", "sparse_m1", "sparse_m2", "cx")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class CapturedRun:
    """One `engine.run_circuit` call seen during a traced op."""
    initial: object       # StateVector copied before the call
    circuit: object
    cfg: object
    workers: int
    final: object         # StateVector the call returned
    report: object        # its CycleReport


@dataclass
class PathStats:
    gates: int = 0
    busy_s: float = 0.0
    amps: int = 0          # amplitudes in the states the gates were applied to
    bytes: int = 0         # computed bytes read plus written


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, parent, self.op, name, time.perf_counter(), 0.0, attrs)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def op_seconds(self, op: int) -> dict:
        """Total seconds per span name within one op."""
        totals: dict = {}
        for s in self.spans:
            if s.op == op:
                totals[s.name] = totals.get(s.name, 0.0) + s.seconds
        return totals

    def to_json(self) -> list:
        return [{"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                 "start": s.start, "end": s.end, **s.attrs} for s in self.spans]

    @contextlib.contextmanager
    def layers(self, hpqe, runs: list):
        """Wrap the public functions the CLI calls; restore them on exit.

        Every `engine.run_circuit` call is appended to `runs`.
        """
        circuits, engine, oracle, perfmodel, state = (
            hpqe.circuits, hpqe.engine, hpqe.oracle, hpqe.perfmodel, hpqe.state)
        patched = []

        def wrap(owner, attr, name, around=None):
            orig = getattr(owner, attr)

            @functools.wraps(orig)
            def timed(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)

            setattr(owner, attr, around(orig) if around else timed)
            patched.append((owner, attr, orig))

        def capture(orig):
            @functools.wraps(orig)
            def run_circuit(sv, circuit, cfg=perfmodel.DEFAULT_CONFIG, workers=1):
                initial = sv.copy()
                with self.span("engine.run_circuit", n=circuit.n, workers=workers):
                    final, report = orig(sv, circuit, cfg, workers=workers)
                runs.append(CapturedRun(initial, circuit, cfg, workers, final, report))
                return final, report
            return run_circuit

        try:
            wrap(circuits, "qft", "circuits.build")
            wrap(circuits, "template", "circuits.build")
            wrap(state, "init_basis", "state.init")
            wrap(state.StateVector, "dump", "state.dump")
            wrap(engine, "run_circuit", "engine.run_circuit", around=capture)
            wrap(perfmodel, "estimate_time", "perfmodel.estimate")
            wrap(oracle, "ref_run", "oracle.ref_run")
            wrap(oracle, "metrics", "oracle.metrics")
            yield
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)


def kernel_path(op, n: int, engine) -> str:
    if op.kind == "CX":
        return "cx"
    mode = "m2" if n >= 3 and engine.access_mode(op.target, n) == engine.MODE2 else "m1"
    return ("sparse_" if op.sparse else "dense_") + mode


def state_digest(sv) -> str:
    return hashlib.sha256(sv.dump()).hexdigest()


def replay(tracer: Tracer, run: CapturedRun, engine, stats: dict) -> bool:
    """Apply the run's circuit gate by gate from its initial state.

    Adds each gate's time to `stats[path]` and returns whether the replay
    ended on the same state digest as the traced `run_circuit` call.
    Bytes are computed, not measured: a single-qubit gate reads and writes
    every amplitude's two words once, CX reads and writes half of them.
    """
    sv = run.initial.copy()
    n = sv.n
    word = sv.re.itemsize
    with tracer.span("replay", n=n):
        for op in run.circuit.ops:
            path = kernel_path(op, n, engine)
            with tracer.span("engine." + path) as span:
                if path == "cx":
                    engine.apply_cx(sv, op.control, op.target)
                else:
                    engine.apply_single(sv, op, run.cfg)
            touched = (1 << (n - 1)) if path == "cx" else (1 << n)
            s = stats[path]
            s.gates += 1
            s.busy_s += span.seconds
            s.amps += 1 << n
            s.bytes += touched * 2 * word * 2
    return state_digest(sv) == state_digest(run.final)
