"""The fresh process that runs one workload; run.py starts it and reads its result.

    python3 benchmark/worker.py --src SRC --out DIR --result FILE \
        --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

It runs the workload's CLI flow in a closed loop from this single process
and checks every op's outputs. With --trace 1 it alternates untraced and
traced ops and replays each traced op's circuits gate by gate to get the
per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

COPY_REPEATS = 15
MODEL_REPEATS = 5


@dataclass
class OpResult:
    seconds: float
    problems: list = field(default_factory=list)
    mse: float | None = None


def _source_problems(hpqe, src: Path) -> list[str]:
    where = Path(hpqe.__file__).resolve().parent
    if where != (src / "hpqe").resolve():
        return [f"imported hpqe from {where}, not from the checkout"]
    return []


def _call(cli, argv) -> list[str]:
    """Run one CLI op; any exit code but 0, or an exception, is a problem."""
    try:
        code = cli.main(argv)
    except Exception:                        # the op failed; keep the loop going
        traceback.print_exc()
        return ["hpqe raised " + traceback.format_exc().splitlines()[-1]]
    return [] if code == 0 else [f"hpqe exited {code}"]


class Runner:
    """Runs and checks the ops of one workload at one seed."""

    def __init__(self, args):
        import hpqe
        import hpqe.cli
        self.hpqe = hpqe
        self.standing_problems = _source_problems(hpqe, Path(args.src))
        self.work = Path(args.out)
        self.wl = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        circuits = self.wl.circuits(args.seed)
        self.facts = [workloads.CircuitFacts(c.n, len(c.ops),
                                             hpqe.engine.cycle_report(c).total_cycles)
                      for c in circuits]
        self.gate_amps = sum(f.gates << f.n for f in self.facts)
        self.count = 0
        self.standing_problems += self._warm_up(max(f.n for f in self.facts))

    def _warm_up(self, n: int) -> list[str]:
        """One unmeasured op of the workload's kind on a 5-gate circuit at its n.

        The first op in a process otherwise pays up to 4 s of page faults
        while malloc settles on how to serve 8 MiB arrays; later ops do not.
        `bench` takes no circuit file, so the sweep warms up with `compare`.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        qc = self.work / "warmup.qc"
        qc.write_text(f"QUBITS {n}\nH 0\nRZ 0 0.5\nRY {n - 1} 0.5\nRZ {n - 1} 0.25\n"
                      f"CX 0 {n - 1}\n", encoding="utf-8")
        command = "run" if self.wl.argv(self.seed, self.work)[0] == "run" else "compare"
        problems = _call(self.hpqe.cli, [command, "--circuit", str(qc), "--n", str(n),
                                         "--workers", str(self.wl.workers),
                                         "--out", str(self.work / "warmup")])
        return [f"warm-up: {p}" for p in problems]

    def op(self, around=contextlib.nullcontext) -> OpResult:
        out = self.work / f"op{self.count}"
        self.count += 1
        shutil.rmtree(out, ignore_errors=True)
        argv = self.wl.argv(self.seed, out)
        with around():
            t0 = time.perf_counter()
            problems = _call(self.hpqe.cli, argv)
            seconds = time.perf_counter() - t0
        more, mse = self.wl.check(out, self.seed, self.facts)
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(seconds, self.standing_problems + problems + more, mse)


def _closed_loop(step, seconds: float, min_calls: int) -> None:
    """Call step() at least `min_calls` times, then until the next call
    would end after `seconds`."""
    start = time.perf_counter()
    calls = 0
    while calls < min_calls or (time.perf_counter() - start) * (calls + 1) / calls <= seconds:
        step()
        calls += 1


def end_to_end(runner: Runner, seconds: float) -> tuple[list, dict]:
    ops = []
    _closed_loop(lambda: ops.append(runner.op()), seconds, min_calls=2)
    # Other tenants of the host slow it by up to 40% for minutes at a time,
    # and never speed it up, so the fastest op is the steadiest estimate of
    # what the code costs; the median of a run moves with the host.
    wall = min([o.seconds for o in ops if not o.problems] or [o.seconds for o in ops])
    known = [o.mse for o in ops if o.mse is not None]
    metrics = {
        "wall_s": wall,
        "gate_amps_per_s": runner.gate_amps / wall,
        "mse_aligned": max(known) if known else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ops, metrics


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _traced_op(runner: Runner, tracer: tracing.Tracer) -> tuple[OpResult, dict]:
    """One traced op, its replay and the standalone model calls."""
    hpqe = runner.hpqe
    engine, perfmodel = hpqe.engine, hpqe.perfmodel
    runs: list = []
    tracer.op += 1

    @contextlib.contextmanager
    def around():
        with tracer.layers(hpqe, runs), tracer.span("op"):
            yield

    result = runner.op(around)
    stats = {p: tracing.PathStats() for p in tracing.PATHS}
    for run in runs:
        if not tracing.replay(tracer, run, engine, stats):
            result.problems.append(f"gate-by-gate replay of n={run.circuit.n} ended on "
                                   "another state than run_circuit")
    cycles = [engine.cycle_report(r.circuit, r.cfg).total_cycles for r in runs]
    if [r.report.total_cycles for r in runs] != cycles:
        result.problems.append("run_circuit cycle reports differ from cycle_report")

    finals = [r.final for r in runs]
    component = max(finals, key=lambda sv: sv.n).re
    copy_gbps = 2 * component.nbytes / _median_seconds(lambda: np.copy(component),
                                                       COPY_REPEATS) / 1e9
    spans = tracer.op_seconds(tracer.op)
    busy = sum(s.busy_s for s in stats.values())
    run_s = spans.get("engine.run_circuit", 0.0)
    gate_amps = sum(len(r.circuit.ops) << r.circuit.n for r in runs)
    ref_s = spans.get("oracle.ref_run", 0.0)
    layer = {}
    for path, s in stats.items():
        layer[f"engine.{path}.gates"] = s.gates
        layer[f"engine.{path}.busy_s"] = s.busy_s
        layer[f"engine.{path}.ns_per_amp"] = s.busy_s * 1e9 / s.amps if s.amps else 0.0
        layer[f"engine.{path}.bw_frac"] = (s.bytes / s.busy_s / (copy_gbps * 1e9)
                                           if s.busy_s else 0.0)
    layer.update({
        "engine.run_circuit_s": run_s,
        # self time needs the replay and run_circuit to run the same schedule
        "engine.self_s": run_s - busy if runner.wl.workers == 1 else 0.0,
        "engine.parallel_speedup": busy / run_s if run_s else 0.0,
        "engine.cycle_report_s": sum(
            _median_seconds(lambda r=r: engine.cycle_report(r.circuit, r.cfg), MODEL_REPEATS)
            for r in runs),
        "circuits.build_s": spans.get("circuits.build", 0.0),
        "circuits.gates": sum(len(r.circuit.ops) for r in runs),
        "circuits.gate_amps": gate_amps,
        "state.init_s": spans.get("state.init", 0.0),
        "state.dump_s": spans.get("state.dump", 0.0),
        "state.bytes": max(sv.re.nbytes + sv.im.nbytes for sv in finals),
        "oracle.ref_run_s": ref_s,
        "oracle.ns_per_amp": ref_s * 1e9 / gate_amps,
        "oracle.metrics_s": spans.get("oracle.metrics", 0.0),
        "perfmodel.estimate_s": sum(
            _median_seconds(lambda r=r: perfmodel.estimate_time(r.report, r.circuit.n, r.cfg),
                            MODEL_REPEATS) for r in runs),
        "perfmodel.modeled_cycles": sum(cycles),
        "perfmodel.modeled_time_s": sum(
            perfmodel.estimate_time(r.report, r.circuit.n, r.cfg).total_s for r in runs),
        "fxp.saturated_words": sum(
            int(np.count_nonzero((a == hpqe.fxp.RAW_MIN) | (a == hpqe.fxp.RAW_MAX)))
            for sv in finals for a in (sv.re, sv.im)),
        "fxp.norm_drift": max(abs(sv.norm_sq() - 1.0) for sv in finals),
        "host.copy_gbps": copy_gbps,
    })
    return result, layer


def per_layer(runner: Runner, seconds: float, tracer: tracing.Tracer) -> tuple[list, dict]:
    """Alternate untraced and traced ops; medians of the traced ops' layer values."""
    plain, traced, layers = [], [], []

    def pair():
        plain.append(runner.op())
        op, layer = _traced_op(runner, tracer)
        traced.append(op)
        layers.append(layer)

    _closed_loop(pair, seconds, min_calls=1)
    m = {k: statistics.median_low(layer[k] for layer in layers) for k in layers[0]}
    m["trace.overhead_s"] = (statistics.median(o.seconds for o in traced)
                             - statistics.median(o.seconds for o in plain))
    return plain + traced, m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="where to write the trace spans")
    args = p.parse_args(argv)
    runner = Runner(args)
    if args.trace:
        tracer = tracing.Tracer()
        ops, metrics = per_layer(runner, args.seconds, tracer)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    else:
        ops, metrics = end_to_end(runner, args.seconds)
    doc = {"ops": [asdict(o) for o in ops], "metrics": metrics}
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
