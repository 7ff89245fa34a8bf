"""hpqe benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload qft20_run --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; it imports hpqe from `src/` there and
exits 2 without a result if that tree is missing. Workloads, metric names
and units are listed in BENCHMARK.json; README.md next to this file says
why each was chosen and what it should move.

Every op's outputs are checked (see workloads.py). With --trace 0 the
workload runs in a fresh process with tracing off and the end-to-end
metrics are printed; `setup_s` is the median over several more fresh
processes. With --trace 1 the per-layer metrics are printed. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 14
DEADLINE_S = 170.0          # a run must end within 180 s
# numpy's BLAS pools would otherwise start one thread per core; the
# engine's own segment pool (--workers 2 at most) stays within nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class RunError(Exception):
    """The benchmark itself could not produce a result."""


def _child(script: str, args: list, src: Path, result: Path, deadline: float) -> dict:
    """Run one fresh benchmark process and return the JSON it wrote."""
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting " + script)
    try:
        # the child's own prints go to stderr, keeping stdout for the result
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                              stdout=sys.stderr.fileno(), timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{script} killed after {remaining:.0f} s") from None
    if proc.returncode != 0 or not result.is_file():
        raise RunError(f"{script} exited {proc.returncode} without a result")
    return json.loads(result.read_text(encoding="utf-8"))


def _setup_op(src: Path, work: Path, name: str, deadline: float) -> dict:
    """One set-up probe, checked like any other op."""
    out = work / name
    doc = _child("setup_probe.py", [str(out), str(out) + ".json"], src,
                 Path(str(out) + ".json"), deadline)
    problems = [] if doc["exit"] == 0 else [f"hpqe run: {doc['exit']}"]
    if Path(doc["hpqe"]).resolve().parent != (src / "hpqe").resolve():
        problems.append(f"imported hpqe from {doc['hpqe']}, not from the checkout")
    problems += workloads.check_digests(out, workloads.expected_digests("setup_qft3", 0))
    return {"seconds": doc["seconds"], "problems": problems}


def measure(args, root: Path, work: Path) -> dict:
    src = root / "src"
    deadline = time.monotonic() + DEADLINE_S
    failures = selftest.run(work)
    if failures:
        raise RunError("self-test of the output checks failed: " + "; ".join(failures))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    probes, values = [], {}
    if not args.trace:
        # the first fresh process also writes the bytecode caches; drop it
        _setup_op(src, work, "setup-prime", deadline)
        probes += [_setup_op(src, work, f"setup{i}", deadline)
                   for i in range(SETUP_PROBES // 2)]
    result = work / "workload.json"
    doc = _child("worker.py", ["--src", str(src), "--out", str(work / "workload"),
                               "--result", str(result), "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--spans",
                               str(root / ".bench_work" / f"spans-{args.workload}.json")],
                 src, result, deadline)
    if not args.trace:
        # the rest of the probes after the workload, so that setup_s samples
        # the machine at both ends of the run
        probes += [_setup_op(src, work, f"setup{i}", deadline)
                   for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        values["setup_s"] = statistics.median(p["seconds"] for p in probes)
    workload_ops = doc["ops"]
    ops = probes + workload_ops
    values.update(doc["metrics"])
    if set(values) != {m["name"] for m in wanted}:
        raise RunError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    failed = [o for o in ops if o["problems"]]
    for o in failed[:5]:
        print("failed op: " + "; ".join(o["problems"]), file=sys.stderr)
    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"{args.workload} seed={args.seed} {kind}: {len(workload_ops)} workload ops, "
          f"{len(ops) - len(workload_ops)} set-up ops, {len(failed)} failed, "
          f"error_rate={len(failed) / len(ops)!r}")
    print("  op seconds: " + " ".join(f"{o['seconds']:.3f}" for o in workload_ops))
    if not args.trace:
        median = statistics.median(o["seconds"] for o in workload_ops)
        print(f"  wall_s is the fastest of {len(workload_ops)} ops (their median is "
              f"{median:.4f} s); setup_s is the median of {SETUP_PROBES} fresh processes")
    for m in wanted:
        print(f"  {m['name']:32s} {values[m['name']]!r} {m['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hpqe" / "cli.py").is_file():
        print("error: no hpqe source at src/hpqe; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, root, work)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
