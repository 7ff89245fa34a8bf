"""Benchmark harness: generate circuits, run both engines, emit tables.

Commands:
  run         fixed-point execution -> state dump + cycle/time reports
  compare     fixed-point vs reference -> fidelity/MSE metrics
  bench       sweep a generator over a qubit range -> CSV/JSON rows
  gen         emit a circuit in the text format
  cx-compare  legacy vs pipelined CX cycle table

Exit codes: 0 success, 2 usage error (bad options, an empty --n range,
an --init outside the state), 3 capacity error (a qubit count past the
ceiling, or an allocation the host refuses), 4 I/O or input parse
error (including a bad --config). An exit 2 prints the usage line and
one error line; an exit 3 or 4 prints one line. Every error line holds
at most ERROR_LINE_MAX characters, however long the input it quotes.
All outputs are deterministic for a fixed seed and config; the modeled
device time and the emulator's own wall clock are reported in separate
columns and never mixed.

`compare` runs the fixed-point engine on one helper thread while the
double-precision oracle runs on the calling thread: the two share no
data, and the engine's native kernels release the GIL. Its engine gets
at most one thread fewer than the cores the process may use
(`compare_workers`), so that the oracle keeps a core. `bench` keeps
the two one after the other, because its wall_clock_s times the engine
alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import circuits, engine, gateset, oracle, perfmodel, state
from .perfmodel import CapacityError

GENERATORS = ("qft", circuits.CHAIN, circuits.ALTERNATING,
              circuits.ALL_TO_ALL, circuits.ROTATION)

BENCH_COLUMNS = ("circuit", "n", "gates_total", "gates_cx", "gates_single",
                 "total_cycles", "predicted_time_s", "ngs", "fidelity",
                 "mse_raw", "mse_aligned", "wall_clock_s", "error")


# an error line's length cap: a message may quote a long input, and it
# leads with what the reader needs (the line number or PerfConfig field)
ERROR_LINE_MAX = 200


class UsageError(Exception):
    """Options that parse but cannot be used together; exits 2."""


def _load_config(path: str | None) -> perfmodel.PerfConfig:
    if path is None:
        return perfmodel.DEFAULT_CONFIG
    return perfmodel.PerfConfig.load(path)


def _angles_for(kind: str, n: int, layers: int, seed: int):
    slots = circuits.rotation_slots(kind, n, layers)
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, slots)


def _generate(gen: str, n: int, layers: int, seed: int):
    if gen == "qft":
        return f"qft-{n}", circuits.qft(n)
    label = f"{gen}-{n}x{layers}"
    return label, circuits.template(gen, n, layers, _angles_for(gen, n, layers, seed))


def _build_circuit(args):
    # the circuit of `run` and `compare`; its qubit count passes the
    # capacity checks before anything of size 2^n is built
    if args.circuit is not None:
        text = Path(args.circuit).read_text(encoding="utf-8")
        circuit = gateset.circuit_from_text(text, n=args.n)
        state.check_capacity(circuit.n, args.max_qubits)
        return Path(args.circuit).stem, circuit
    if args.gen is None:
        raise ValueError("either --gen or --circuit is required")
    if args.n is None:
        raise ValueError("--n is required with --gen")
    state.check_capacity(args.n, args.max_qubits)
    return _generate(args.gen, args.n, args.layers, args.seed)


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_range(spec: str):
    lo, sep, hi = spec.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise UsageError(
            f"--n must be an integer or a range a..b, got {spec!r}") from None
    if hi < lo:
        raise UsageError(f"--n range {spec!r} is empty")
    return range(lo, hi + 1)


def _check_init(init: int, n: int) -> None:
    if not 0 <= init < (1 << n):
        raise UsageError(f"--init {init} out of range for n={n} (0..{(1 << n) - 1})")


def cmd_run(args) -> int:
    label, circuit = _build_circuit(args)
    _check_init(args.init, circuit.n)
    cfg = _load_config(args.config)
    sv = state.init_basis(circuit.n, args.init, max_qubits=args.max_qubits)
    sv, report = engine.run_circuit(sv, circuit, cfg, workers=args.workers)
    estimate = perfmodel.estimate_time(report, circuit.n, cfg)
    out = _out_dir(args)
    with open(out / "state.bin", "wb") as fh:
        sv.dump(fh)
    (out / "cycles.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "time.json").write_text(
        json.dumps(estimate.to_dict(), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")
    print(f"{label}: n={circuit.n} gates={len(circuit.ops)} "
          f"cycles={report.total_cycles} modeled_time={estimate.total_s:.6g}s "
          f"mem={report.mem_mode}")
    return 0


def compare_workers(requested: int) -> int:
    """The engine's threads in `compare`: `requested`, but at most one
    fewer than the cores this process may use (`os.sched_getaffinity`,
    or `os.cpu_count` where that is missing), and at least one. The
    oracle runs beside the engine and keeps the remaining core."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return min(requested, max(1, cores - 1))


def cmd_compare(args) -> int:
    label, circuit = _build_circuit(args)
    _check_init(args.init, circuit.n)
    cfg = _load_config(args.config)
    sv = state.init_basis(circuit.n, args.init, max_qubits=args.max_qubits)
    with ThreadPoolExecutor(max_workers=1) as pool:
        run = pool.submit(engine.run_circuit, sv, circuit, cfg,
                          workers=compare_workers(args.workers))
        try:
            ref = oracle.ref_run(circuit, oracle.basis_state(circuit.n, args.init))
        finally:
            # an engine error outranks the oracle's, as when they ran in turn
            sv, _ = run.result()
    result = oracle.metrics(ref, sv)
    doc = result.to_json(n=circuit.n, gates=len(circuit.ops))
    out = _out_dir(args)
    (out / "metrics.json").write_text(doc + "\n", encoding="utf-8")
    print(doc)
    return 0


def _bench_row(gen: str, n: int, args, cfg) -> dict:
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row["circuit"] = f"{gen}-{n}"
    row["n"] = n
    try:
        state.check_capacity(n, args.max_qubits)
        label, circuit = _generate(gen, n, args.layers, args.seed)
        row["circuit"] = label
        total, n_cx, n_single = circuits.gate_count(circuit)
        row["gates_total"], row["gates_cx"], row["gates_single"] = total, n_cx, n_single
        sv = state.init_basis(n, 0, max_qubits=args.max_qubits)
        t0 = time.perf_counter()
        sv, report = engine.run_circuit(sv, circuit, cfg, workers=args.workers)
        wall = time.perf_counter() - t0
        estimate = perfmodel.estimate_time(report, n, cfg)
        ref = oracle.ref_run(circuit, oracle.basis_state(n, 0))
        result = oracle.metrics(ref, sv)
        row["total_cycles"] = report.total_cycles
        row["predicted_time_s"] = repr(estimate.total_s)
        row["ngs"] = repr(estimate.ngs)
        row["fidelity"] = repr(result.fidelity)
        row["mse_raw"] = repr(result.mse_raw)
        row["mse_aligned"] = repr(result.mse_aligned)
        if not args.no_wall_clock:
            row["wall_clock_s"] = repr(wall)
    except (CapacityError, MemoryError, ValueError) as exc:  # record it, keep sweeping
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _cx_table(n_range) -> list:
    rows = []
    for n in n_range:
        legacy = engine.cx_cycles_legacy(n)
        new = engine.cx_cycles(n)
        rows.append({"n": n, "legacy_cycles": legacy, "new_cycles": new,
                     "ratio": repr(legacy / new)})
    return rows


def _write_table(rows, columns, fmt: str, path: Path) -> None:
    if fmt == "json":
        text = json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    path.write_text(text, encoding="utf-8")


def cmd_bench(args) -> int:
    n_range = _parse_range(args.n)
    cfg = _load_config(args.config)
    rows = [_bench_row(args.gen, n, args, cfg) for n in n_range]
    out = _out_dir(args)
    ext = "json" if args.format == "json" else "csv"
    _write_table(rows, BENCH_COLUMNS, args.format, out / f"bench.{ext}")
    # CX needs two qubits: the CX table keeps the n >= 2 of the range
    _write_table(_cx_table(n for n in n_range if n >= 2),
                 ("n", "legacy_cycles", "new_cycles", "ratio"),
                 args.format, out / f"cx_compare.{ext}")
    failed = sum(1 for r in rows if r["error"])
    print(f"bench: {len(rows)} rows ({failed} failed) -> {out / f'bench.{ext}'}")
    return 0


def cmd_gen(args) -> int:
    label, circuit = _generate(args.generator, args.n, args.layers, args.seed)
    text = gateset.circuit_to_text(circuit)
    if args.out:
        out = _out_dir(args)
        (out / f"{label}.qc").write_text(text, encoding="utf-8")
        print(f"wrote {out / f'{label}.qc'}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_cx_compare(args) -> int:
    n_range = _parse_range(args.n)
    if n_range[0] < 2:
        raise UsageError(f"--n {args.n!r}: CX requires n >= 2")
    rows = _cx_table(n_range)
    out = _out_dir(args)
    ext = "json" if args.format == "json" else "csv"
    path = out / f"cx_compare.{ext}"
    _write_table(rows, ("n", "legacy_cycles", "new_cycles", "ratio"),
                 args.format, path)
    print(f"cx-compare: {len(rows)} rows -> {path}")
    return 0


def _add_common(p, with_n: bool = True) -> None:
    if with_n:
        p.add_argument("--n", type=int, default=None, help="qubit count")
    p.add_argument("--seed", type=int, default=0, help="seed for template angles")
    p.add_argument("--config", default=None, help="PerfConfig JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--layers", type=int, default=1, help="template layers")
    p.add_argument("--max-qubits", type=int, default=state.MAX_QUBITS_DEFAULT,
                   help="desk-scale qubit ceiling")
    p.add_argument("--workers", type=int, default=1, choices=(1, 2, 4, 8),
                   help="threads that share each gate (bit-identical results); "
                        "compare uses at most one fewer than the usable cores, "
                        "so that its oracle keeps one")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error line is cut like `_print_error`'s;
    its subparsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        _print_error(f"{self.prog}: error: {message}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hpqe", description="Fixed-point state-vector emulator harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the fixed-point engine")
    p.add_argument("--gen", choices=GENERATORS, default=None)
    p.add_argument("--circuit", default=None, help="circuit text file")
    p.add_argument("--init", type=int, default=0, help="initial basis index")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="fixed-point vs reference metrics")
    p.add_argument("--gen", choices=GENERATORS, default=None)
    p.add_argument("--circuit", default=None)
    p.add_argument("--init", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="sweep a generator over a qubit range")
    p.add_argument("--gen", choices=GENERATORS, required=True)
    p.add_argument("--n", required=True, help="qubit count or range a..b")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-wall-clock", action="store_true",
                   help="omit wall clock for byte-identical reruns")
    _add_common(p, with_n=False)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="emit a circuit in the text format")
    p.add_argument("generator", choices=GENERATORS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cx-compare", help="legacy vs pipelined CX cycles")
    p.add_argument("--n", required=True, help="qubit count or range a..b")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cx_compare)

    return parser


def _print_error(line: str) -> None:
    if len(line) > ERROR_LINE_MAX:
        line = line[:ERROR_LINE_MAX - 3] + "..."
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))        # prints usage, exits 2
    except (CapacityError, MemoryError) as exc:
        _print_error(f"capacity error: {exc}")
        return 3
    except (OSError, ValueError) as exc:
        _print_error(f"error: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
