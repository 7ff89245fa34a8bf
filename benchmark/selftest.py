"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Feeds the checks one sweep row with an error cell and one state with a
flipped bit, and asserts that both make the op fail. run.py runs it
before every measurement, so a benchmark whose checks pass everything
never reports a number.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads


def _facts_from_csv(text: str) -> list:
    return [workloads.CircuitFacts(int(r["n"]), int(r["gates_total"]), int(r["total_cycles"]))
            for r in csv.DictReader(io.StringIO(text))]


def _inject_error_row(text: str, label: str) -> str:
    """The row `hpqe bench` writes when a circuit raises mid-sweep."""
    rows = list(csv.DictReader(io.StringIO(text)))
    columns = list(rows[0])
    for row in rows:
        if row["circuit"] == label:
            for col in columns[2:]:
                row[col] = ""
            row["error"] = "RuntimeError: injected"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _qft_dump(n: int, k: int) -> bytes:
    """state.bin of QFT|k>, each word rounded from the closed form."""
    size = 1 << n
    j = np.arange(size)
    amps = np.exp(2j * np.pi * ((j * k) % size) / size) / math.sqrt(size)
    words = np.empty(2 * size, dtype="<i4")
    words[0::2] = np.rint(amps.real * (1 << workloads.FRAC_BITS))
    words[1::2] = np.rint(amps.imag * (1 << workloads.FRAC_BITS))
    return workloads.DUMP_MAGIC + bytes([1, n]) + words.tobytes()


def _flip(data: bytes, word: int, bit: int) -> bytes:
    out = bytearray(data)
    out[6 + 4 * word + bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def run(scratch: Path) -> list[str]:
    """Failures of the self-test; an empty list means every check held."""
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    sweep = workloads.WORKLOADS["qft_sweep"]
    recorded = (workloads.HERE / "expected" / "qft_sweep.bench.csv").read_text(encoding="utf-8")
    facts = _facts_from_csv(recorded)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp)
        (out / "bench.csv").write_text(recorded, encoding="utf-8")
        problems, _ = workloads.check_sweep_rows(recorded.encode(), facts)
        expect(not problems, f"recorded bench.csv should pass, got {problems}")
        expect(workloads.sha256(recorded.encode())
               == workloads.DIGESTS["qft_sweep"]["any_seed"]["bench.csv"],
               "recorded bench.csv does not match its digest")

        (out / "bench.csv").write_text(_inject_error_row(recorded, "qft-7"), encoding="utf-8")
        problems, _ = sweep.check(out, 0, facts)
        expect(any("error cell" in p for p in problems),
               f"a sweep row with an error cell must fail the op, got {problems}")

        good = _qft_dump(4, 5)
        (out / "state.bin").write_bytes(good)
        expected = {"state.bin": workloads.sha256(good)}
        problems, _ = workloads.check_qft_state(good, 4, 5, gates=1)
        expect(not problems and not workloads.check_digests(out, expected),
               f"the exact QFT state should pass, got {problems}")

        (out / "state.bin").write_bytes(_flip(good, word=3, bit=0))
        expect(bool(workloads.check_digests(out, expected)),
               "a state with one flipped bit must fail the digest check")
        problems, _ = workloads.check_qft_state(_flip(good, word=3, bit=28), 4, 5, gates=1)
        expect(bool(problems), "a state with a flipped high bit must fail the MSE bound")
    return failures


if __name__ == "__main__":
    root = Path.cwd() / ".bench_work"
    root.mkdir(exist_ok=True)
    found = run(root)
    for f in found:
        print("FAIL:", f)
    print("selftest:", "ok" if not found else f"{len(found)} failure(s)")
    sys.exit(1 if found else 0)
