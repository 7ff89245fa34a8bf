"""The benchmark's workloads and the checks made on every op's outputs.

Each workload is one `hpqe` CLI flow, run through `hpqe.cli.main` by one
client in a closed loop: the next op starts when the previous one ended.
Why each workload was chosen, and which per-layer numbers it should
move, is written down in README.md next to this file.

The checks here never import hpqe: they read the files an op wrote and
compare them with digests recorded from a known-good commit, with
closed forms, or with counts the caller computed through hpqe's own
public API. That keeps them usable by the self-test without a source
tree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "expected" / "digests.json").read_text(encoding="utf-8"))

# Where no recorded digest applies, the per-amplitude phase-aligned MSE
# against a double-precision reference may reach 2^-50 per gate. Q2.30
# rounding adds about 2^-62 per gate (chain-20 reads 2.9e-17 after 177
# gates), while a wrong coefficient or a mis-addressed pair costs more
# than 1e-8, so the bound separates the two by orders of magnitude.
MSE_PER_GATE_BOUND = 2.0 ** -50
FIDELITY_TOL = 1e-6

FRAC_BITS = 30            # Q2.30 words, as documented for state.bin
DUMP_MAGIC = b"HPQE"

SWEEP_N = range(3, 15)


@dataclass(frozen=True)
class CircuitFacts:
    """What the caller learned about one circuit through hpqe's API."""
    n: int
    gates: int
    total_cycles: int


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int

    def argv(self, seed: int, out: Path) -> list[str]:
        if self.name == "qft20_run":
            return ["run", "--gen", "qft", "--n", "20", "--init", str(qft20_init(seed)),
                    "--workers", "1", "--out", str(out)]
        if self.name == "chain20_compare":
            return ["compare", "--gen", "chain", "--n", "20", "--layers", "3",
                    "--seed", str(seed), "--workers", "2", "--out", str(out)]
        return ["bench", "--gen", "qft", "--n", f"{SWEEP_N.start}..{SWEEP_N.stop - 1}",
                "--no-wall-clock", "--out", str(out)]

    def circuits(self, seed: int) -> list:
        """The op's circuits, built through hpqe's public generators."""
        from hpqe import circuits
        if self.name == "qft20_run":
            return [circuits.qft(20)]
        if self.name == "chain20_compare":
            # the CLI draws template angles from --seed this way; angles
            # change neither the gate count nor the modeled cycles
            rng = np.random.default_rng(seed)
            angles = rng.uniform(0.0, 2.0 * np.pi, circuits.rotation_slots("chain", 20, 3))
            return [circuits.template("chain", 20, 3, angles)]
        return [circuits.qft(n) for n in SWEEP_N]

    def check(self, out: Path, seed: int, facts: list[CircuitFacts]):
        """Problems found in one op's outputs, and its worst aligned MSE
        (None when no output could be read)."""
        problems = check_digests(out, expected_digests(self.name, seed))
        if self.name == "qft20_run":
            (f,) = facts
            more, mse = check_qft_state(_read(out / "state.bin"), f.n,
                                        qft20_init(seed), f.gates)
            problems += more + check_cycles_json(_read(out / "cycles.json"), f)
        elif self.name == "chain20_compare":
            (f,) = facts
            more, mse = check_compare_metrics(_read(out / "metrics.json"), f)
            problems += more
        else:
            more, mse = check_sweep_rows(_read(out / "bench.csv"), facts)
            problems += more
        return problems, mse


WORKLOADS = {w.name: w for w in (Workload("qft20_run", 1),
                                 Workload("chain20_compare", 2),
                                 Workload("qft_sweep", 1))}


def qft20_init(seed: int) -> int:
    """Initial basis index: 0 at the default seed, else drawn from it."""
    if seed == 0:
        return 0
    return int(np.random.default_rng(seed).integers(1, 1 << 20))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def expected_digests(key: str, seed: int) -> dict:
    """Recorded digests of the files whose input this seed leaves unchanged."""
    expected = dict(DIGESTS[key]["any_seed"])
    if seed == 0:
        expected.update(DIGESTS[key]["seed0"])
    return expected


def check_digests(out: Path, expected: dict) -> list[str]:
    """Compare output files with their expected sha256 digests."""
    problems = []
    for name, digest in sorted(expected.items()):
        data = _read(out / name)
        if data is None:
            problems.append(f"{name}: missing")
        elif sha256(data) != digest:
            problems.append(f"{name}: sha256 differs from the recorded output")
    return problems


def parse_dump(data: bytes | None, n: int):
    """The raw (re, im) int32 words of a state.bin, or a problem string."""
    if data is None:
        return None, "state.bin: missing"
    if data[:4] != DUMP_MAGIC or len(data) < 6 or data[4] != 1 or data[5] != n:
        return None, "state.bin: bad header"
    if len(data) != 6 + 8 * (1 << n):
        return None, "state.bin: wrong length"
    return np.frombuffer(data, dtype="<i4", offset=6), None


def qft_aligned_mse(words: np.ndarray, n: int, k: int, chunk: int = 1 << 16) -> float:
    """Per-amplitude MSE of a dumped state against QFT|k>, after the best
    global phase.

    QFT|k> has the closed form exp(2 pi i j k / 2^n) / sqrt(2^n). The state
    is read in chunks, so that the check adds little to the peak RSS that
    the op itself set.
    """
    size = 1 << n

    def pieces():
        for lo in range(0, size, chunk):
            j = np.arange(lo, min(lo + chunk, size), dtype=np.int64)
            ref = np.exp(2j * np.pi * ((j * k) % size) / size) / math.sqrt(size)
            w = words[2 * lo:2 * (lo + j.size)].astype(np.float64) / (1 << FRAC_BITS)
            yield ref, w[0::2] + 1j * w[1::2]

    overlap = sum(np.sum(ref * np.conj(amps)) for ref, amps in pieces())
    rotate = np.exp(1j * np.angle(overlap)) if abs(overlap) > 0 else 1.0
    return float(sum(np.sum(np.abs(ref - rotate * amps) ** 2)
                     for ref, amps in pieces())) / size


def check_qft_state(data: bytes | None, n: int, k: int, gates: int):
    words, problem = parse_dump(data, n)
    if problem:
        return [problem], None
    mse = qft_aligned_mse(words, n, k)
    if not mse <= gates * MSE_PER_GATE_BOUND:
        return [f"state.bin: aligned MSE {mse:.3g} vs QFT|{k}> above bound"], mse
    return [], mse


def check_cycles_json(data: bytes | None, facts: CircuitFacts) -> list[str]:
    try:
        doc = json.loads(data)
    except (TypeError, ValueError):
        return ["cycles.json: unreadable"]
    if doc.get("total_cycles") != facts.total_cycles:
        return [f"cycles.json: total_cycles {doc.get('total_cycles')} != "
                f"cycle_report {facts.total_cycles}"]
    if len(doc.get("gates", ())) != facts.gates:
        return ["cycles.json: per-gate list has the wrong length"]
    return []


def check_compare_metrics(data: bytes | None, facts: CircuitFacts):
    try:
        doc = json.loads(data)
        fid, mse, raw = (float(doc[k]) for k in ("fidelity", "mse_aligned", "mse_raw"))
    except (TypeError, ValueError, KeyError):
        return ["metrics.json: unreadable"], None
    problems = []
    if doc.get("n") != facts.n or doc.get("gates") != facts.gates:
        problems.append("metrics.json: wrong n or gate count")
    if not abs(fid - 1.0) <= FIDELITY_TOL:
        problems.append(f"metrics.json: fidelity {fid!r} off by more than {FIDELITY_TOL}")
    if not (mse <= facts.gates * MSE_PER_GATE_BOUND and mse <= raw):
        problems.append(f"metrics.json: mse_aligned {mse!r} out of bounds")
    return problems, mse


def check_sweep_rows(data: bytes | None, facts: list[CircuitFacts]):
    """Every row must be error-free, match its circuit and stay accurate.

    `hpqe bench` records any exception in a row's `error` cell and still
    exits 0, so a row with an error fails the op here.
    """
    if data is None:
        return ["bench.csv: missing"], None
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8", "replace"))))
    if len(rows) != len(facts):
        return [f"bench.csv: {len(rows)} rows, expected {len(facts)}"], None
    problems, worst = [], None
    for row, f in zip(rows, facts):
        label = row.get("circuit", "?")
        if row.get("error"):
            problems.append(f"bench.csv {label}: error cell {row['error']!r}")
            continue
        try:
            n, gates, cycles = int(row["n"]), int(row["gates_total"]), int(row["total_cycles"])
            mse = float(row["mse_aligned"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"bench.csv {label}: unreadable row")
            continue
        if (n, gates, cycles) != (f.n, f.gates, f.total_cycles):
            problems.append(f"bench.csv {label}: n/gates/cycles differ from cycle_report")
        if not mse <= gates * MSE_PER_GATE_BOUND:
            problems.append(f"bench.csv {label}: mse_aligned {mse!r} out of bounds")
        worst = mse if worst is None else max(worst, mse)
    return problems, worst
