"""Analytic timing model: gate cycle costs, hybrid memory policy, NGS.

The CX swap schedule has an exact closed form; single-qubit gates use a
calibrated throughput model (pairs per cycle plus pipeline fill). The
memory policy keeps the state in on-chip BRAM up to 19 qubits and
switches to HBM at 20, paying a bulk load+store transfer per circuit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

HARD_QUBIT_LIMIT = 30   # device memory ceiling
AMPLITUDE_BYTES = 8     # complex amplitude = two 32-bit fixed-point words

BRAM = "BRAM"
HBM = "HBM"


class CapacityError(Exception):
    """Requested qubit count exceeds what the machine can hold."""


@dataclass(frozen=True)
class PerfConfig:
    freq_hz: float = 250e6
    pe_pairs_per_cycle: int = 8
    pipeline_fill: int = 4
    hbm_ports: int = 32
    bus_bytes_per_cycle_per_port: int = 32   # 256-bit bus per port
    hbm_setup_cycles: int = 200              # per-transaction calibration constant
    bram_qubit_limit: int = 19

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # annotations are strings here (postponed evaluation)
            kinds = (int, float) if f.type == "float" else (int,)
            if isinstance(value, bool) or not isinstance(value, kinds):
                want = "a number" if f.type == "float" else "an integer"
                raise ValueError(f"PerfConfig.{f.name} must be {want}, got {value!r}")
            # comparisons, not math.isfinite: a huge int must not overflow
            if not 0 < value < math.inf:
                raise ValueError(
                    f"PerfConfig.{f.name} must be positive and finite, got {value}")
            # every cycle count the model forms then stays a finite float
            if isinstance(value, int) and value > 1 << 53:
                raise ValueError(f"PerfConfig.{f.name} must be at most 2^53")
        # and every modeled time, cycles over the clock, stays one too
        if self.freq_hz < 1:
            raise ValueError(f"PerfConfig.freq_hz must be at least 1 Hz, got {self.freq_hz}")
        if self.bram_qubit_limit >= HARD_QUBIT_LIMIT:
            raise ValueError("bram_qubit_limit must be below the 30-qubit ceiling")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PerfConfig":
        """Parse a JSON object of field overrides; bad input is a ValueError."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("PerfConfig JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("PerfConfig JSON must be an object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown PerfConfig key(s): {', '.join(map(repr, unknown))}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "PerfConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


DEFAULT_CONFIG = PerfConfig()


@dataclass(frozen=True)
class TimeEstimate:
    compute_s: float
    transfer_s: float
    total_s: float
    ngs: float

    def to_dict(self) -> dict:
        return asdict(self)


def check_capacity(n: int) -> None:
    if n > HARD_QUBIT_LIMIT:
        raise CapacityError(
            f"{n} qubits exceeds the {HARD_QUBIT_LIMIT}-qubit memory ceiling")


def memory_mode(n: int, cfg: PerfConfig = DEFAULT_CONFIG) -> str:
    """BRAM below 20 qubits, HBM from 20 up to the 30-qubit ceiling."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    check_capacity(n)
    return BRAM if n <= cfg.bram_qubit_limit else HBM


def cycles_single(n: int, cfg: PerfConfig = DEFAULT_CONFIG) -> int:
    """Modeled cycles for one single-qubit gate over 2^(n-1) pairs."""
    pairs = 1 << (n - 1)
    return math.ceil(pairs / cfg.pe_pairs_per_cycle) + cfg.pipeline_fill


def transfer_overhead(n: int, cfg: PerfConfig = DEFAULT_CONFIG) -> int:
    """Cycles to stream the state in and back out over the HBM ports.

    The state is moved exactly twice per circuit (one load, one store),
    striped across all ports, plus a fixed setup cost per transaction.
    """
    if memory_mode(n, cfg) != HBM:
        raise ValueError(f"transfer_overhead undefined in BRAM mode (n={n})")
    state_bytes = (1 << n) * AMPLITUDE_BYTES
    bytes_per_cycle = cfg.hbm_ports * cfg.bus_bytes_per_cycle_per_port
    return 2 * math.ceil(state_bytes / bytes_per_cycle) + 2 * cfg.hbm_setup_cycles


def ngs(time_s: float, gate_count: int, n: int) -> float:
    """Normalized gate speed: seconds per (gate x amplitude), lower is better."""
    if gate_count < 1:
        raise ValueError("gate_count must be >= 1")
    return time_s / (gate_count * (1 << n))


def estimate_time(report, n: int, cfg: PerfConfig = DEFAULT_CONFIG) -> TimeEstimate:
    """Wall-time prediction for a cycle report at the configured clock."""
    if report.n != n:
        raise ValueError(f"report was produced for n={report.n}, not n={n}")
    compute_s = report.total_cycles / cfg.freq_hz
    if memory_mode(n, cfg) == HBM:
        transfer_s = transfer_overhead(n, cfg) / cfg.freq_hz
    else:
        transfer_s = 0.0
    total_s = compute_s + transfer_s
    gate_count = len(report.per_gate)
    value = ngs(total_s, gate_count, n) if gate_count else 0.0
    return TimeEstimate(compute_s=compute_s, transfer_s=transfer_s,
                        total_s=total_s, ngs=value)
