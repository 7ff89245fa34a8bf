"""The hpqe functions that benchmark/tracing.py and benchmark/worker.py
call, called as they call them: a traced CLI op replays gate by gate to
the state its `run_circuit` call ended on, and the captured runs feed
`cycle_report` and `estimate_time`. The benchmark's files are imported,
never changed."""

import sys
from pathlib import Path

import pytest

import hpqe
import hpqe.cli
from hpqe import engine, perfmodel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
import tracing  # noqa: E402

COMMANDS = (
    "run --gen qft --n 6 --init 5",
    "compare --gen chain --n 6 --layers 2 --workers 2",
)


@pytest.mark.parametrize("command", COMMANDS)
def test_traced_op_replays_and_models(command, tmp_path):
    tracer, runs = tracing.Tracer(), []
    original = engine.run_circuit
    with tracer.layers(hpqe, runs):
        assert hpqe.cli.main([*command.split(), "--out", str(tmp_path)]) == 0
    assert engine.run_circuit is original
    assert runs and "engine.run_circuit" in tracer.op_seconds(0)
    stats = {p: tracing.PathStats() for p in tracing.PATHS}
    for r in runs:
        assert tracing.replay(tracer, r, engine, stats)
        n = r.circuit.n
        assert engine.cycle_report(r.circuit, r.cfg).total_cycles == r.report.total_cycles
        assert perfmodel.estimate_time(r.report, n, r.cfg).total_s > 0
    assert sum(s.gates for s in stats.values()) == sum(len(r.circuit.ops) for r in runs)
