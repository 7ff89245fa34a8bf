import csv
import json
import threading
import tracemalloc

import numpy as np
import pytest

from hpqe import cli, engine, fxp, gateset, oracle, state
from hpqe.perfmodel import CapacityError


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestRun:
    def test_qft4_dump(self, tmp_path):
        code = run_cli("run", "--gen", "qft", "--n", 4, "--init", 0,
                       "--out", tmp_path)
        assert code == 0
        sv = state.load((tmp_path / "state.bin").read_bytes())
        assert sv.n == 4
        mags = np.abs(sv.to_complex())
        assert np.abs(mags - 0.25).max() < 1e-6        # uniform magnitudes
        cycles = json.loads((tmp_path / "cycles.json").read_text())
        assert cycles["n"] == 4 and cycles["mem_mode"] == "BRAM"
        timing = json.loads((tmp_path / "time.json").read_text())
        assert timing["total_s"] == pytest.approx(
            cycles["total_cycles"] / 250e6)

    def test_memory_mode_follows_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bram_qubit_limit": 5}')
        assert run_cli("run", "--gen", "qft", "--n", 8, "--config", cfg,
                       "--out", tmp_path) == 0
        assert capsys.readouterr().out.rstrip().endswith("mem=HBM")
        cycles = json.loads((tmp_path / "cycles.json").read_text())
        timing = json.loads((tmp_path / "time.json").read_text())
        assert cycles["mem_mode"] == "HBM"
        assert timing["transfer_s"] > 0

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        assert run_cli("run", "--gen", "qft", "--n", 31, "--out", tmp_path) == 3
        assert "capacity" in capsys.readouterr().err.lower()

    def test_empty_circuit_file(self, tmp_path):
        qc = tmp_path / "empty.qc"
        qc.write_text("# nothing here\n")
        code = run_cli("run", "--circuit", qc, "--n", 3, "--out", tmp_path)
        assert code == 0
        sv = state.load((tmp_path / "state.bin").read_bytes())
        assert sv.dump() == state.init_basis(3, 0).dump()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        qc = tmp_path / "bad.qc"
        qc.write_text("QUBITS 2\nWOBBLE 0\n")
        assert run_cli("run", "--circuit", qc, "--out", tmp_path) == 4
        capsys.readouterr()

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli("run", "--circuit", tmp_path / "nope.qc",
                       "--out", tmp_path) == 4

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--gen", "nonsense", "--n", 3)
        assert exc.value.code == 2


class TestCompare:
    def test_identity_circuit(self, tmp_path):
        qc = tmp_path / "id.qc"
        qc.write_text("QUBITS 2\n")
        assert run_cli("compare", "--circuit", qc, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["fidelity"] == 1.0
        assert doc["mse_raw"] == 0.0 and doc["mse_aligned"] == 0.0

    def test_bell_circuit(self, tmp_path):
        qc = tmp_path / "bell.qc"
        qc.write_text("QUBITS 2\nH 0\nCX 0 1\n")
        assert run_cli("compare", "--circuit", qc, "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert abs(doc["fidelity"] - 1.0) <= 2.0 ** -28

    def test_qft8(self, tmp_path):
        assert run_cli("compare", "--gen", "qft", "--n", 8,
                       "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["fidelity"] >= 0.9999
        assert doc["n"] == 8 and doc["gates"] == 160


class TestCompareOverlap:
    """compare runs the engine on a helper thread beside the oracle."""

    def test_engine_and_oracle_in_flight_together(self, tmp_path, monkeypatch):
        started = {"engine": threading.Event(), "oracle": threading.Event()}
        met = {}

        def meets(name, other, orig):
            def wrapped(*args, **kwargs):
                started[name].set()
                met[name] = started[other].wait(timeout=5)
                return orig(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli.engine, "run_circuit",
                            meets("engine", "oracle", engine.run_circuit))
        monkeypatch.setattr(cli.oracle, "ref_run",
                            meets("oracle", "engine", oracle.ref_run))
        assert run_cli("compare", "--gen", "qft", "--n", 4, "--out", tmp_path) == 0
        assert met == {"engine": True, "oracle": True}

    @pytest.mark.parametrize("argv", [
        ("--gen", "chain", "--n", 10, "--layers", 3, "--workers", 1),
        ("--gen", "chain", "--n", 10, "--layers", 3, "--workers", 2),
        ("--gen", "qft", "--n", 8, "--workers", 1),
    ])
    def test_metrics_match_sequential_composition(self, tmp_path, argv):
        assert run_cli("compare", *argv, "--out", tmp_path) == 0
        args = cli.build_parser().parse_args(["compare", *map(str, argv)])
        _, circuit = cli._build_circuit(args)
        sv, _ = engine.run_circuit(state.init_basis(circuit.n, 0), circuit,
                                   workers=args.workers)
        ref = oracle.ref_run(circuit, oracle.basis_state(circuit.n, 0))
        doc = oracle.metrics(ref, sv).to_json(n=circuit.n, gates=len(circuit.ops))
        assert (tmp_path / "metrics.json").read_text(encoding="utf-8") == doc + "\n"

    @pytest.mark.parametrize("cores, requested, used", (
        (2, 2, 1), (2, 1, 1), (1, 4, 1), (3, 8, 2), (8, 4, 4), (9, 8, 8)))
    def test_engine_keeps_a_core_for_the_oracle(self, tmp_path, monkeypatch,
                                                 cores, requested, used):
        # the engine gets at most one thread fewer than the usable cores;
        # a run_circuit that records its workers starts no thread of its own
        seen = []

        def record(sv, circuit, cfg, workers):
            seen.append(workers)
            return sv, engine.cycle_report(circuit, cfg)

        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(cli.engine, "run_circuit", record)
        assert run_cli("compare", "--gen", "qft", "--n", 3, "--workers", requested,
                       "--out", tmp_path) == 0
        assert seen == [used]
        # without sched_getaffinity the count comes from os.cpu_count
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert cli.compare_workers(requested) == used
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli.compare_workers(requested) == 1

    def test_engine_pool_takes_every_granted_thread(self, tmp_path, monkeypatch):
        # on 4 usable cores the engine gets 3 threads, and from
        # SPLIT_MIN_AMPS amplitudes up its pool has all 3
        pools = []
        real = engine.ThreadPoolExecutor

        def recording(*args, **kwargs):
            pools.append(kwargs.get("max_workers", args[0] if args else None))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(engine, "ThreadPoolExecutor", recording)
        assert (1 << 16) >= engine.SPLIT_MIN_AMPS
        assert run_cli("compare", "--gen", "chain", "--n", 16, "--workers", 4,
                       "--out", tmp_path) == 0
        assert pools == [3]

    def test_peak_is_engine_words_and_oracle_state(self, tmp_path):
        # 40 B/amp: the engine's basis words (8), the oracle's basis
        # state (16) and its result (16), plus blocks; the engine's
        # words are read by the metrics, never converted whole. The
        # numpy kernel bodies add int64 scratch of their own
        if fxp.native_kernels() is None:
            pytest.skip("the native kernels cannot be built or loaded on this host")
        n = 18
        tracemalloc.start()
        try:
            assert run_cli("compare", "--gen", "chain", "--n", n, "--layers", 3,
                           "--workers", 2, "--out", tmp_path) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * (1 << n) + (3 << 20)

    def test_engine_error_outranks_oracle_error(self, tmp_path, monkeypatch, capsys):
        oracle_failed = threading.Event()

        def engine_fails(*args, **kwargs):
            # raise only once the oracle has already raised
            assert oracle_failed.wait(timeout=5)
            raise CapacityError("engine out of room")

        def oracle_fails(*args, **kwargs):
            oracle_failed.set()
            raise ValueError("oracle broke")

        monkeypatch.setattr(cli.engine, "run_circuit", engine_fails)
        monkeypatch.setattr(cli.oracle, "ref_run", oracle_fails)
        assert run_cli("compare", "--gen", "qft", "--n", 3, "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert err == "capacity error: engine out of room\n"
        assert not (tmp_path / "metrics.json").exists()

    def test_oracle_error_alone_exits_4(self, tmp_path, monkeypatch, capsys):
        def oracle_fails(*args, **kwargs):
            raise ValueError("oracle broke")

        monkeypatch.setattr(cli.oracle, "ref_run", oracle_fails)
        assert run_cli("compare", "--gen", "qft", "--n", 3, "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err == "error: oracle broke\n"      # one line, no traceback
        assert not (tmp_path / "metrics.json").exists()


class TestBench:
    def read_rows(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_qft_sweep(self, tmp_path):
        assert run_cli("bench", "--gen", "qft", "--n", "3..5",
                       "--out", tmp_path) == 0
        rows = self.read_rows(tmp_path / "bench.csv")
        assert [r["n"] for r in rows] == ["3", "4", "5"]
        for row in rows:
            assert row["error"] == ""
            n = int(row["n"])
            ngs = float(row["ngs"])
            recomputed = float(row["predicted_time_s"]) / (
                int(row["gates_total"]) * 2 ** n)
            assert f"{ngs:.3g}" == f"{recomputed:.3g}"
            assert float(row["fidelity"]) > 0.9999
            assert float(row["wall_clock_s"]) > 0
        cx_rows = self.read_rows(tmp_path / "cx_compare.csv")
        assert [r["n"] for r in cx_rows] == ["3", "4", "5"]
        assert int(cx_rows[0]["legacy_cycles"]) == 10
        assert int(cx_rows[0]["new_cycles"]) == 7

    def test_cx_table_keeps_n_from_two(self, tmp_path):
        # a one-qubit row is a valid bench row; CX needs two qubits
        assert run_cli("bench", "--gen", "qft", "--n", "1..3", "--format", "json",
                       "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert [(r["n"], r["error"]) for r in rows] == [(1, ""), (2, ""), (3, "")]
        cx_rows = json.loads((tmp_path / "cx_compare.json").read_text())
        assert [r["n"] for r in cx_rows] == [2, 3]

    def test_partial_failure_continues(self, tmp_path):
        assert run_cli("bench", "--gen", "qft", "--n", "4..6",
                       "--max-qubits", 4, "--out", tmp_path) == 0
        rows = self.read_rows(tmp_path / "bench.csv")
        assert len(rows) == 3
        assert rows[0]["error"] == "" and float(rows[0]["fidelity"]) > 0.9999
        assert all("CapacityError" in r["error"] for r in rows[1:])

    def test_refused_allocation_is_a_row(self, tmp_path):
        # 10^13 layers ask for hundreds of TiB of angles, more than a
        # 47-bit address space holds: the host refuses at once
        assert run_cli("bench", "--gen", "chain", "--n", "2..3", "--layers", 10 ** 13,
                       "--format", "json", "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert [r["n"] for r in rows] == [2, 3]
        assert all(r["error"].startswith("MemoryError: Unable to allocate") for r in rows)

    def test_capacity_is_checked_before_the_circuit(self, tmp_path, monkeypatch):
        # a row past the default ceiling builds no circuit: it keeps its
        # gen-n label, its gate columns stay empty, its error names the cause
        generated = []
        real = cli._generate

        def spy(gen, n, *args):
            generated.append(n)
            return real(gen, n, *args)

        monkeypatch.setattr(cli, "_generate", spy)
        assert run_cli("bench", "--gen", "qft", "--n", "27..28", "--format", "json",
                       "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert [(r["circuit"], r["gates_total"]) for r in rows] == [("qft-27", ""),
                                                                   ("qft-28", "")]
        assert all(r["error"].startswith("CapacityError: ") for r in rows)
        assert generated == []

    def test_qft17_row_matches_reference_table(self, tmp_path):
        assert run_cli("bench", "--gen", "qft", "--n", "17..17",
                       "--out", tmp_path) == 0
        row = self.read_rows(tmp_path / "bench.csv")[0]
        assert row["error"] == ""
        assert int(row["gates_total"]) == 721
        assert int(row["total_cycles"]) == 22882844
        # modeled NGS lands within the 15% calibration band of 1.02e-9
        assert abs(float(row["ngs"]) - 1.02e-9) / 1.02e-9 < 0.15
        assert float(row["fidelity"]) > 0.9999

    def test_template_generator(self, tmp_path):
        assert run_cli("bench", "--gen", "chain", "--n", "3..4", "--layers", 2,
                       "--seed", 7, "--out", tmp_path) == 0
        rows = self.read_rows(tmp_path / "bench.csv")
        assert rows[0]["circuit"] == "chain-3x2"
        assert int(rows[0]["gates_cx"]) == 2 * 2

    def test_deterministic_without_wall_clock(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("bench", "--gen", "qft", "--n", "3..4",
                           "--no-wall-clock", "--out", out) == 0
        assert (out1 / "bench.csv").read_bytes() == \
               (out2 / "bench.csv").read_bytes()
        assert (out1 / "cx_compare.csv").read_bytes() == \
               (out2 / "cx_compare.csv").read_bytes()

    def test_semantic_columns_deterministic_with_wall_clock(self, tmp_path):
        rows = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run_cli("bench", "--gen", "rotation", "--n", "3..3",
                           "--seed", 3, "--out", out) == 0
            rows.append(self.read_rows(out / "bench.csv"))
        for r1, r2 in zip(*rows):
            r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
            assert r1 == r2

    def test_json_format(self, tmp_path):
        assert run_cli("bench", "--gen", "qft", "--n", "3..3",
                       "--format", "json", "--out", tmp_path) == 0
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert rows[0]["gates_total"] == 21


class TestParser:
    def test_bench_common_options(self):
        parse = cli.build_parser().parse_args
        args = parse(["bench", "--gen", "qft", "--n", "3..5"])
        assert (args.n, args.seed, args.config, args.out, args.layers,
                args.max_qubits, args.workers, args.format, args.no_wall_clock) == \
            ("3..5", 0, None, None, 1, state.MAX_QUBITS_DEFAULT, 1, "csv", False)
        args = parse(["bench", "--gen", "chain", "--n", "4", "--seed", "7",
                      "--config", "c.json", "--out", "o", "--layers", "3",
                      "--max-qubits", "20", "--workers", "4"])
        assert (args.seed, args.config, args.out, args.layers,
                args.max_qubits, args.workers) == (7, "c.json", "o", 3, 20, 4)
        with pytest.raises(SystemExit):
            parse(["bench", "--gen", "qft", "--n", "3", "--workers", "3"])


class TestParserReuse:
    # main builds its parser once per process and parses every argv with it

    def test_built_once_across_calls(self, tmp_path, monkeypatch):
        built = []

        def spy():
            built.append(real())
            return built[-1]

        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert run_cli("cx-compare", "--n", "2..3", "--out", tmp_path) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_bench_flag_does_not_stick(self, tmp_path):
        rows = []
        for name, flags in (("a", ["--no-wall-clock"]), ("b", [])):
            assert run_cli("bench", "--gen", "qft", "--n", "2..3", *flags,
                           "--out", tmp_path / name) == 0
            with open(tmp_path / name / "bench.csv", newline="", encoding="utf-8") as fh:
                rows.append(list(csv.DictReader(fh)))
        assert all(r["wall_clock_s"] == "" for r in rows[0])
        assert all(float(r["wall_clock_s"]) > 0 for r in rows[1])

    def test_init_does_not_stick(self, tmp_path):
        outs = {name: tmp_path / name for name in ("zero", "five", "default")}
        for name, init in (("zero", ["--init", 0]), ("five", ["--init", 5]), ("default", [])):
            assert run_cli("run", "--gen", "qft", "--n", 4, *init, "--out", outs[name]) == 0
        files = ("state.bin", "cycles.json", "time.json")
        read = {name: [(out / f).read_bytes() for f in files] for name, out in outs.items()}
        assert read["default"] == read["zero"]
        assert read["five"][0] != read["zero"][0]

    def test_usage_error_then_success(self, tmp_path, capsys):
        argv = ("run", "--gen", "qft", "--n", 3, "--init", 2)
        assert run_cli(*argv, "--out", tmp_path / "before") == 0
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--gen", "nonsense", "--n", 3, "--init", 6)
        assert exc.value.code == 2
        assert run_cli(*argv, "--out", tmp_path / "after") == 0
        for name in ("state.bin", "cycles.json", "time.json"):
            assert (tmp_path / "after" / name).read_bytes() == \
                (tmp_path / "before" / name).read_bytes()
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[0] == out[1]


class TestGen:
    def test_stdout_round_trips(self, capsys):
        assert run_cli("gen", "qft", "--n", 3) == 0
        text = capsys.readouterr().out
        circuit = gateset.circuit_from_text(text)
        assert circuit.n == 3
        assert len(circuit.ops) == 21
        assert circuit.global_phase > 0

    def test_file_output(self, tmp_path):
        assert run_cli("gen", "chain", "--n", 4, "--layers", 2,
                       "--seed", 1, "--out", tmp_path) == 0
        text = (tmp_path / "chain-4x2.qc").read_text()
        circuit = gateset.circuit_from_text(text)
        assert len([op for op in circuit.ops if op.kind == "CX"]) == 6

    def test_deterministic_for_seed(self, tmp_path, capsys):
        outs = []
        for _ in range(2):
            assert run_cli("gen", "all_to_all", "--n", 3, "--seed", 9) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestCxCompare:
    def test_ratio_converges(self, tmp_path):
        assert run_cli("cx-compare", "--n", "2..20", "--out", tmp_path) == 0
        with open(tmp_path / "cx_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 19
        for row in rows:
            n = int(row["n"])
            assert int(row["legacy_cycles"]) == 5 * 2 ** (n - 2)
            assert int(row["new_cycles"]) == 2 * (2 ** (n - 2) + 1) + 1
        assert abs(float(rows[-1]["ratio"]) - 2.5) < 0.001


class TestDeterminism:
    def test_run_outputs_byte_identical(self, tmp_path):
        dirs = (tmp_path / "x", tmp_path / "y")
        for out in dirs:
            assert run_cli("run", "--gen", "alternating", "--n", 4,
                           "--seed", 5, "--out", out) == 0
        for name in ("state.bin", "cycles.json", "time.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_compare_outputs_byte_identical(self, tmp_path):
        dirs = (tmp_path / "x", tmp_path / "y")
        for out in dirs:
            assert run_cli("compare", "--gen", "qft", "--n", 5,
                           "--out", out) == 0
        assert (dirs[0] / "metrics.json").read_bytes() == \
               (dirs[1] / "metrics.json").read_bytes()


class TestInputErrors:
    @pytest.mark.parametrize("doc", ['{"bogus": 1}', '{"hbm_ports": "x"}',
                                     '{"hbm_ports": 2.0}', '{"freq_hz": true}',
                                     '[250e6]',
                                     pytest.param('{"hbm_ports": 1%s}' % ("0" * 400),
                                                  id="huge-int"),
                                     pytest.param('{"freq_hz": -1%s}' % ("0" * 400),
                                                  id="huge-negative-int"),
                                     pytest.param("[" * 100_000 + "]" * 100_000,
                                                  id="deep-nesting")])
    def test_bad_config_exits_4_with_one_line(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        assert run_cli("run", "--gen", "qft", "--n", 3, "--config", cfg,
                       "--out", tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", (("run", "--gen", "qft", "--n", 12),
                                      ("bench", "--gen", "qft", "--n", "3..4")))
    def test_config_bounds_every_cycle_count(self, tmp_path, capsys, argv):
        # a pipeline fill of 10^307 cycles is a float, but the modeled
        # time of a gate count times it is not: the config is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pipeline_fill": 1%s}' % ("0" * 307))
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "out") == 4
        assert capsys.readouterr().err == "error: PerfConfig.pipeline_fill must be at most 2^53\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("freq", ("1e-310", "5e-324"))
    @pytest.mark.parametrize("argv", (("run", "--gen", "qft", "--n", 3),
                                      ("run", "--gen", "qft", "--n", 20),
                                      ("bench", "--gen", "qft", "--n", "3..4")))
    def test_config_bounds_every_modeled_time(self, tmp_path, capsys, freq, argv):
        # a clock below 1 Hz would make a modeled time of some cycles
        # infinite, which time.json and the bench table cannot hold
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"freq_hz": %s}' % freq)
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "out") == 4
        assert capsys.readouterr().err == \
            f"error: PerfConfig.freq_hz must be at least 1 Hz, got {float(freq)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("phase", ("nan", "inf", "abc"))
    def test_bad_global_phase_exits_4_with_one_line(self, tmp_path, capsys, phase):
        qc = tmp_path / "phase.qc"
        qc.write_text(f"QUBITS 2\n# global_phase {phase}\nH 0\n")
        out = tmp_path / "out"
        assert run_cli("compare", "--circuit", qc, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: global phase") and err.count("\n") == 1
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ("run", "compare"))
    @pytest.mark.parametrize("gate", ("CX 1 1", "CX 0 3", "CX 3 0"))
    def test_bad_cx_exits_4_with_one_line(self, tmp_path, capsys, command, gate):
        qc = tmp_path / "cx.qc"
        qc.write_text(f"QUBITS 3\nH 0\nCX 0 1\nRZ 1 0.5\n{gate}\nH 2\n")
        out = tmp_path / "out"
        assert run_cli(command, "--circuit", qc, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ("run", "compare"))
    @pytest.mark.parametrize("source", ("circuit", "gen"))
    def test_huge_qubit_count_exits_3_with_one_line(self, tmp_path, capsys, command,
                                                    source):
        # the count is checked before anything of size 2^n is built: a
        # QUBITS header of 99999999999 and a generated 1100-qubit QFT
        if source == "circuit":
            qc = tmp_path / "huge.qc"
            qc.write_text("QUBITS 99999999999\nH 0\n")
            argv = ("--circuit", qc)
        else:
            argv = ("--gen", "qft", "--n", 1100)
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and err.count("\n") == 1
        assert "memory ceiling" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", (("run", "--gen", "chain", "--n", 3, "--layers", 10 ** 13),
                                      ("compare", "--gen", "rotation", "--n", 3,
                                       "--layers", 10 ** 13),
                                      ("gen", "chain", "--n", 3, "--layers", 10 ** 13)),
                             ids=("run", "compare", "gen-layers"))
    def test_refused_allocation_exits_3_with_one_line(self, tmp_path, capsys, argv):
        # the template's angles would take hundreds of TiB, more than a
        # 47-bit address space holds: the host refuses at once
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", (("qft", "--n", 31), ("qft", "--n", 100000),
                                      ("rotation", "--n", 10 ** 13)),
                             ids=("qft-31", "qft-100000", "rotation-huge"))
    def test_gen_refuses_past_the_ceiling(self, tmp_path, capsys, argv):
        # gen checks the count before it builds the circuit, as run and
        # compare do: a 100000-qubit QFT would take minutes to build
        out = tmp_path / "out"
        assert run_cli("gen", *argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert err == f"capacity error: {argv[-1]} qubits exceeds the 30-qubit memory ceiling\n"
        assert not out.exists()

    def test_one_buffer_gives_the_bytes_of_two_arrays(self, tmp_path, monkeypatch):
        # init_basis's banks are the halves of one buffer; two np.zeros
        # arrays, as they were, give the same files
        def two_arrays(n, k, max_qubits=state.MAX_QUBITS_DEFAULT):
            state.check_capacity(n, max_qubits)
            sv = state.StateVector(n, np.zeros(1 << n, dtype=fxp.WORD),
                                   np.zeros(1 << n, dtype=fxp.WORD))
            sv.re[k] = fxp.RAW_ONE
            return sv

        argv = ("run", "--gen", "qft", "--n", 20, "--init", 5, "--workers", 2)
        assert run_cli(*argv, "--out", tmp_path / "one") == 0
        monkeypatch.setattr(state, "init_basis", two_arrays)
        assert run_cli(*argv, "--out", tmp_path / "two") == 0
        for name in ("state.bin", "cycles.json", "time.json"):
            assert ((tmp_path / "two" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes()), name

    @pytest.mark.parametrize("option, text, head", (
        ("--config", '{"freq_hz": %s}' % ("[" * 900 + "]" * 900),
         "error: PerfConfig.freq_hz must be a number, got [[["),
        ("--config", '{"hbm_ports": "%s"}' % ("x" * 5000),
         "error: PerfConfig.hbm_ports must be an integer, got 'xxx"),
        ("--circuit", "QUBITS 2\n%s 0\n" % ("G" * 5000), "error: line 2: unknown gate 'GGG"),
        ("--circuit", "QUBITS 2\nRZ 0 %sx\n" % ("1" * 4999),
         "error: line 2: could not convert string to float: '111"),
        ("--circuit", "QUBITS 2\n# global_phase %sx\n" % ("1" * 4999),
         "error: line 2: global phase '111"),
    ), ids=("nested-config", "long-config-string", "long-gate", "long-angle", "long-phase"))
    def test_long_input_is_cut_to_one_short_line(self, tmp_path, capsys, option, text,
                                                 head):
        path = tmp_path / "input"
        path.write_text(text)
        argv = ("--gen", "qft", "--n", 3, "--config", path) if option == "--config" \
            else ("--circuit", path)
        assert run_cli("run", *argv, "--out", tmp_path / "out") == 4
        err = capsys.readouterr().err
        assert err.startswith(head) and err.endswith("...\n")
        assert len(err) == cli.ERROR_LINE_MAX + 1 and err.count("\n") == 1

    @pytest.mark.parametrize("text, argv, message", (
        ("QUBITS -1\n", (), "error: line 1: qubit count must be >= 1, got -1"),
        ("QUBITS 2\nRY 0\n", (), "error: line 2: RY takes 2 operand(s), got 1"),
        ("QUBITS 2\nCX 0\n", (), "error: line 2: CX takes 2 operand(s), got 1"),
        ("QUBITS 2\nH 0 1\n", (), "error: line 2: H takes 1 operand(s), got 2"),
        ("QUBITS 2\nH 0\nQUBITS 5\nH 4\n", (),
         "error: line 3: second QUBITS header (the first is line 1)"),
        ("QUBITS 2\nRZ 0 1e400\n", (), "error: line 2: RZ angle inf is not a finite number"),
        ("QUBITS 2\nRX 0 nan\n", (), "error: line 2: RX angle nan is not a finite number"),
        ("H 0\n", ("--n", -1), "error: qubit count must be >= 1, got -1"),
        (None, ("--gen", "chain", "--n", 4, "--layers", -1),
         "error: n and layers must be >= 1"),
        (None, ("--gen", "rotation", "--n", 4, "--seed", -1),
         "error: --seed must be >= 0, got -1"),
    ), ids=("qubits", "rotation-operands", "cx-operands", "extra-operand", "second-header",
            "infinite-angle", "nan-angle", "n", "layers", "seed"))
    @pytest.mark.parametrize("command", ("run", "compare"))
    def test_bad_input_exits_4_naming_it(self, tmp_path, capsys, command, text, argv,
                                         message):
        if text is not None:
            qc = tmp_path / "bad.qc"
            qc.write_text(text)
            argv = ("--circuit", qc, *argv)
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", out) == 4
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_bench_row_names_bad_layers(self, tmp_path):
        assert run_cli("bench", "--gen", "chain", "--n", "3..3", "--layers", -1,
                       "--out", tmp_path) == 0
        rows = list(csv.DictReader((tmp_path / "bench.csv").open()))
        assert rows[0]["error"] == "ValueError: n and layers must be >= 1"

    def test_bench_empty_range_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--gen", "qft", "--n", "5..3", "--out", tmp_path)
        assert exc.value.code == 2
        # reported through the subcommand's parser, as argparse's own errors are
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: hpqe bench ")
        assert lines[-1] == "hpqe bench: error: --n range '5..3' is empty"
        assert not (tmp_path / "bench.csv").exists()

    def test_cx_compare_below_two_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("cx-compare", "--n", "1..3", "--out", tmp_path)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "n >= 2" in errors[0]
        assert not (tmp_path / "cx_compare.csv").exists()

    @pytest.mark.parametrize("argv", (
        ("bench", "--gen", "qft", "--n", "x" * 5000),
        ("run", "--gen", "qft", "--n", "x" * 5000),
        ("cx-compare", "--n", "x" * 5000),
        ("run", "--gen", "x" * 5000, "--n", 3),
    ), ids=("bench-n", "run-n", "cx-compare-n", "run-gen"))
    def test_long_usage_error_is_cut(self, tmp_path, capsys, argv):
        # the usage error quotes the input: argparse's own (run) and the
        # UsageError of a bad --n range (bench, cx-compare)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", tmp_path)
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert "error: " in last and last.endswith("...")
        assert len(last) <= cli.ERROR_LINE_MAX

    @pytest.mark.parametrize("command", ("run", "compare"))
    @pytest.mark.parametrize("init", (8, -1))
    def test_init_out_of_range_is_usage_error(self, tmp_path, capsys,
                                              command, init):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--gen", "qft", "--n", 3, "--init", init,
                    "--out", tmp_path)
        assert exc.value.code == 2
        assert "--init" in capsys.readouterr().err

    def test_bench_kernel_bug_is_not_a_row(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel bug")
        monkeypatch.setattr(cli.engine, "run_circuit", broken)
        with pytest.raises(RuntimeError, match="kernel bug"):
            run_cli("bench", "--gen", "qft", "--n", "3..4", "--out", tmp_path)
