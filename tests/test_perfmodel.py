import json
import math

import pytest

from hpqe import circuits, engine, perfmodel
from hpqe.perfmodel import CapacityError, PerfConfig


class TestMemoryMode:
    def test_policy_boundaries(self):
        assert perfmodel.memory_mode(19) == "BRAM"
        assert perfmodel.memory_mode(20) == "HBM"
        assert perfmodel.memory_mode(1) == "BRAM"
        assert perfmodel.memory_mode(30) == "HBM"

    def test_capacity_ceiling(self):
        with pytest.raises(CapacityError):
            perfmodel.memory_mode(31)

    def test_configurable_limit(self):
        cfg = PerfConfig(bram_qubit_limit=15)
        assert perfmodel.memory_mode(15, cfg) == "BRAM"
        assert perfmodel.memory_mode(16, cfg) == "HBM"


class TestCyclesSingle:
    def test_examples(self):
        assert perfmodel.cycles_single(17) == 8196
        assert perfmodel.cycles_single(3) == 5
        assert perfmodel.cycles_single(1) == 5

    def test_formula(self):
        cfg = PerfConfig(pe_pairs_per_cycle=4, pipeline_fill=10)
        for n in range(1, 20):
            want = math.ceil((1 << (n - 1)) / 4) + 10
            assert perfmodel.cycles_single(n, cfg) == want


class TestTransferOverhead:
    def test_examples(self):
        assert perfmodel.transfer_overhead(20) == 16784
        assert perfmodel.transfer_overhead(30) == 2 * 8388608 + 400

    def test_bram_mode_rejected(self):
        with pytest.raises(ValueError):
            perfmodel.transfer_overhead(19)


class TestNgs:
    def test_table_rows(self):
        assert abs(perfmodel.ngs(9.66e-2, 721, 17) - 1.02e-9) / 1.02e-9 < 0.01
        got = perfmodel.ngs(1.84e1, 528, 16)
        assert f"{got:.3g}" == "5.32e-07"
        assert abs(perfmodel.ngs(3.29e-1, 721, 17) - 3.48e-9) / 3.48e-9 < 0.01

    def test_trivial(self):
        assert perfmodel.ngs(1.0, 1, 0) == 1.0
        assert perfmodel.ngs(0.0, 7, 5) == 0.0

    def test_scale_invariance(self):
        for k in (2.0, 10.0, 0.25):
            assert math.isclose(perfmodel.ngs(k * 0.5, int(k * 100), 8),
                                perfmodel.ngs(0.5, 100, 8), rel_tol=1e-12)

    def test_requires_gates(self):
        with pytest.raises(ValueError):
            perfmodel.ngs(1.0, 0, 3)


class TestEstimateTime:
    def test_qft17_calibration(self):
        report = engine.cycle_report(circuits.qft(17))
        est = perfmodel.estimate_time(report, 17)
        assert report.total_cycles == 22882844
        assert est.transfer_s == 0.0                   # BRAM at 17 qubits
        assert est.total_s == pytest.approx(0.091531376)
        assert abs(est.total_s - 9.66e-2) / 9.66e-2 < 0.15

    def test_hbm_adds_transfer(self):
        report = engine.cycle_report(circuits.qft(20))
        est = perfmodel.estimate_time(report, 20)
        assert est.transfer_s > 0
        assert est.total_s == pytest.approx(est.compute_s + est.transfer_s)

    def test_monotone_with_bram_to_hbm_jump(self):
        totals, transfers = [], []
        for n in range(15, 23):
            report = engine.cycle_report(circuits.qft(n))
            est = perfmodel.estimate_time(report, n)
            totals.append(est.total_s)
            transfers.append(est.transfer_s)
        assert all(a < b for a, b in zip(totals, totals[1:]))
        assert transfers[:5] == [0.0] * 5              # n = 15..19
        assert all(t > 0 for t in transfers[5:])       # n = 20..22

    def test_cx_dominates_qft_compute(self):
        for n in (10, 14, 17):
            report = engine.cycle_report(circuits.qft(n))
            cx_cycles = sum(c for _, kind, c in report.per_gate if kind == "CX")
            assert cx_cycles / report.total_cycles > 0.80

    def test_ngs_consistency(self):
        report = engine.cycle_report(circuits.qft(8))
        est = perfmodel.estimate_time(report, 8)
        assert est.ngs == pytest.approx(
            est.total_s / (len(report.per_gate) * 2 ** 8))

    def test_mismatched_n(self):
        report = engine.cycle_report(circuits.qft(5))
        with pytest.raises(ValueError):
            perfmodel.estimate_time(report, 6)


class TestPerfConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = PerfConfig(freq_hz=300e6, hbm_setup_cycles=50)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json(), encoding="utf-8")
        assert PerfConfig.load(path) == cfg

    def test_defaults_documented(self):
        doc = json.loads(PerfConfig().to_json())
        assert doc == {"freq_hz": 250e6, "pe_pairs_per_cycle": 8,
                       "pipeline_fill": 4, "hbm_ports": 32,
                       "bus_bytes_per_cycle_per_port": 32,
                       "hbm_setup_cycles": 200, "bram_qubit_limit": 19}

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfConfig(freq_hz=0)
        with pytest.raises(ValueError):
            PerfConfig(bram_qubit_limit=30)

    def test_integers_stay_below_2_to_53(self):
        # a larger integer would overflow a float, or make a cycle count
        # that does; the bound itself is accepted
        assert PerfConfig(pipeline_fill=1 << 53, freq_hz=1 << 53).pipeline_fill == 1 << 53
        for field in ("pipeline_fill", "hbm_ports", "freq_hz"):
            for value in ((1 << 53) + 1, 10 ** 400):
                with pytest.raises(ValueError, match=f"^PerfConfig.{field} must be at most 2"):
                    PerfConfig(**{field: value})
        with pytest.raises(ValueError, match="must be positive and finite"):
            PerfConfig(hbm_ports=-10 ** 400)

    def test_clock_of_at_least_1_hz(self):
        # every modeled time is then at most its cycle count in seconds;
        # a slower clock is refused, the smallest float included
        assert PerfConfig(freq_hz=1).freq_hz == 1
        for freq in (0.999, 1e-310, 5e-324):
            with pytest.raises(ValueError, match="^PerfConfig.freq_hz must be at least 1 Hz"):
                PerfConfig(freq_hz=freq)

    def test_unknown_keys_are_quoted(self):
        # a key holding a line break stays on the error's one line
        with pytest.raises(ValueError, match=r"unknown PerfConfig key\(s\): 'a\\nb'$"):
            PerfConfig.from_json('{"a\\nb": 1}')
