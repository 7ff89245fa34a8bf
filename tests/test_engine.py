import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hpqe import circuits, engine, fxp, gateset, oracle, perfmodel, state
from hpqe.fxp import CFx

from helpers import (as_cfx, cycle_report_reference, cycles_json_reference, random_circuit,
                     random_ref_amplitudes, split_every_state, window_model)


def quantized(amps):
    re = np.array([fxp.quantize(z.real) for z in amps], dtype=np.int64)
    im = np.array([fxp.quantize(z.imag) for z in amps], dtype=np.int64)
    return re, im


class TestAccessMode:
    def test_examples(self):
        assert engine.access_mode(0, 10) == engine.MODE1
        assert engine.access_mode(9, 10) == engine.MODE2
        assert engine.access_mode(7, 10) == engine.MODE2   # t = n-3 boundary
        assert engine.access_mode(6, 10) == engine.MODE1

    def test_consistent_with_segment_pairing(self):
        for n in range(3, 11):
            for t in range(n):
                i = 0
                a = state.segment_of(i, n)
                b = state.segment_of(i + (1 << t), n)
                same = (a.pea, a.pe) == (b.pea, b.pe)
                assert engine.access_mode(t, n) == (engine.MODE1 if same
                                                    else engine.MODE2)

    def test_validation(self):
        with pytest.raises(ValueError):
            engine.access_mode(0, 2)
        with pytest.raises(ValueError):
            engine.access_mode(5, 5)


class TestApplySingle:
    def test_hadamard_on_zero(self):
        sv = state.init_basis(1, 0)
        engine.apply_single(sv, gateset.single("H", 0))
        r = fxp.RAW_SQRT_HALF
        assert as_cfx(sv.re, sv.im) == [CFx(r, 0), CFx(r, 0)]

    def test_rz_pi_on_one(self):
        sv = state.init_basis(1, 1)
        engine.apply_single(sv, gateset.single("RZ", 0, math.pi))
        assert as_cfx(sv.re, sv.im)[1] == CFx(0, fxp.quantize(1.0))

    def test_matches_quantized_oracle_within_one_ulp(self):
        rng = np.random.default_rng(40)
        for _ in range(120):
            n = 5
            sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
            start = sv.to_complex()
            kind = ("H", "S", "RX", "RY", "RZ")[rng.integers(0, 5)]
            angle = float(rng.uniform(0, 2 * math.pi)) if kind in ("RX", "RY", "RZ") else None
            g = gateset.single(kind, int(rng.integers(0, n)), angle)
            engine.apply_single(sv, g)
            ref = oracle.ref_run(gateset.Circuit(n=n, ops=[g]),
                                 oracle.RefState(n, start))
            qre, qim = quantized(ref.amps)
            assert np.abs(sv.re - qre).max() <= 1
            assert np.abs(sv.im - qim).max() <= 1

    def test_all_targets_all_modes(self):
        # exercise intra-segment, cross-PE, and cross-PEA paths
        rng = np.random.default_rng(41)
        n = 6
        for t in range(n):
            for kind, angle in (("H", None), ("RZ", 1.1), ("RY", 0.7), ("S", None)):
                sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
                start = sv.to_complex()
                g = gateset.single(kind, t, angle)
                engine.apply_single(sv, g)
                ref = oracle.ref_run(gateset.Circuit(n=n, ops=[g]),
                                     oracle.RefState(n, start))
                qre, qim = quantized(ref.amps)
                assert np.abs(sv.re - qre).max() <= 1, (kind, t)
                assert np.abs(sv.im - qim).max() <= 1, (kind, t)

    def test_rejects_cx(self):
        sv = state.init_basis(2, 0)
        with pytest.raises(ValueError, match="^apply_single does not take CX$"):
            engine.apply_single(sv, gateset.cx(0, 1))



# ±0, ±π, 2π (m00 = -2^30), just past 2π (m00 = -2^30 with an imaginary
# part), an ordinary angle and one too small to move any word
GATE_ANGLES = (0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 2 * math.pi + 1e-5, 0.5, 1e-300)


class TestDerivedWords:
    # A GateOp's words come from its kind and angle, so the engine runs
    # the gate the oracle runs. While they could be set apart from them,
    # RZ(0.5) carrying H's words gave [0, -0.707] from |1> in the engine
    # against the oracle's [0, 0.969+0.247j].

    @pytest.mark.parametrize("kind", gateset.SINGLE_KINDS)
    def test_engine_and_oracle_agree_from_every_basis_state(self, kind):
        # within one unit of the last place of the quantized oracle, as
        # apply_single and run_circuit on 1 and 2 workers
        for angle in GATE_ANGLES if kind in gateset.ROTATION_KINDS else (None,):
            for n in (1, 2, 3):
                for t in range(n):
                    op = gateset.GateOp(kind, t, angle=angle)
                    circuit = gateset.Circuit(n=n, ops=[op])
                    for index in range(1 << n):
                        qre, qim = quantized(oracle.ref_run(
                            circuit, oracle.basis_state(n, index)).amps)
                        eager = state.init_basis(n, index)
                        engine.apply_single(eager, op)
                        runs = {"apply_single": eager}
                        for workers in (1, 2):
                            runs[workers], _ = engine.run_circuit(
                                state.init_basis(n, index), circuit, workers=workers)
                        for name, sv in runs.items():
                            where = (kind, angle, n, t, index, name)
                            assert np.abs(sv.re - qre).max() <= 1, where
                            assert np.abs(sv.im - qim).max() <= 1, where


class TestApplyCx:
    def test_truth_table_n2(self):
        # control q1, target q0
        sv = state.init_basis(2, 2)          # |10>
        engine.apply_cx(sv, 1, 0)
        assert as_cfx(sv.re, sv.im)[3] == fxp.CFX_ONE      # -> |11>
        sv = state.init_basis(2, 1)          # |01>, control bit is 0
        engine.apply_cx(sv, 1, 0)
        assert as_cfx(sv.re, sv.im)[1] == fxp.CFX_ONE      # unchanged

    def test_pair_count_and_purity(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 7):
            sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
            before = sorted(zip(sv.re.tolist(), sv.im.tolist()))
            moved = sv.re.copy()
            c, t = rng.choice(n, size=2, replace=False)
            engine.apply_cx(sv, int(c), int(t))
            # 2^(n-2) pairs swap, so 2^(n-1) random words change place
            assert np.count_nonzero(sv.re != moved) == 1 << (n - 1)
            after = sorted(zip(sv.re.tolist(), sv.im.tolist()))
            assert before == after           # bit-exact multiset

    def test_matches_oracle_permutation(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            amps = random_ref_amplitudes(n, rng)
            sv = state.from_amplitudes(n, amps)
            expect_re, expect_im = sv.re.copy(), sv.im.copy()
            c, t = rng.choice(n, size=2, replace=False)
            engine.apply_cx(sv, int(c), int(t))
            for i in range(1 << n):
                j = i ^ (1 << t) if (i >> c) & 1 else i
                assert sv.re[j] == expect_re[i] and sv.im[j] == expect_im[i]

    def test_cycle_formula(self):
        assert engine.cx_cycles(2) == 5
        assert engine.cx_cycles(17) == 65539 == 2 * (2 ** 15 + 1) + 1

    def test_validation(self):
        sv = state.init_basis(3, 0)
        with pytest.raises(ValueError):
            engine.apply_cx(sv, 1, 1)
        with pytest.raises(ValueError):
            engine.apply_cx(sv, 0, 3)


class TestSwapper:
    def test_n2_trace(self):
        run = engine.simulate_swapper(2)
        assert run.cycles == 5
        assert run.trace == ["Start", "IDLE", "LOAD", "STORE", "End"]

    def test_n3_cycles(self):
        assert engine.simulate_swapper(3).cycles == 7

    def test_trace_properties(self):
        for n in (2, 4, 6, 9):
            run = engine.simulate_swapper(n)
            assert run.stage_counts["IDLE"] == 1
            assert run.pairs_processed == 1 << (n - 2)
            assert run.writes_outstanding == 0
            assert run.trace[0] == "Start" and run.trace[-1] == "End"
            assert run.stage_counts["LOAD"] == run.stage_counts["STORE"]

    def test_n4_stage_order(self):
        run = engine.simulate_swapper(4)
        assert run.trace == ["Start", "IDLE"] + ["LOAD", "STORE"] * 4 + ["End"]
        assert run.writes_outstanding == 0

    def test_n5_stage_counts(self):
        assert engine.simulate_swapper(5).stage_counts == {
            "Start": 1, "IDLE": 1, "LOAD": 8, "STORE": 8, "End": 1}

    def test_matches_closed_form(self):
        for n in range(2, 15):
            run = engine.simulate_swapper(n, record_trace=False)
            assert run.cycles == engine.cx_cycles(n)

    def test_legacy_formula(self):
        assert engine.cx_cycles_legacy(17) == 163840
        assert engine.cx_cycles_legacy(2) == 5
        ratio = engine.cx_cycles_legacy(17) / engine.cx_cycles(17)
        assert abs(ratio - 2.5) < 0.001


class TestRunCircuit:
    def test_empty_circuit(self):
        sv = state.init_basis(3, 4)
        sv, report = engine.run_circuit(sv, gateset.Circuit(n=3))
        assert as_cfx(sv.re, sv.im)[4] == fxp.CFX_ONE
        assert report.total_cycles == 0
        assert report.per_gate == []

    def test_bell_state(self):
        c = gateset.Circuit(n=2, ops=[gateset.single("H", 0), gateset.cx(0, 1)])
        sv, report = engine.run_circuit(state.init_basis(2, 0), c)
        r = fxp.RAW_SQRT_HALF
        assert as_cfx(sv.re, sv.im) == [CFx(r, 0), CFx(0, 0), CFx(0, 0), CFx(r, 0)]
        assert report.total_cycles == sum(c for _, _, c in report.per_gate)

    def test_oracle_consistency_random_circuits(self):
        # error grows at most linearly in gate count; 50 ULP covers 50 gates
        rng = np.random.default_rng(44)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            gates = int(rng.integers(1, 51))
            circuit = random_circuit(n, gates, rng)
            sv, _ = engine.run_circuit(state.init_basis(n, 0), circuit)
            ref = oracle.ref_run(circuit, oracle.basis_state(n, 0))
            phase = oracle.metrics(sv.to_complex(), ref.amps).phase
            qre, qim = quantized(ref.amps * np.exp(1j * phase))
            assert np.abs(sv.re - qre).max() <= 50
            assert np.abs(sv.im - qim).max() <= 50

    def test_norm_drift_bound(self):
        rng = np.random.default_rng(45)
        for n, gates in ((4, 80), (8, 50), (10, 100)):
            circuit = random_circuit(n, gates, rng)
            sv, _ = engine.run_circuit(state.init_basis(n, 0), circuit)
            eps = gates * (1 << n) * 2.0 ** -28
            assert 1 - eps <= sv.norm_sq() <= 1 + eps

    def test_worker_determinism(self):
        rng = np.random.default_rng(46)
        circuit = random_circuit(6, 40, rng)
        base = None
        for workers in range(1, 9):
            with split_every_state():
                sv, report = engine.run_circuit(state.init_basis(6, 0), circuit,
                                                workers=workers)
            if base is None:
                base = (sv.re.copy(), sv.im.copy(), report.total_cycles)
            else:
                assert np.array_equal(sv.re, base[0])
                assert np.array_equal(sv.im, base[1])
                assert report.total_cycles == base[2]

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            engine.run_circuit(state.init_basis(3, 0), gateset.Circuit(n=4))

    def test_one_kernel_call_per_gate_with_one_worker(self, monkeypatch):
        # every dense gate, in either access mode, is one kernel call on
        # the whole state from apply_single and from one worker, and every
        # stretch of sparse gates between two dense ones is one `diag` call
        # whose steps are the stretch's gates in order: (m00, m11) and the
        # mask of the target's stored-index parity after the CXs before it.
        # apply_single runs a sparse gate as a stretch of one step. From a
        # state of more than one nonzero word, w workers make
        # p = min(w, 2^(n-1)) calls per dense gate or stretch, on
        # contiguous pieces of equal size that cover the state and share
        # no word. From a basis state each call's pieces cover exactly the
        # window of `helpers.window_model`, at most min(w, words / 2) of them.
        calls = []

        def spy(name):
            real = getattr(fxp.Banks, name)

            def call(banks, *args):
                calls.append((name, args))
                real(banks, *args)
            return call

        for name in ("pair", "diag"):
            monkeypatch.setattr(fxp.Banks, name, spy(name))
        monkeypatch.setattr(engine, "SPLIT_MIN_AMPS", 1)

        def words(name, args):
            # the state words one call reads and writes
            if name == "diag":
                return set(range(*args[1:3]))
            _, t, lo, hi = args
            return {j + (j & -(1 << t)) + h for j in range(lo, hi) for h in (0, 1 << t)}

        def executed(n, ops):
            # the calls one worker makes: a stretch's steps with the masks of
            # an independent relabeling, flushed by each dense gate
            parity, want, steps = [1 << q for q in range(n)], [], []
            for op in ops + [None]:
                if op is not None and op.kind == "CX":
                    parity[op.target] ^= parity[op.control]
                elif op is not None and op.sparse:
                    steps.append((op.matrix[0], op.matrix[3], parity[op.target]))
                else:
                    if steps:
                        want.append(("diag", (steps,)))
                    steps = []
                    parity = [1 << q for q in range(n)]
                    if op is not None:
                        want.append(("pair", (op.matrix,)))
            return want

        def check(n, ops, workers):
            calls.clear()
            dense = state.init_basis(n, 0)
            dense.re[:] = 1 << 20          # every word nonzero
            engine.run_circuit(dense, gateset.Circuit(n=n, ops=ops), workers=workers)
            p = min(workers, 1 << (n - 1))
            want = [w for w in executed(n, ops) for _ in range(p)]
            assert [(c[0], c[1][:1]) for c in calls] == want, (n, workers)
            for k in range(0, len(calls), p):
                pieces = [words(*c) for c in calls[k:k + p]]
                assert {len(w) for w in pieces} == {(1 << n) // p}, (n, k)
                assert set().union(*pieces) == set(range(1 << n))
            for index in sorted({0, 1, (1 << n) - 1, 0x2AAAAAAA & ((1 << n) - 1)}):
                calls.clear()
                engine.run_circuit(state.init_basis(n, index), gateset.Circuit(n=n, ops=ops),
                                   workers=workers)
                got = iter(calls)
                for name, first, bit, lo, size in window_model(n, index, ops)[0]:
                    p = max(1, min(workers, size // 2))
                    group = [next(got) for _ in range(p)]
                    assert all(c[0] == name and c[1][0] == first for c in group), (n, index)
                    if name == "pair":
                        assert {c[1][1] for c in group} == {bit}, (n, index)
                    pieces = [words(*c) for c in group]
                    assert all(pieces) and sum(map(len, pieces)) == size, (n, index)
                    assert set().union(*pieces) == set(range(lo, lo + size)), (n, index)
                assert next(got, None) is None, (n, index)

        for n in (1, 2, 6):
            for t in range(n):
                for op in (gateset.single("RZ", t, 0.3), gateset.single("H", t)):
                    m00, _, _, m11 = op.matrix
                    want = ("diag", ([(m00, m11, 1 << t)],)) if op.sparse else ("pair", (op.matrix,))
                    calls.clear()
                    engine.apply_single(state.init_basis(n, 0), op)
                    assert [(c[0], c[1][:1]) for c in calls] == [want]
                    assert words(*calls[0]) == set(range(1 << n))
                    for workers in (1, 2, 4, 8):
                        check(n, [op], workers)
        # stretches that cross CX relabelings, end at dense gates and at
        # the end of the circuit
        rng = np.random.default_rng(48)
        for n in (2, 6):
            ops = random_circuit(n, 60, rng).ops
            for workers in (1, 2, 8):
                check(n, ops, workers)
        ops = circuits.qft(6).ops
        check(6, ops, 1)
        assert sum(name == "diag" for name, _ in calls) == 5      # one per H but the last
        assert sum(len(args[0]) for name, args in calls if name == "diag") == 45

    def test_qft_covers_few_words(self, monkeypatch):
        # a guard on the window that needs no clock: from a basis state,
        # QFT-20's calls cover at most 3 * 2^20 words, where calls on the
        # whole state cover 39 * 2^20, and its swaps undo its bit-reversed
        # layout, so no word moves for a CX
        covered = []
        for name, per in (("pair", 2), ("diag", 1), ("cx", None)):
            real = getattr(fxp.Banks, name)

            def call(banks, *args, real=real, per=per):
                covered.append(per and per * (args[-1] - args[-2]))
                real(banks, *args)
            monkeypatch.setattr(fxp.Banks, name, call)
        circuit = circuits.qft(20)
        for index in (0, 5, 349525, (1 << 20) - 1):
            covered.clear()
            engine.run_circuit(state.init_basis(20, index), circuit)
            assert None not in covered, index
            assert sum(covered) <= 3 << 20, index

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("n, control, target", ((3, 1, 1), (3, 0, 3), (3, -1, 0), (1, 0, 1)))
    def test_bad_cx_fails_at_its_own_gate(self, workers, n, control, target):
        # a deferred CX is checked when the loop reaches it, with apply_cx's
        # error; the state then holds every gate before it, pending CXs
        # included, and none after it
        head = [gateset.single("H", 0), gateset.single("RZ", n - 1, 0.7)]
        if n >= 2:
            head += [gateset.cx(0, 1), gateset.single("S", 1)]
        bad = gateset.GateOp(kind="CX", target=target, control=control)
        circuit = gateset.Circuit(n=n, ops=[*head, bad, gateset.single("H", 0)])
        with pytest.raises(ValueError) as eager:
            engine.apply_cx(state.init_basis(n, 0), control, target)
        sv = state.init_basis(n, 0)
        with pytest.raises(ValueError, match=re.escape(str(eager.value))):
            engine.run_circuit(sv, circuit, workers=workers)
        want = state.init_basis(n, 0)
        for op in head:
            if op.kind == "CX":
                engine.apply_cx(want, op.control, op.target)
            else:
                engine.apply_single(want, op)
        assert sv.dump() == want.dump()

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("kind", ("RZ", "H"))
    @pytest.mark.parametrize("target", (-1, 5, 7))
    def test_bad_target_fails_at_its_own_gate(self, workers, kind, target):
        # a single-qubit gate's target is checked when the loop reaches it,
        # with apply_single's error; the state then holds every gate before
        # it, the pending stretch and CXs included, and none of it
        n = 5
        head = [gateset.single("H", 0), gateset.single("RZ", 4, 0.7), gateset.cx(0, 1),
                gateset.single("S", 1), gateset.single("RZ", 3, 1.1)]
        bad = replace(gateset.single(kind, 0, 0.4 if kind == "RZ" else None), target=target)
        circuit = gateset.Circuit(n=n, ops=[*head, bad, gateset.single("H", 0)])
        with pytest.raises(ValueError) as eager:
            engine.apply_single(state.init_basis(n, 0), bad)
        sv = state.init_basis(n, 0)
        with split_every_state(), pytest.raises(ValueError, match=re.escape(str(eager.value))):
            engine.run_circuit(sv, circuit, workers=workers)
        want = state.init_basis(n, 0)
        for op in head:
            if op.kind == "CX":
                engine.apply_cx(want, op.control, op.target)
            else:
                engine.apply_single(want, op)
        assert sv.dump() == want.dump()

    def test_no_pool_below_the_split_size(self, monkeypatch):
        # below SPLIT_MIN_AMPS amplitudes run_circuit makes one call per
        # gate or stretch on the whole state and no thread pool, whatever
        # the worker count; from it up, the pool has one thread per piece
        pools = []
        real = engine.ThreadPoolExecutor

        def recording(*args, **kwargs):
            pools.append(kwargs.get("max_workers", args[0] if args else None))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", recording)
        top = engine.SPLIT_MIN_AMPS.bit_length() - 1
        for n in range(1, top):
            ops = [gateset.single("H", 0), gateset.single("RZ", n - 1, 0.3)]
            for workers in (2, 8):
                engine.run_circuit(state.init_basis(n, 0), gateset.Circuit(n=n, ops=ops),
                                   workers=workers)
        assert pools == []
        engine.run_circuit(state.init_basis(top, 0),
                           gateset.Circuit(n=top, ops=[gateset.single("H", 0)]), workers=2)
        assert pools == [2]

    @pytest.mark.parametrize("total", (1, 2, 7, 16, 1 << 19))
    def test_ranges_cut_into_any_piece_count(self, total):
        # p contiguous ranges in order, that cover [0, total) and differ in
        # length by at most one, for every p up to total
        for p in range(1, min(total, 9) + 1):
            ranges = engine._ranges(total, p)
            lengths = [hi - lo for lo, hi in ranges]
            assert len(ranges) == p and ranges[0][0] == 0 and ranges[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert 1 <= min(lengths) and max(lengths) - min(lengths) <= 1

    def test_pieces_are_the_worker_count(self):
        # one piece per worker, at most one pair per piece, and one piece
        # below SPLIT_MIN_AMPS amplitudes
        top = engine.SPLIT_MIN_AMPS.bit_length() - 1
        for workers in range(1, 9):
            assert engine._pieces(workers, top) == workers
            assert engine._pieces(workers, top - 1) == 1
        with split_every_state():
            assert [engine._pieces(w, 2) for w in range(1, 9)] == [1, 2] + [2] * 6
            assert [engine._pieces(w, 3) for w in range(1, 9)] == [1, 2, 3] + [4] * 5

    def test_deferred_cx_swaps(self, monkeypatch):
        # a CX moves words only at a flush whose map is not the identity:
        # in QFT every CX pair around an RZ cancels, and only the final
        # swaps' 3*floor(n/2) CX move words; in the chain template every
        # CX layer is flushed by the next layer's RY or by the end
        swaps = []
        real = fxp.Banks.cx

        def spy(banks, control, target):
            swaps.append((control, target))
            real(banks, control, target)

        monkeypatch.setattr(fxp.Banks, "cx", spy)
        for n in range(1, 13):
            swaps.clear()
            engine.run_circuit(state.init_basis(n, 0), circuits.qft(n))
            assert len(swaps) <= 3 * (n // 2), n
        chain = circuits.template("chain", 20, 3, np.linspace(0.1, 6.0, 120))
        swaps.clear()
        engine.run_circuit(state.init_basis(20, 0), chain)
        cx = [(op.control, op.target) for op in chain.ops if op.kind == "CX"]
        assert swaps == cx and len(cx) == 57


def _plan_ops(n: int, rng, gates: int) -> list:
    # mostly CX and diagonal gates, so that qubits stay fixed across CXs,
    # flushes find the map both equal to the layout and not, and the map
    # often ends neither the layout nor the natural identity
    ops = []
    for _ in range(gates):
        r, q = rng.random(), int(rng.integers(n))
        if n >= 2 and r < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(gateset.cx(int(a), int(b)))
        elif r < 0.85:
            ops.append(gateset.single("S", q) if r < 0.6 else
                       gateset.single("RZ", q, float(rng.uniform(0, 4 * np.pi))))
        else:
            kind = ("H", "RX", "RY")[int(rng.integers(3))]
            ops.append(gateset.single(kind, q, None if kind == "H" else
                                      float(rng.uniform(0, 4 * np.pi))))
    return ops


def _replay_plan(n: int, slot: list, ops, calls) -> set:
    # the plan beside a relabeling of its own: logical bit q of the word
    # stored at i is the parity of i & parity[q]; a logical CX edits the
    # map, a planned ("cx", c, t) moves the words, so every row takes bit
    # c where it has bit t. Each stretch's masks are the map's rows at its
    # gates, the words are in the layout at every dense gate, whose stored
    # bit is its target's, and the map is the natural identity at the
    # end; words move only where the map is not already what the next
    # call needs. Returns the flush cases met.
    layout, natural = [1 << s for s in slot], [1 << q for q in range(n)]
    parity, steps, i, pending, seen = list(layout), [], 0, 0, set()
    for op in [*ops, None]:
        if op is not None and op.kind == "CX":
            parity[op.target] ^= parity[op.control]
            pending += 1
            continue
        if op is not None and op.sparse:
            steps.append((op.matrix[0], op.matrix[3], parity[op.target]))
            continue
        if steps:
            assert calls[i][0] == "diag" and calls[i][4] == steps, i
            i += 1
        steps, goal, before, moves = [], natural if op is None else layout, list(parity), 0
        while i < len(calls) and calls[i][0] == "cx":
            _, c, t = calls[i]
            assert c != t and 0 <= min(c, t) and max(c, t) < n, calls[i]
            parity = [p ^ (p >> t & 1) << c for p in parity]
            i, moves = i + 1, moves + 1
        assert parity == goal and (moves == 0) == (before == goal), (i, before, goal)
        if pending:
            seen.add(("end" if op is None else "flush", "moved" if moves else "dropped"))
        if op is None and moves > pending:
            seen.add(("end", "swapped back"))
        if op is None:
            break
        assert calls[i][0] == "pair" and calls[i][4:] == (op.matrix, slot[op.target]), i
        i, pending = i + 1, 0
    assert i == len(calls)
    return seen


def _as_model(call) -> tuple:
    # a planned pair or diag call as `helpers.window_model` writes it:
    # (name, first argument, stored bit, first word, words)
    name, k, lo, hi, *args = call
    per = 1 if name == "diag" else 2
    assert (hi - lo) * per == 1 << k, call
    return name, args[0], args[1] if args[1:] else None, lo * per, (hi - lo) * per


class TestSchedule:
    # `engine._schedule` is pure: its pair and diag calls are those of
    # `helpers.window_model` (from a state that is not a basis state,
    # each covers the whole state in the identity layout), and its
    # CX calls make the words follow the map exactly where they must
    # (`_replay_plan`)
    CASES = {("flush", "moved"), ("flush", "dropped"), ("end", "moved"),
             ("end", "dropped"), ("end", "swapped back")}

    @staticmethod
    def _check(n, index, ops) -> set:
        stored, calls = engine._schedule(ops, n, index)
        model, _, order = window_model(n, index, ops)
        slot = [order.index(q) for q in range(n)]
        if index is None:
            assert slot == list(range(n))
            assert all(c[1:4] == (n, 0, 1 << n >> (c[0] == "pair")) for c in calls
                       if c[0] != "cx"), n
        else:
            assert stored == sum(1 << slot[q] for q in range(n) if index >> q & 1)
        assert [_as_model(c) for c in calls if c[0] != "cx"] == model, (n, index)
        return _replay_plan(n, slot, ops, calls)

    def test_every_basis_state(self):
        seen = set()
        for n in range(1, 8):
            for index in range(1 << n):
                rng = np.random.default_rng([n, index, 27])
                seen |= self._check(n, index, _plan_ops(n, rng, 6 * n))
                # QFT's final swaps undo its bit-reversed layout
                seen |= self._check(n, index, circuits.qft(n).ops)
        assert seen == self.CASES

    def test_large_basis_states(self):
        rng = np.random.default_rng(2710)
        for n in (10, 11, 12):
            for _ in range(4):
                self._check(n, int(rng.integers(1 << n)), _plan_ops(n, rng, 8 * n))

    def test_other_starts(self):
        seen = set()
        rng = np.random.default_rng(2711)
        for n in range(1, 8):
            for _ in range(6):
                seen |= self._check(n, None, _plan_ops(n, rng, 6 * n))
        assert seen == self.CASES - {("end", "swapped back")}

    def test_walks_free_in_one_order(self):
        # which qubits become free, and when, does not depend on the
        # layout: in the identity layout, in the model's layout and in a
        # random one, the walk frees the qubits in the model's order
        rng = np.random.default_rng(3001)
        for n in range(1, 10):
            for _ in range(8):
                ops = _plan_ops(n, rng, 6 * n)
                index = None if rng.random() < 0.2 else int(rng.integers(1 << n))
                order = window_model(n, index, ops)[2]
                for slot in (list(range(n)), [order.index(q) for q in range(n)],
                             [int(s) for s in rng.permutation(n)]):
                    # the walk that emits the calls, and the one that only
                    # follows the map for the order
                    for emit in (True, False):
                        got, stored, calls = engine._walk(ops, n, index, slot, emit)
                        assert got + [q for q in range(n) if q not in got] == order, (
                            n, index, emit)
                    assert calls == [], (n, index)

    def test_a_cancelled_cx_frees_nothing(self):
        # a guard on the rule that needs no clock: H(0), then CP(0 -> j)
        # for j = 1..19 with the free qubit as the control, then H(1); each
        # CP's two CXs cancel in the map, so only qubits 0 and 1 become
        # free and the calls cover 2 + 2 + 4 words, at most 2^4
        ops = [gateset.single("H", 0)]
        for j in range(1, 20):
            ops += gateset.decompose_cp(0.3, 0, j)[0]
        ops.append(gateset.single("H", 1))
        for index in (0, 6, (1 << 20) - 4):
            stored, calls = engine._schedule(ops, 20, index)
            assert [c[0] for c in calls] == ["pair", "diag", "pair"], index
            assert sum(1 << c[1] for c in calls) <= 1 << 4, index
            assert stored == index

    def test_reads_no_state(self):
        # the same ops and word give the same plan, and the ops are kept
        rng = np.random.default_rng(2712)
        ops = _plan_ops(6, rng, 40)
        kept = list(ops)
        assert engine._schedule(ops, 6, 45) == engine._schedule(ops, 6, 45)
        assert ops == kept


class TestPlanCheck:
    # `run_circuit` refuses a plan that leaves the state before any word
    # moves: each bad call replaces one call of a real plan, through a
    # patched `_schedule`, and the state's bytes stay as they were
    N = 6
    BAD = {
        "diag-past-the-end": ("diag", 3, 64, 72, []),
        "diag-not-aligned": ("diag", 3, 4, 12, []),
        "diag-not-its-window": ("diag", 3, 8, 15, []),
        "diag-negative": ("diag", 3, -8, 0, []),
        "diag-too-wide": ("diag", 7, 0, 128, []),
        "pair-past-the-pairs": ("pair", 3, 32, 36, None, 0),
        "pair-not-aligned": ("pair", 3, 2, 6, None, 0),
        "pair-not-its-window": ("pair", 3, 0, 3, None, 0),
        "pair-no-window": ("pair", 0, 0, 1, None, 0),
        "pair-bit-outside-window": ("pair", 3, 0, 4, None, 3),
        "pair-bit-negative": ("pair", 3, 0, 4, None, -1),
        "cx-control-past-n": ("cx", 6, 0),
        "cx-target-past-n": ("cx", 0, 6),
        "cx-negative": ("cx", -1, 2),
        "cx-one-bit-twice": ("cx", 2, 2),
        "unknown-kind": ("swap", 0, 1),
    }

    @pytest.mark.parametrize("start", ("basis", "dense"))
    @pytest.mark.parametrize("bad", BAD)
    def test_bad_call_raises_before_any_word_moves(self, monkeypatch, start, bad):
        n = self.N
        rng = np.random.default_rng(33)
        circuit = gateset.Circuit(n, _plan_ops(n, rng, 30))
        sv = state.init_basis(n, 45)
        if start == "dense":
            sv.re[:] = rng.integers(-1000, 1000, sv.size)
        real = engine._schedule

        def schedule(ops, n, word):
            stored, calls = real(ops, n, word)
            call = self.BAD[bad]
            if call[0] == "pair":
                call = call[:4] + (ops[0].matrix, call[5])
            return stored, calls[:1] + [call] + calls[1:]

        monkeypatch.setattr(engine, "_schedule", schedule)
        before = sv.re.tobytes(), sv.im.tobytes()
        with pytest.raises(RuntimeError, match="does not fit a state of n=6"):
            engine.run_circuit(sv, circuit)
        assert (sv.re.tobytes(), sv.im.tobytes()) == before

    def test_bad_stored_index_raises(self, monkeypatch):
        sv = state.init_basis(4, 3)
        circuit = gateset.Circuit(4, [gateset.single("H", 0)])
        for stored in (-1, 16):
            monkeypatch.setattr(engine, "_schedule", lambda ops, n, word: (stored, []))
            with pytest.raises(RuntimeError, match="outside n=4"):
                engine.run_circuit(sv, circuit)
            assert sv.re.tolist() == [0, 0, 0, fxp.SCALE] + [0] * 12

    def test_every_real_plan_fits(self):
        # the plans of random circuits and QFT, from basis states and
        # others, at the edges of each window
        rng = np.random.default_rng(34)
        for n in range(1, 9):
            for ops in (_plan_ops(n, rng, 8 * n), circuits.qft(n).ops):
                for word in (None, 0, (1 << n) - 1, int(rng.integers(1 << n))):
                    stored, calls = engine._schedule(ops, n, word)
                    engine._check_plan(stored, calls, n)


class TestCycleReport:
    def test_accounting_only_matches_execution(self):
        rng = np.random.default_rng(47)
        circuit = random_circuit(5, 30, rng)
        _, executed = engine.run_circuit(state.init_basis(5, 0), circuit)
        accounted = engine.cycle_report(circuit)
        assert accounted.per_gate == executed.per_gate
        assert accounted.total_cycles == executed.total_cycles
        assert accounted.mem_mode == executed.mem_mode

    def test_json_shape(self):
        c = gateset.Circuit(n=2, ops=[gateset.single("H", 0), gateset.cx(0, 1)])
        _, report = engine.run_circuit(state.init_basis(2, 0), c)
        doc = json.loads(report.to_json())
        assert set(doc) == {"gates", "total_cycles", "n", "mem_mode"}
        assert doc["n"] == 2
        assert doc["mem_mode"] == "BRAM"
        assert doc["total_cycles"] == report.total_cycles
        assert doc["gates"][1] == {"index": 1, "kind": "CX", "cycles": 5}

    @staticmethod
    def report_circuits():
        # QFT-1..20 (BRAM up to 19 qubits, HBM at 20), each template, an
        # empty circuit and a CX-only one
        yield from (circuits.qft(n) for n in range(1, 21))
        for kind in circuits.TOPOLOGY_KINDS:
            for n, layers in ((3, 2), (20, 1)):
                slots = circuits.rotation_slots(kind, n, layers)
                yield circuits.template(kind, n, layers, np.linspace(0.1, 6.0, slots))
        yield gateset.Circuit(n=4)
        yield gateset.Circuit(n=3, ops=[gateset.cx(0, 2), gateset.cx(2, 1), gateset.cx(1, 0)])

    def test_json_bytes_match_json_dumps(self):
        for circuit in self.report_circuits():
            report = engine.cycle_report(circuit)
            assert report.to_json() == cycles_json_reference(report), circuit.n

    def test_json_escapes_kinds_as_json_dumps_does(self):
        # cycle_report does not validate kinds, so a report may name any
        # string; to_json must escape it as json.dumps does
        odd = 'R"\u00e9\\\n'
        report = engine.CycleReport(n=3, mem_mode="BRAM",
                                    per_gate=[(0, odd, 7), (1, "CX", 5), (2, odd, 7)],
                                    total_cycles=19)
        doc = report.to_json()
        assert doc == cycles_json_reference(report)
        assert doc.isascii() and json.loads(doc)["gates"][2]["kind"] == odd

    def test_facts_match_a_per_op_count(self):
        # a CX's cycles and a single-qubit gate's are worked out once per
        # call; the report must equal one that works them out per op
        cfg = perfmodel.PerfConfig(pe_pairs_per_cycle=3, pipeline_fill=9)
        rng = np.random.default_rng(26)
        extra = [random_circuit(n, 40, rng) for n in (1, 2, 3, 4, 7)]
        for circuit in [*self.report_circuits(), *extra]:
            for c in (perfmodel.DEFAULT_CONFIG, cfg):
                report = engine.cycle_report(circuit, c)
                assert (report.per_gate, report.total_cycles) == \
                    cycle_report_reference(circuit, c)
