import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hpqe import circuits, engine, fxp, gateset, oracle, state
from hpqe.fxp import CFx

from helpers import as_cfx, random_circuit, random_ref_amplitudes, split_every_state


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

    def test_requires_quantized_matrix(self):
        sv = state.init_basis(2, 0)
        with pytest.raises(ValueError):
            engine.apply_single(sv, gateset.GateOp(kind="H", target=0))
        with pytest.raises(ValueError):
            engine.apply_single(sv, gateset.cx(0, 1))


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

    def test_pair_addresses_cover_all_swaps(self):
        n, c, t = 5, 4, 1
        run_pairs = [engine.cx_pair(k, n, c, t) for k in range(1 << (n - 2))]
        want = {(i, i | (1 << t)) for i in range(1 << n)
                if (i >> c) & 1 and not (i >> t) & 1}
        assert set(run_pairs) == want
        assert run_pairs == sorted(run_pairs)    # canonical ascending order


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
            _, _, phase = oracle.mse(sv.to_complex(), ref.amps)
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

    def test_mode2_and_pair_accounting(self):
        c = gateset.Circuit(n=4, ops=[
            gateset.single("H", 0),     # Mode1
            gateset.single("H", 3),     # Mode2 (t = n-1)
            gateset.single("RZ", 1, 0.5),   # Mode2 (t = n-3)
            gateset.cx(0, 1),
        ])
        _, report = engine.run_circuit(state.init_basis(4, 0), c)
        assert report.mode2_gate_count == 2
        assert report.cx_pairs_swapped == 4

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            engine.run_circuit(state.init_basis(3, 0), gateset.Circuit(n=4))

    def test_one_kernel_call_per_gate_with_one_worker(self, monkeypatch):
        # every dense gate, in either access mode, is one kernel call on
        # the whole state from apply_single and from one worker, and every
        # stretch of sparse gates between two dense ones is one `diag` call
        # whose steps are the stretch's gates in order: (m00, m11) and the
        # mask of the target's stored-index parity after the CXs before it.
        # apply_single runs a sparse gate as a stretch of one step. w
        # workers make p = min(w, 2^(n-1)) calls per dense gate or stretch,
        # on contiguous pieces of equal size that cover the state and share
        # no word.
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
            engine.run_circuit(state.init_basis(n, 0), gateset.Circuit(n=n, ops=ops),
                               workers=workers)
            p = min(workers, 1 << (n - 1))
            want = [w for w in executed(n, ops) for _ in range(p)]
            assert [(c[0], c[1][:1]) for c in calls] == want, (n, workers)
            for k in range(0, len(calls), p):
                pieces = [words(*c) for c in calls[k:k + p]]
                assert {len(w) for w in pieces} == {(1 << n) // p}, (n, k)
                assert set().union(*pieces) == set(range(1 << n))

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

    @pytest.mark.parametrize("n", (3, 9))
    def test_sparse_gate_ignores_off_diagonals(self, n):
        # the SU's sparse mode bypasses the second multiplier: a sparse op
        # gives the bits of its diagonal alone, whatever m01 and m10 hold
        rng = np.random.default_rng(60 + n)
        start = state.init_basis(n, 0)
        start.re[:] = rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 1 << n)
        start.im[:] = rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 1 << n)
        for t in range(n):
            m00, m11 = (CFx(*rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 2).tolist())
                        for _ in range(2))
            off = (CFx(fxp.RAW_SQRT_HALF, -3), CFx(fxp.RAW_MIN, fxp.SCALE))
            clean = gateset.GateOp(kind="RZ", target=t, sparse=True,
                                   matrix=(m00, fxp.CFX_ZERO, fxp.CFX_ZERO, m11))
            dirty = replace(clean, matrix=(m00, *off, m11))
            results = set()
            for op in (clean, dirty):
                sv = start.copy()
                engine.apply_single(sv, op)
                results.add(bytes(sv.dump()))
                sv, _ = engine.run_circuit(start.copy(), gateset.Circuit(n=n, ops=[op]),
                                           workers=2)
                results.add(bytes(sv.dump()))
            assert len(results) == 1, t
            # the same matrix as a dense op does read the off-diagonals
            sv = start.copy()
            engine.apply_single(sv, replace(dirty, sparse=False))
            assert bytes(sv.dump()) not in results

    @pytest.mark.parametrize("workers", (1, 2))
    def test_requires_quantized_matrix(self, workers):
        c = gateset.Circuit(n=3, ops=[gateset.cx(0, 1),
                                      gateset.GateOp(kind="H", target=0)])
        with pytest.raises(ValueError, match="gate matrix not quantized"):
            engine.run_circuit(state.init_basis(3, 0), c, workers=workers)

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

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("sparse", (True, False))
    @pytest.mark.parametrize("part, value", (
        (None, None), (0, 1 << 50), (1, fxp.RAW_MIN - 1), (2, fxp.RAW_MAX + 1), (7, -(1 << 40))))
    def test_bad_matrix_fails_at_its_own_gate(self, workers, sparse, part, value):
        # a gate without a matrix, or with a matrix part outside the word
        # (whose int64 products in the kernels would overflow), fails
        # apply_single and, with the same error, run_circuit at that gate;
        # the state then holds every gate before it and none after it
        n = 3
        head = [gateset.single("H", 0), gateset.single("RZ", 2, 0.7), gateset.cx(0, 1),
                gateset.single("S", 1), gateset.single("RZ", 2, 1.1)]
        bad = gateset.single("RZ" if sparse else "RY", 1, 0.4)
        parts = [v for c in bad.matrix for v in c]
        if part is not None:
            parts[part] = value
        bad = replace(bad, matrix=None if part is None else tuple(
            CFx(*parts[i:i + 2]) for i in range(0, 8, 2)))
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

    @pytest.mark.parametrize("sparse", (True, False))
    def test_word_ends_are_accepted(self, sparse):
        # RAW_MIN and RAW_MAX are words: both entry points run such a gate
        ends = (CFx(fxp.RAW_MIN, fxp.RAW_MAX), CFx(fxp.RAW_MAX, fxp.RAW_MIN))
        matrix = (ends[0], fxp.CFX_ZERO, fxp.CFX_ZERO, ends[1]) if sparse else ends * 2
        op = gateset.GateOp(kind="RZ" if sparse else "RY", target=1, matrix=matrix,
                            sparse=sparse)
        rng = np.random.default_rng(5)
        start = state.init_basis(3, 0)
        start.re[:] = rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 8)
        start.im[:] = rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 8)
        eager = start.copy()
        engine.apply_single(eager, op)
        sv, _ = engine.run_circuit(start.copy(), gateset.Circuit(n=3, ops=[op]))
        assert sv.dump() == eager.dump() != start.dump()
        x, _, y = as_cfx(start.re[:3], start.im[:3])
        assert as_cfx(eager.re, eager.im)[0] == fxp.su_eval(*matrix[:2], x, y,
                                           op=fxp.SPARSE if sparse else fxp.DENSE)

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


class TestCycleReport:
    def test_accounting_only_matches_execution(self):
        rng = np.random.default_rng(47)
        circuit = random_circuit(5, 30, rng)
        _, executed = engine.run_circuit(state.init_basis(5, 0), circuit)
        accounted = engine.cycle_report(circuit)
        assert accounted.per_gate == executed.per_gate
        assert accounted.total_cycles == executed.total_cycles
        assert accounted.cx_pairs_swapped == executed.cx_pairs_swapped
        assert accounted.mode2_gate_count == executed.mode2_gate_count
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
