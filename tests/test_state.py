import numpy as np
import pytest
from hypothesis import given, strategies as st

from hpqe import fxp, perfmodel, state
from hpqe.perfmodel import CapacityError

from helpers import as_cfx, random_ref_amplitudes


def segment_of_bitstring(i: int, n: int):
    """Independent check: extract fields from the binary string of i."""
    bits = format(i, f"0{n}b")
    return int(bits[0], 2), int(bits[1:3], 2), int(bits[3:] or "0", 2)


class TestInitBasis:
    def test_single_qubit(self):
        sv = state.init_basis(1, 0)
        assert as_cfx(sv.re, sv.im) == [fxp.CFX_ONE, fxp.CFX_ZERO]

    def test_three_qubit_index_five(self):
        sv = state.init_basis(3, 5)
        assert state.segment_of(5, 3) == (1, 1, 0)   # segment id 5 = pea*4 + pe
        assert as_cfx(sv.re, sv.im)[5] == fxp.CFX_ONE
        assert sv.norm_sq() == 1.0

    def test_hard_ceiling(self):
        with pytest.raises(CapacityError):
            state.init_basis(31, 0)
        with pytest.raises(CapacityError):
            state.init_basis(31, 0, max_qubits=40)

    def test_desk_scale_ceiling(self):
        with pytest.raises(CapacityError):
            state.init_basis(27, 0)          # default max_qubits = 26
        sv = state.init_basis(20, 0, max_qubits=20)
        assert perfmodel.memory_mode(sv.n) == "HBM"

    def test_mem_mode_annotation(self):
        assert perfmodel.memory_mode(state.init_basis(10, 0).n) == "BRAM"

    def test_bad_index(self):
        with pytest.raises(ValueError):
            state.init_basis(3, 8)
        with pytest.raises(ValueError):
            state.init_basis(0, 0)


class TestSegmentOf:
    def test_examples(self):
        assert state.segment_of(0, 4) == (0, 0, 0)
        assert state.segment_of(15, 4) == (1, 3, 1)

    def test_high_bit_extraction(self):
        # bit n-1 picks the PEA, bits n-2..n-3 the PE
        assert state.segment_of(1 << 18, 20) == (0, 2, 0)
        assert state.segment_of(1 << 19, 20) == (1, 0, 0)
        assert state.segment_of(1 << 17, 20) == (0, 1, 0)

    def test_against_bitstring_oracle(self):
        rng = np.random.default_rng(20)
        for n in range(3, 7):
            for i in range(1 << n):
                assert state.segment_of(i, n) == segment_of_bitstring(i, n)
        for n in (12, 20, 26):
            for i in rng.integers(0, 1 << n, 200):
                assert state.segment_of(int(i), n) == segment_of_bitstring(int(i), n)

    def test_bijection_small_n(self):
        for n in range(3, 13):
            seen = set()
            for i in range(1 << n):
                pea, pe, off = state.segment_of(i, n)
                assert 0 <= pea <= 1 and 0 <= pe <= 3
                assert 0 <= off < (1 << (n - 3))
                seen.add((pea, pe, off))
            assert len(seen) == 1 << n

    def test_bijection_large_n_by_inversion(self):
        rng = np.random.default_rng(21)
        for n in range(13, 27):
            for i in rng.integers(0, 1 << n, 100):
                pea, pe, off = state.segment_of(int(i), n)
                rebuilt = (pea << (n - 1)) | (pe << (n - 3)) | off
                assert rebuilt == int(i)

    def test_pairing_property(self):
        # t <= n-4: both pair members share a segment; t >= n-3: the two
        # segment ids differ in exactly one bit.
        rng = np.random.default_rng(22)
        for n in range(4, 11):
            for t in range(n):
                for _ in range(50):
                    i = int(rng.integers(0, 1 << n)) & ~(1 << t)
                    a = state.segment_of(i, n)
                    b = state.segment_of(i + (1 << t), n)
                    sid_a = a.pea * 4 + a.pe
                    sid_b = b.pea * 4 + b.pe
                    if t <= n - 4:
                        assert sid_a == sid_b
                    else:
                        assert bin(sid_a ^ sid_b).count("1") == 1
                        assert a.offset == b.offset

    def test_validation(self):
        with pytest.raises(ValueError):
            state.segment_of(0, 2)
        with pytest.raises(ValueError):
            state.segment_of(16, 4)


class TestFlatten:
    def test_basis_one_hot(self):
        for n, k in ((3, 2), (4, 9), (1, 1)):
            sv = state.init_basis(n, k)
            flat = as_cfx(sv.re, sv.im)
            assert flat[k] == fxp.CFX_ONE
            assert sum(1 for c in flat if c != fxp.CFX_ZERO) == 1

    def test_flatten_matches_segment_addressing(self):
        rng = np.random.default_rng(23)
        sv = state.from_amplitudes(5, random_ref_amplitudes(5, rng))
        flat = as_cfx(sv.re, sv.im)
        for i in range(sv.size):
            pea, pe, off = state.segment_of(i, 5)
            j = (pea * 4 + pe) << 2 | off    # segment s starts at s * 2^(n-3)
            assert flat[i] == (int(sv.re[j]), int(sv.im[j]))

    def test_segments_concatenate_to_flat_order(self):
        # segment id pea*4 + pe, then offset, is the global index order
        n = 6
        keys = [(a.pea * 4 + a.pe, a.offset)
                for a in (state.segment_of(i, n) for i in range(1 << n))]
        assert keys == sorted(keys)

    def test_quantized_norm_bound(self):
        rng = np.random.default_rng(25)
        for n in (4, 8, 10):
            sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
            eps = (1 << n) * 2.0 ** -28
            assert 1 - eps <= sv.norm_sq() <= 1 + eps


class TestDumpLoad:
    def test_header_layout(self):
        data = state.init_basis(3, 0).dump()
        assert data[:4] == b"HPQE"
        assert data[4] == 1          # format version
        assert data[5] == 3          # qubit count
        assert len(data) == 6 + 8 * 8
        # first amplitude is 1.0: raw 2^30 little-endian, imag 0
        assert data[6:14] == b"\x00\x00\x00\x40\x00\x00\x00\x00"

    def test_round_trip(self):
        rng = np.random.default_rng(26)
        sv = state.from_amplitudes(6, random_ref_amplitudes(6, rng))
        back = state.load(sv.dump())
        assert back.n == 6
        assert perfmodel.memory_mode(back.n) == perfmodel.memory_mode(sv.n) == "BRAM"
        assert np.array_equal(back.re, sv.re)
        assert np.array_equal(back.im, sv.im)

    def test_every_constructor_stores_the_word(self):
        rng = np.random.default_rng(27)
        states = [state.init_basis(5, 3),
                  state.from_amplitudes(5, random_ref_amplitudes(5, rng))]
        states.append(state.load(states[1].dump()))
        states.append(states[1].copy())
        for sv in states:
            for a in (sv.re, sv.im):
                assert a.dtype == fxp.WORD == np.int32
                assert a.flags.c_contiguous and a.flags.writeable
        assert states[2].dump() == states[1].dump()
        assert np.array_equal(states[2].re, states[1].re)
        assert np.array_equal(states[2].im, states[1].im)
        assert states[3].re is not states[1].re
        # full-range words survive the round trip unwidened and unwrapped
        sv = state.init_basis(3, 0)
        sv.re[:] = [fxp.RAW_MIN, fxp.RAW_MAX, -1, 0, 1, fxp.SCALE, -fxp.SCALE, 7]
        sv.im[:] = sv.re[::-1]
        back = state.load(bytes(sv.dump()))
        assert back.re.tolist() == sv.re.tolist()
        assert back.im.tolist() == sv.im.tolist()

    @pytest.mark.parametrize("block", (1, 4, 16, state.DUMP_BLOCK))
    def test_file_dump_is_written_in_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(state, "DUMP_BLOCK", block)
        rng = np.random.default_rng(28)
        sv = state.init_basis(4, 0)
        for a in (sv.re, sv.im):
            a[:] = rng.integers(fxp.RAW_MIN, fxp.RAW_MAX, a.size, endpoint=True)
        whole = (b"HPQE\x01\x04"
                 + np.column_stack((sv.re, sv.im)).astype("<i4").tobytes())

        class Chunks:
            def __init__(self):
                self.sizes = []
                self.data = bytearray()

            def write(self, chunk):
                chunk = bytes(chunk)
                self.sizes.append(len(chunk))
                self.data += chunk

        f = Chunks()
        assert sv.dump(f) is None
        assert f.data == whole == sv.dump()
        body = f.sizes[1:]
        assert f.sizes[0] == state.HEADER_BYTES
        assert body == [8 * min(block, sv.size)] * (sv.size // min(block, sv.size))
        path = tmp_path / "state.bin"
        with open(path, "wb") as fh:
            sv.dump(fh)
        assert path.read_bytes() == whole

    def test_corrupt_input(self):
        good = state.init_basis(3, 0).dump()
        with pytest.raises(ValueError):
            state.load(b"XXXX" + good[4:])
        with pytest.raises(ValueError):
            state.load(good[:-8])

    def test_short_header(self):
        good = state.init_basis(3, 0).dump()
        for cut in range(6):
            with pytest.raises(ValueError, match="header"):
                state.load(good[:cut])

    def test_body_length(self):
        good = state.init_basis(3, 0).dump()
        for data in (good[:-1], good[:-8], good + b"\x00" * 8, good[:6]):
            with pytest.raises(ValueError, match="must be 70 bytes"):
                state.load(data)

    def test_qubit_count_limit(self):
        header = state.init_basis(3, 0).dump()[:4] + bytes([state.DUMP_VERSION])
        for n in (0, 31, 255):
            with pytest.raises(ValueError, match=f"n={n}"):
                state.load(header + bytes([n]) + b"\x00" * 16)


class TestFromAmplitudes:
    EXACT = [(k + 0.5) / fxp.SCALE for k in (-4, -3, -2, -1, 0, 1, 2, 3)] + [
        (2 ** 31 - 1.5) / fxp.SCALE, (2 ** 31 - 0.5) / fxp.SCALE,
        -(2 ** 31 + 0.5) / fxp.SCALE, -(2 ** 31 - 0.5) / fxp.SCALE,
        0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.9999999, -3.9999999, 4.0, -4.0,
        1e300, -1e300, 5e-324, -5e-324]

    def test_matches_scalar_quantize_including_ties(self):
        values = self.EXACT + [0.0] * (32 - len(self.EXACT))
        amps = np.array(values) + 1j * np.array(values[::-1])
        sv = state.from_amplitudes(5, amps)
        assert sv.re.tolist() == [fxp.quantize(v) for v in values]
        assert sv.im.tolist() == [fxp.quantize(v) for v in values[::-1]]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64))
    def test_quantize_array_matches_scalar(self, values):
        got = fxp.quantize_array(values)
        assert got.dtype == np.int64
        assert got.tolist() == [fxp.quantize(v) for v in values]

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            amps = np.zeros(4, dtype=np.complex128)
            amps[2] = complex(0.5, bad)
            with pytest.raises(ValueError, match="non-finite"):
                state.from_amplitudes(2, amps)
