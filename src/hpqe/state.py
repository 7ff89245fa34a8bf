"""Fixed-point state vector.

2^n amplitudes live in two numpy arrays of the machine's 32-bit word
(`fxp.WORD`, raw Q2.30 re/im) kept in global-index order, qubit 0 being
the least-significant index bit. On the modeled machine the top three
index bits select one of 8 segments (2 processing-element arrays x 4
processing elements), so each segment is a contiguous slice of the flat
vector; `segment_of` maps an index to it for n >= 3. The layout serves
the timing model; the engine computes on the flat arrays.

`init_basis` takes both arrays from one buffer, re its first half and
im its second, and zeroes it at once, so that a run faults in no page of
its state. At n = 20 the process's heap then holds one 8 MiB block per
state where it held two of 4 MiB, and glibc keeps such a block's pages
between states, where it gave the two smaller ones back after every
run: the next state reuses them without a fault. Fresh memory comes in
huge pages where the host allows them, since numpy advises every buffer
of 4 MiB or more MADV_HUGEPAGE. README ("Banks") has the measurements.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fxp, perfmodel
from .perfmodel import CapacityError

MAX_QUBITS_DEFAULT = 26   # desk-scale ceiling; device hard limit is 30

DUMP_MAGIC = b"HPQE"
DUMP_VERSION = 1
HEADER_BYTES = 6          # magic, version byte, n byte
DUMP_BLOCK = 1 << 16      # amplitudes interleaved per written chunk (512 KiB)


class SegmentAddress(NamedTuple):
    """A word's place on the machine: PE array, PE, offset in the segment.

    A machine fact that the tests pin; no computation reads it."""

    pea: int
    pe: int
    offset: int


def segment_of(i: int, n: int) -> SegmentAddress:
    """Map a global index to (PEA, PE, offset) for n >= 3.

    PEA = bit n-1, PE = bits n-2..n-3, offset = low n-3 bits; the
    relative order of amplitudes inside a segment is untouched. The
    segment map is a machine fact that the tests pin; no computation
    reads it.
    """
    if n < 3:
        raise ValueError("segmented layout requires n >= 3")
    if not 0 <= i < (1 << n):
        raise ValueError(f"index {i} out of range for n={n}")
    return SegmentAddress(
        pea=(i >> (n - 1)) & 1,
        pe=(i >> (n - 3)) & 3,
        offset=i & ((1 << (n - 3)) - 1),
    )


@dataclass
class StateVector:
    n: int
    re: np.ndarray          # fxp.WORD raw Q2.30, length 2^n, global-index order
    im: np.ndarray

    @property
    def size(self) -> int:
        return 1 << self.n

    def to_complex(self, lo: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Double-precision copy of the amplitudes from lo (the whole
        state by default), for metrics only; with out, its out.size
        amplitudes from lo are converted into it."""
        if out is None:
            out = np.empty(self.size - lo, dtype=np.complex128)
        hi = lo + out.size
        out.real = self.re[lo:hi]
        out.imag = self.im[lo:hi]
        out /= fxp.SCALE        # a power of two: exact
        return out

    def norm_sq(self) -> float:
        """The sum of |amplitude|^2, read through `to_complex` in blocks of
        min(DUMP_BLOCK, size) amplitudes, so no state-sized array is
        built; the bytes are those of the whole-array
        np.sum(a.real * a.real + a.imag * a.imag) (see `sum_blocks`)."""
        a = np.empty(min(DUMP_BLOCK, self.size), dtype=np.complex128)
        parts = []
        for lo in range(0, self.size, a.size):
            self.to_complex(lo, a)
            parts.append(np.sum(a.real * a.real + a.imag * a.imag))
        return float(sum_blocks(parts))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.re.copy(), self.im.copy())

    def dump(self, f=None) -> bytearray | None:
        """Binary dump: magic, version byte, n byte, then (re, im) int32 LE.

        With a binary file f, the dump is written to it DUMP_BLOCK
        amplitudes at a time, so it never holds a second copy of the
        state; None is returned. Without one, the same writer fills one
        buffer of the dump's size, which is returned.
        """
        if f is not None:
            self._write_dump(f.write)
            return None
        out = bytearray(HEADER_BYTES + perfmodel.AMPLITUDE_BYTES * self.size)
        rest = memoryview(out)

        def put(chunk) -> None:
            nonlocal rest
            rest[:len(chunk)] = chunk
            rest = rest[len(chunk):]

        self._write_dump(put)
        return out

    def _write_dump(self, write) -> None:
        # write takes the header, then each block's interleaved words in one
        # reused buffer; the size and DUMP_BLOCK are powers of two, so the
        # blocks are whole
        write(DUMP_MAGIC + struct.pack("<BB", DUMP_VERSION, self.n))
        step = min(self.size, DUMP_BLOCK)
        chunk = bytearray(perfmodel.AMPLITUDE_BYTES * step)
        words = np.frombuffer(chunk, dtype="<i4")
        for lo in range(0, self.size, step):
            words[0::2] = self.re[lo:lo + step]
            words[1::2] = self.im[lo:lo + step]
            write(chunk)


def sum_blocks(parts):
    """numpy's pairwise sum of a whole array from the sums of its equal
    blocks, a power-of-two count of them: for a power-of-two length it
    splits at exact halves, so the block sums combine in pairs, level by
    level; then its +0 start (np.sum([-0.0]) is +0.0)."""
    while len(parts) > 1:
        parts = [x + y for x, y in zip(parts[::2], parts[1::2])]
    return 0.0 + parts[0]


def check_capacity(n: int, max_qubits: int = MAX_QUBITS_DEFAULT) -> None:
    """CapacityError where a state of n qubits passes the memory ceiling
    (`perfmodel.check_capacity`) or max_qubits."""
    perfmodel.check_capacity(n)
    if n > max_qubits:
        raise CapacityError(
            f"{n} qubits exceeds the configured max_qubits={max_qubits}")


def init_basis(n: int, k: int, max_qubits: int = MAX_QUBITS_DEFAULT) -> StateVector:
    """Computational basis state |k>."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    check_capacity(n, max_qubits)
    if not 0 <= k < (1 << n):
        raise ValueError(f"basis index {k} out of range for n={n}")
    # the halves of one buffer, every page touched here (module docstring)
    body = np.empty(2 << n, dtype=fxp.WORD)
    body.fill(0)
    sv = StateVector(n, re=body[:1 << n], im=body[1 << n:])
    sv.re[k] = fxp.RAW_ONE
    return sv


def from_amplitudes(n: int, amps, max_qubits: int = MAX_QUBITS_DEFAULT) -> StateVector:
    """Quantize a complex amplitude list into a fresh state vector."""
    sv = init_basis(n, 0, max_qubits=max_qubits)
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape}")
    sv.re[:] = fxp.quantize_array(amps.real)
    sv.im[:] = fxp.quantize_array(amps.imag)
    return sv


def load(data: bytes) -> StateVector:
    """Inverse of StateVector.dump(); malformed input raises ValueError."""
    if len(data) < HEADER_BYTES:
        raise ValueError(f"state dump shorter than its {HEADER_BYTES}-byte header")
    if data[:4] != DUMP_MAGIC:
        raise ValueError("bad magic in state dump")
    version, n = struct.unpack("<BB", data[4:HEADER_BYTES])
    if version != DUMP_VERSION:
        raise ValueError(f"unsupported dump version {version}")
    if not 1 <= n <= perfmodel.HARD_QUBIT_LIMIT:
        raise ValueError(
            f"state dump claims n={n}, outside 1..{perfmodel.HARD_QUBIT_LIMIT}")
    want = HEADER_BYTES + perfmodel.AMPLITUDE_BYTES * (1 << n)
    if len(data) != want:
        raise ValueError(f"state dump for n={n} must be {want} bytes, got {len(data)}")
    body = np.frombuffer(data, dtype="<i4", offset=HEADER_BYTES)
    return StateVector(n=n, re=body[0::2].astype(fxp.WORD),
                       im=body[1::2].astype(fxp.WORD))
