"""Drive every kernel entry point through `fxp.Banks`, for a sanitizer build.

usage: drive_banks.py CACHE FLAG...

Builds `kernels.c` with the loader's flags plus FLAG... into CACHE and
runs, on arrays of exactly 2^n words (no slack, so a word past either
end lies outside the allocation):

  * pair ranges for every target of n = 1..9, their ends on and next to
    vector (8 and 16 pairs) and row (2^t pairs) boundaries;
  * diagonal stretches of 1 and 33 steps (two passes) whose bases and
    lengths are not multiples of 16;
  * every CX of n = 2..6.

It exits 0 when every call returns, and 77 when the library cannot be
built or loaded, or the process has no AddressSanitizer runtime
preloaded.
"""

import ctypes
import sys
from pathlib import Path

import numpy as np

from hpqe import fxp, gateset

SKIP = 77


def main() -> int:
    if not hasattr(ctypes.CDLL(None), "__asan_init"):
        return SKIP
    fxp.NATIVE_CACHE = Path(sys.argv[1])
    fxp.NATIVE_FLAGS = (*fxp.NATIVE_FLAGS, *sys.argv[2:])
    if fxp.native_kernels() is None:
        return SKIP
    rng = np.random.default_rng(13)

    def banks(n):
        return fxp.Banks(*(rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 1 << n, dtype=fxp.WORD)
                           for _ in range(2)))

    def coefs(count):
        return [fxp.CFx(*rng.integers(fxp.RAW_MIN, fxp.RAW_MAX + 1, 2).tolist())
                for _ in range(count)]

    h = gateset.single("H", 0).matrix          # no product needs a clip
    rz = gateset.single("RZ", 0, 0.3).matrix   # unit coefficients
    for n in range(1, 10):
        b, pairs = banks(n), 1 << (n - 1)
        for t in range(n):
            ends = {e for size in (8, 16, 1 << t) for m in (0, size, pairs - size, pairs)
                    for e in (m - 1, m, m + 1) if 0 <= e <= pairs}
            for lo in ends:
                for hi in ends:
                    if lo <= hi:
                        b.pair(h if (lo ^ hi) & 1 else tuple(coefs(4)), t, lo, hi)
    for n in (5, 6, 9):
        b, size = banks(n), 1 << n
        for k in (1, 33):
            steps = [(rz[0], rz[3], int(m)) if j % 2 else (*coefs(2), int(m))
                     for j, m in enumerate(rng.integers(0, size, k))]
            for lo in (0, 1, 3, 15, 17, 33):
                for hi in (size, size - 1, size - 5, lo + 17, lo + 31):
                    b.diag(steps, lo, min(max(hi, lo), size))
    for n in range(2, 7):
        b = banks(n)
        for control in range(n):
            for target in range(n):
                if control != target:
                    b.cx(control, target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
