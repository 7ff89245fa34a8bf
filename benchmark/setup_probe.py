"""Time one fresh process's `import hpqe` plus one 3-qubit `hpqe run`.

    python3 benchmark/setup_probe.py OUT_DIR RESULT_FILE

Nothing but the standard library is imported before the clock starts, so
the time includes importing numpy, as it does for a user of the CLI.
run.py checks the outputs written to OUT_DIR.
"""

import json
import sys
import time
import traceback
from pathlib import Path

ARGV = ["run", "--gen", "qft", "--n", "3", "--init", "0"]


def main() -> int:
    out, result = sys.argv[1], Path(sys.argv[2])
    t0 = time.perf_counter()
    import hpqe
    from hpqe import cli
    try:
        code = cli.main(ARGV + ["--out", out])
    except Exception:                  # reported as a failed set-up op
        code = traceback.format_exc().splitlines()[-1]
    seconds = time.perf_counter() - t0
    result.write_text(json.dumps({"seconds": seconds, "exit": code,
                                  "hpqe": hpqe.__file__}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
