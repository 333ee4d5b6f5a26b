"""Self-check of the benchmark's reference checks.

    python3 bench/selfcheck.py

Runs one round of every workload twice: as is, where no op may fail, and
with a deliberately wrong reference planted for the first op, where exactly
that op must fail.  Exits 1 if either expectation does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from workloads import WORKLOADS


def failed_ops(workload: str, plant: bool) -> tuple[int, int]:
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = run.main(argv + ["--plant-wrong-reference"] * plant)
    if status != 0:
        raise SystemExit(f"{workload}: run.py exited {status}")
    result = json.loads(buf.getvalue().splitlines()[-1])
    return result["failed"], result["attempted"]


def main() -> int:
    ok = True
    for workload in sorted(WORKLOADS):
        for plant, expected in ((False, 0), (True, 1)):
            failed, attempted = failed_ops(workload, plant)
            good = failed == expected
            ok = ok and good
            print(f"{workload} planted={str(plant).lower()} failed {failed} of {attempted} "
                  f"expected {expected} {'ok' if good else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
