"""Regenerate pins.json: the payload digest of every `fanlab kleene` case
the kleene-census workload can draw, as the current code prints it.

    python3 bench/pin.py

The digests are the reference for deep census levels, which no faster
independent method can recount.  Regenerate them only in a change that
means to alter census output, and say so in that change.
"""

from __future__ import annotations

import json

from run import load_fanlab
from workloads import PINS, KleeneCensus


def main() -> None:
    wl = KleeneCensus(load_fanlab(), seed=0)
    pins = {}
    for node in [None] + KleeneCensus.NODE_POOL:
        status, stdout = wl.op(node)
        if status != 0:
            raise SystemExit(f"kleene {node} exited {status}")
        pins[" ".join(KleeneCensus.argv(node))] = KleeneCensus.payload_digest(stdout)
    PINS.write_text(json.dumps({"kleene-census": pins}, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} cases in {PINS.name}")


if __name__ == "__main__":
    main()
