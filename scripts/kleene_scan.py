#!/usr/bin/env python3
"""Scan the diagonal tree: level widths, the canonical witness, and the
first level where the frontier visibly fans out.

The tree stays width 1 for a long stretch because most small codes
converge on their own index within a few steps, and each such index
forces the bit at its position.  Width doubles at every position whose
self-run does not converge in time; the first is 13.  Position p is
forced at level L iff {p}(p) converges within L steps, which a settle
table answers without building the level, so even --deep 200 (65,536
members) takes well under a second.

Examples:
    python3 scripts/kleene_scan.py
    python3 scripts/kleene_scan.py --depth 14 --deep 80
    python3 scripts/kleene_scan.py --deep 200
"""

import argparse

from fanlab.machine import BLOCK_ALL
from fanlab.trees import SettleTable, format_bits, level_census


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=12,
                    help="scan levels 0..DEPTH (default 12)")
    ap.add_argument("--deep", type=int, default=77,
                    help="also sample this single deep level (default 77)")
    args = ap.parse_args()

    table = SettleTable(BLOCK_ALL)
    tree = table.tree()
    print(f"levels 0..{args.depth}")
    for n, width in enumerate(level_census(tree, args.depth)):
        print(f"  level {n:3d} width {width}")
    witness = table.witness(args.depth)
    print(f"witness at depth {args.depth}: {format_bits(witness)}")
    assert tree.contains(witness)

    if args.deep > args.depth:
        forced = {p for p in range(args.deep) if table.value_within(p, args.deep) is not None}
        free = [p for p in range(args.deep) if p not in forced]
        print(f"level {args.deep} width {table.census(args.deep)[args.deep]}")
        print(f"  positions free to vary: {free}")
        deepest = max(forced)
        value = table.witness(args.deep)[deepest]
        print(f"  deepest forced position: {deepest} "
              f"(every member carries a {value} there)")


if __name__ == "__main__":
    main()
