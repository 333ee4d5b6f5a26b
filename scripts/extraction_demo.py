#!/usr/bin/env python3
"""Extract uniform bounds from a few bar realizers and show the certificates.

Three fixed realizers first (return the empty prefix, take three bits,
split on the first bit), then a batch of randomly generated prefix-free
table realizers.  For each one the extracted bound n is checked against
an exhaustive scan of all length-n sequences; the exit status is 1 if any
check fails.

Examples:
    python3 scripts/extraction_demo.py
    python3 scripts/extraction_demo.py --tables 10 --depth 5 --seed 7
"""

import argparse
import random

from fanlab.fan import (
    BarRealizer,
    compile_bar_table,
    extract_bound,
    first_bit_split_program,
    random_bar_table,
    table_bar,
    take_prefix_program,
    verify_uniform_bound,
)
from fanlab.machine import encode_program
from fanlab.trees import format_bits


def show(name: str, code: int, bar) -> bool:
    bound = extract_bound(BarRealizer(code))
    verified = verify_uniform_bound(bar, bound.n)
    print(f"{name}: bound {bound.n} (exhaustive check: "
          f"{'ok' if verified else 'FAILED'})")
    for bits in sorted(bound.certificate):
        hit = bound.certificate[bits]
        print(f"  {format_bits(bits):>6} covered by {format_bits(hit)}")
    return verified


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tables", type=int, default=5,
                    help="number of random table realizers (default 5)")
    ap.add_argument("--depth", type=int, default=4,
                    help="maximum depth of random tables (default 4)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    split_table = {(0,), (1, 0), (1, 1)}
    ok = all([
        show("empty prefix", encode_program(()), lambda bits: bits == ()),
        show("take three bits", encode_program(take_prefix_program(3)),
             lambda bits: len(bits) == 3),
        show("first-bit split", encode_program(first_bit_split_program()),
             table_bar(split_table)),
    ])

    rng = random.Random(args.seed)
    print(f"\n{args.tables} random tables (depth <= {args.depth}, "
          f"seed {args.seed})")
    for i in range(args.tables):
        table = random_bar_table(rng, depth=args.depth)
        code = encode_program(compile_bar_table(table))
        bound = extract_bound(BarRealizer(code))
        verified = verify_uniform_bound(table_bar(table), bound.n)
        ok = ok and verified
        listing = " ".join(sorted(format_bits(b) for b in table))
        print(f"  table {i}: {{{listing}}} -> bound {bound.n} "
              f"({'ok' if verified else 'FAILED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
