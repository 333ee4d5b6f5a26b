"""Re-measure three rows of the ROADMAP baseline table.

    python3 bench/baseline.py

Rows: take-8 realizer extraction; 20 random depth-6 table realizers from
random.Random(1), with decode against execute for the largest one; and
Kleene tree levels to depth 77 and 150.  Steps and runs come from the same
tracer the benchmark uses, seconds from one timed call each, so this prints
single measurements, not medians.
"""

from __future__ import annotations

import random
from time import perf_counter

from run import load_fanlab
from tracer import Tracer


def traced(fl, fn):
    """Run fn() once under the tracer; return (seconds, tracer)."""
    tracer = Tracer()
    tracer.install(fl)
    tracer.enter("op")
    start = perf_counter()
    try:
        fn()
    finally:
        seconds = perf_counter() - start
        tracer.exit()
        tracer.uninstall()
    return seconds, tracer


def main() -> None:
    fl = load_fanlab()
    fan, machine, trees = fl.fan, fl.machine, fl.trees

    take8 = fan.BarRealizer(machine.encode_program(fan.take_prefix_program(8)))
    seconds, t = traced(fl, lambda: fan.extract_bound(take8))
    print(f"take-8 extract_bound: {seconds:.3f} s traced, {t.calls('fan.realizer')} runs, "
          f"{t.counts['machine.steps']} steps")
    start = perf_counter()
    fan.extract_bound(take8)  # decode cache warm from the traced call
    print(f"take-8 extract_bound: {perf_counter() - start:.3f} s untraced")

    rng = random.Random(1)
    tables = [fan.random_bar_table(rng, depth=6) for _ in range(20)]
    start = perf_counter()
    codes = []
    for table in tables:
        codes.append(machine.encode_program(fan.compile_bar_table(table)))
        fan.extract_bound(fan.BarRealizer(codes[-1]))
    print(f"20 depth-6 tables (Random(1)): {perf_counter() - start:.3f} s")
    # The ROADMAP's single-realizer row is the smallest of these codes past
    # 700k bits (755,186 bits at the commit that wrote the row).
    code = min((c for c in codes if c.bit_length() > 700_000), key=int.bit_length)
    for cache in (machine.decode_program, machine._compiled_from_code):
        cache.cache_clear()
    start = perf_counter()
    program = machine.decode_program(code)
    decode_s = perf_counter() - start
    start = perf_counter()
    fan.apply_realizer_to_path(fan.BarRealizer(code), fan.PathOracle.zero_extended(()))
    run_s = perf_counter() - start  # compiles the decoded program, then runs it
    inc0 = sum(1 for ins in program if ins == machine.Inc(0))
    print(f"one of them: {code.bit_length()} bits, {len(program)} instructions "
          f"({inc0} INC r0), decode {decode_s:.3f} s, compile and run on 0^omega {run_s:.4f} s")

    for depth in (77, 150):
        tree = trees.kleene_tree(machine.BLOCK_ALL)
        widths: list[int] = []
        seconds, t = traced(fl, lambda: widths.extend(len(f) for _, f in trees.levels(tree, depth)))
        print(f"Kleene levels to {depth}: {seconds:.3f} s traced, widest level {max(widths)}, "
              f"{t.counts['trees.selfrun.runs']} self-runs, {t.counts['machine.steps']} steps")


if __name__ == "__main__":
    main()
