"""fanlab benchmark: one workload, one process, one closed loop.

    python3 bench/run.py --workload extract-take --seed 1 --seconds 10 --trace 0

Run from a checkout: the package is imported from `src/` next to this
directory, never from anywhere else.  Ops run one after another, each
starting when the previous one has finished, and every op's output is
checked against an independent reference (see workloads.py).  Before each op
the package's lru caches are emptied, so every op starts as cold as a fresh
`fanlab` process would.

--trace 0 times whole rounds of ops until the ops have taken `--seconds`
and reports the end-to-end metrics.  --trace 1 ignores `--seconds`: it runs
the workload's fixed number of rounds, each op once untraced and then once
traced, and reports per-layer metrics from the traced ops plus the
difference between the two (the tracing overhead).  Its fixed size is what
makes its counters exact.  Every metric prints as `name value unit`; the
last line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops above it
EXACT_COUNTERS = ("machine.steps", "machine.run.calls", "fan.realizer.runs",
                  "kripke.answer.calls", "trees.contains.calls")
EXACT_FILE = HERE / "exact_counters.json"
MAX_TRACEBACKS = 3


def load_fanlab() -> SimpleNamespace:
    """Import the package afresh from this checkout's `src/`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fanlab" or n.startswith("fanlab.")]:
        del sys.modules[name]
    cli = importlib.import_module("fanlab.cli")
    where = Path(sys.modules["fanlab"].__file__).resolve().parent
    if where != (SRC / "fanlab").resolve():
        raise ImportError(f"fanlab was imported from {where}, not from {SRC}")
    mods = sys.modules
    return SimpleNamespace(machine=mods["fanlab.machine"], kripke=mods["fanlab.kripke"],
                           trees=mods["fanlab.trees"], fan=mods["fanlab.fan"], cli=cli)


def lru_caches(fl) -> list:
    found = {}
    for mod in vars(fl).values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


class Loop:
    """Runs, times and checks ops; counts failures and keeps latencies."""

    def __init__(self, fl, wl, plant: bool):
        self.fl = fl
        self.wl = wl
        self.caches = lru_caches(fl)
        self.cache_info = {key: getattr(fn, "cache_info", None) for key, fn in (
            ("machine.decode", fl.machine.decode_program),
            ("machine.compile", getattr(fl.machine, "_compiled_from_code", None)))}
        self.plant = plant
        self.latencies: list[float] = []
        self.failed = 0
        self.attempted = 0

    def timed(self, seconds: float) -> float:
        """Whole rounds, at least one, until the ops have taken `seconds`;
        returns the time they took."""
        busy = 0.0
        i = 0
        while i == 0 or busy < seconds:
            for case in self.wl.round(i):
                busy += self.one(case)
            i += 1
        return busy

    def traced(self, rounds: int, tracer: Tracer) -> tuple[float, float]:
        """Each op of the first `rounds` rounds untraced and then traced, so
        the two runs of an op sit close in time; returns both totals."""
        untraced = traced = 0.0
        for i in range(rounds):
            for case in self.wl.round(i):
                untraced += self.one(case)
                traced += self.one(case, tracer)
        return untraced, traced

    def one(self, case, tracer: Tracer | None = None) -> float:
        for cache in self.caches:
            cache.cache_clear()
        plant = self.plant and self.attempted == 0
        self.attempted += 1
        error = None
        if tracer is not None:
            tracer.install(self.fl)
            tracer.op_id = self.attempted - 1
            tracer.enter("op")
        start = perf_counter()
        try:
            out = self.wl.op(case)
        except Exception as exc:  # an unexpected raise is a failed op
            out, error = None, exc
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.exit()
                tracer.uninstall()
        if tracer is not None:
            for key, info in self.cache_info.items():
                if info is not None:
                    now = info()  # the caches were emptied before the op
                    tracer.counts[key + ".hits"] += now.hits
                    tracer.counts[key + ".misses"] += now.misses
        if error is None:
            try:
                ok = self.wl.check(case, out, plant)
            except Exception as exc:  # a malformed output is a failed op
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            self.failed += 1
            if error is not None and self.failed <= MAX_TRACEBACKS:
                traceback.print_exception(error, file=sys.stderr)
        self.latencies.append(elapsed)
        return elapsed


def end_to_end(setups: list[float], loop: Loop, busy: float) -> tuple[dict, list[str]]:
    lat = sorted(loop.latencies)
    n = len(lat)
    tail_rank = max(n - TAIL_BEYOND, 1)  # 1-based rank with TAIL_BEYOND ops above it
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_tail_s": (lat[tail_rank - 1], "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    notes = [
        f"# setup_s is the median of {len(setups)} set-ups",
        f"# op_tail_s is p{100 * tail_rank / n:.1f} of {n} ops, {n - tail_rank} above it",
        # Printed but not in BENCHMARK.json: it flips between the host's
        # fast and slow phases and spread past any allowed bound (NOTES.md).
        f"op_p50_s {statistics.median(lat)} s",
    ]
    return metrics, notes


def per_layer(t: Tracer, traced_s: float, untraced_s: float) -> dict:
    c = t.counts
    run_self = t.self_s("machine.run")
    compiles = c["machine.compile.hits"] + c["machine.compile.misses"]
    realizer_runs = t.calls("fan.realizer")
    selfruns = c["trees.selfrun.runs"]
    op_s = t.totals["op"][1]
    layers = {
        "machine": ("machine.run", "machine.decode", "machine.encode"),
        "kripke": ("kripke.answer", "kripke.check"),
        "fan": ("fan.extract", "fan.realizer", "fan.cover"),
        "trees": ("trees.levels",),
        "cli": ("cli.main",),
        "bench": ("op",),
    }
    share = {f"share.{layer}": (sum(t.self_s(s) for s in spans) / op_s, "ratio")
             for layer, spans in layers.items()}
    return {
        "machine.run.calls": (t.calls("machine.run"), "count"),
        "machine.run.self_s": (run_self, "s"),
        "machine.steps": (c["machine.steps"], "count"),
        "machine.steps_per_s": (c["machine.steps"] / run_self if run_self else 0.0, "1/s"),
        "machine.queries": (c["machine.queries"], "count"),
        "machine.decode.hits": (c["machine.decode.hits"], "count"),
        "machine.decode.misses": (c["machine.decode.misses"], "count"),
        "machine.decode.s": (t.self_s("machine.decode"), "s"),
        "machine.decode.bits": (c["machine.decode.bits"], "bits"),
        "machine.compile.hit_ratio": (c["machine.compile.hits"] / compiles if compiles else 0.0,
                                      "ratio"),
        "machine.encode.calls": (t.calls("machine.encode"), "count"),
        "machine.encode.s": (t.self_s("machine.encode"), "s"),
        "kripke.answer.calls": (t.calls("kripke.answer"), "count"),
        "kripke.answer.self_s": (t.self_s("kripke.answer"), "s"),
        "kripke.answer.blocked": (c["kripke.answer.blocked"], "count"),
        "kripke.ground.decider_runs": (c["kripke.ground.decider_runs"], "count"),
        "fan.extract.calls": (t.calls("fan.extract"), "count"),
        "fan.extract.self_s": (t.self_s("fan.extract"), "s"),
        "fan.stages": (c["fan.stages"], "count"),
        "fan.realizer.runs": (realizer_runs, "count"),
        "fan.realizer.self_s": (t.self_s("fan.realizer"), "s"),
        "fan.path.reads": (c["fan.path.reads"], "count"),
        "fan.cover.calls": (t.calls("fan.cover"), "count"),
        "fan.cover.s": (t.self_s("fan.cover"), "s"),
        "fan.cover.checks_per_run": (c["fan.cover.checks"] / realizer_runs if realizer_runs else 0.0,
                                     "ratio"),
        "trees.levels.self_s": (t.self_s("trees.levels"), "s"),
        "trees.contains.calls": (c["trees.contains.calls"], "count"),
        "trees.members": (c["trees.members"], "count"),
        "trees.selfrun.runs": (selfruns, "count"),
        "trees.selfrun.settled_ratio": (c["trees.selfrun.settled"] / selfruns if selfruns else 0.0,
                                        "ratio"),
        "cli.main.calls": (t.calls("cli.main"), "count"),
        "cli.self_s": (t.self_s("cli.main"), "s"),
        "trace.op_s": (traced_s, "s"),
        "trace.untraced_op_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        **share,
    }


def exact_counter_note(workload: str, seed: int, metrics: dict) -> list[str]:
    got = {k: metrics[k][0] for k in EXACT_COUNTERS}
    lines = [f"# exact-counters {json.dumps(got, sort_keys=True)}"]
    stored = json.loads(EXACT_FILE.read_text()).get(workload, {}).get(str(seed))
    if stored is not None:
        differ = sorted(k for k in EXACT_COUNTERS if stored.get(k) != got[k])
        lines.append("# exact-counters match the stored values" if not differ else
                     f"# exact-counters differ from the stored values: {', '.join(differ)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-reference", action="store_true",
                        help="check the first op against a wrong reference (self-check)")
    args = parser.parse_args(argv)

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            fl = load_fanlab()
            wl = WORKLOADS[args.workload](fl, args.seed)
            setups.append(perf_counter() - start)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    loop = Loop(fl, wl, args.plant_wrong_reference)
    lines = [f"# workload {args.workload} seed {args.seed} trace {args.trace}"]
    if not args.trace:
        busy = loop.timed(args.seconds)
        metrics, notes = end_to_end(setups, loop, busy)
        lines += notes
    else:
        tracer = Tracer()
        untraced, traced = loop.traced(wl.trace_rounds, tracer)
        metrics = per_layer(tracer, traced, untraced)
        lines += exact_counter_note(args.workload, args.seed, metrics)
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, {"workload": args.workload, "seed": args.seed,
                          "rounds": wl.trace_rounds})
        lines.append(f"# spans written to {out.relative_to(HERE.parent)}")
    lines.append(f"failed_ratio {loop.failed / loop.attempted} ratio "
                 f"({loop.failed} of {loop.attempted})")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
