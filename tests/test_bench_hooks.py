"""The benchmark's tracer wraps fanlab attributes by name: each must exist,
be replaced while the tracer is installed, and come back afterwards."""

import importlib
import sys
from pathlib import Path

import fanlab
import fanlab.cli  # the tracer wraps all five modules
from fanlab.fan import BarRealizer, take_prefix_program
from fanlab.machine import encode_program

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracer = importlib.import_module("tracer").Tracer()
    originals = {}
    try:
        tracer.install(fanlab)
        for owner, attr, original in tracer._saved:
            originals[owner, attr] = original
            assert getattr(owner, attr) is not original, (owner, attr)
        hooked = {(owner.__name__, attr) for owner, attr in originals}
        assert {("fanlab.fan", "apply_realizer_to_path"), ("PathOracle", "read"),
                ("CoverSet", "commit"), ("CoverSet", "covers"),
                ("CoverSet", "covering_prefix"), ("CoverSet", "uncovered")} <= hooked
        # take-2 runs 5 times over stages 0-2 and reads 2 path bits each run.
        take2 = BarRealizer(encode_program(take_prefix_program(2)))
        assert fanlab.fan.extract_bound(take2).n == 2
        assert tracer.calls("fan.realizer") == 5
        assert tracer.counts["fan.path.reads"] == 10
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)
