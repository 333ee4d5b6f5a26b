"""The CLI transcript: every recorded command still prints the same bytes
and exits with the same code (see scripts/cli_transcript.py)."""

import importlib
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _recorder(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave scripts/ as it is
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("cli_transcript")


def test_transcript_lists_the_recorded_commands(monkeypatch):
    recorder = _recorder(monkeypatch)
    records = json.loads(recorder.TRANSCRIPT.read_text())
    assert [(r["argv"], r.get("seed")) for r in records] == recorder.commands()


def test_cli_output_matches_the_transcript(monkeypatch):
    recorder = _recorder(monkeypatch)
    moved = [
        (record, now)
        for record in json.loads(recorder.TRANSCRIPT.read_text())
        if (now := recorder.capture(record["argv"], record.get("seed"))) != record
    ]
    assert moved == []
