"""Command driver: assembler round trips, record formats, exit codes."""

import io
import contextlib
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fanlab import cli, trees
from fanlab.cli import (
    AsmError,
    default_family,
    format_instruction,
    format_program,
    main,
    parse_assembly,
    parse_family_file,
)
from fanlab.fan import first_bit_split_program, take_prefix_program
from fanlab.machine import (
    BLOCK_ALL,
    Answer,
    Decjz,
    FnOracle,
    Halt,
    Inc,
    Jmp,
    Query,
    encode_program,
    random_program,
)


ASM_DIR = Path(__file__).resolve().parents[1] / "scripts" / "asm"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv: str) -> tuple[int, list[str]]:
    """Exit code and payload lines (header and wall-time comments dropped)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    return code, lines


def source(program) -> str:
    """Assembly text of a program: one instruction per line, no indices."""
    return "\n".join(map(format_instruction, program))


def full_output(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Assembler

GOLDEN_ASM = """\
# counts r1 down, bumping r0 twice per unit
start:  DECJZ r1 done
        INC r0
        INC r0
        JMP start
done:   QUERY r0 r2   # ask about the total
        HALT
"""


def test_parse_assembly_golden():
    program = parse_assembly(GOLDEN_ASM)
    assert program == (
        Decjz(1, 4), Inc(0), Inc(0), Jmp(0), Query(0, 2), Halt(),
    )


def test_assembly_listing_reparses_to_same_program():
    program = parse_assembly(GOLDEN_ASM)
    assert parse_assembly(source(program)) == program
    with pytest.raises(TypeError, match="not an instruction: 'INC r0'"):
        format_instruction("INC r0")


@settings(max_examples=200)
@given(seed=st.integers(min_value=0))
def test_random_programs_round_trip_through_assembly(seed):
    program = random_program(random.Random(seed))
    assert parse_assembly(source(program)) == program


def test_numeric_targets_and_case():
    assert parse_assembly("jmp 99") == (Jmp(99),)
    assert parse_assembly("Inc R4") == (Inc(4),)


def test_blank_and_comment_lines_ignored():
    assert parse_assembly("\n# nothing\n   \nHALT\n") == (Halt(),)


ASM_ERRORS = {  # text: line, column, message
    "INC rx": (1, 5, "expected a register like r0, got 'rx'"),
    "BUMP r1": (1, 1, "unknown mnemonic 'BUMP'"),
    "INC r1 r2": (1, 1, "INC takes 1 operand(s), got 2"),
    "JMP nowhere": (1, 5, "undefined label 'nowhere'"),
    "a:\na: HALT": (2, 1, "duplicate label 'a'"),
    "HALT\n  DECJZ r0 missing": (2, 12, "undefined label 'missing'"),
    "decjz r0": (1, 1, "DECJZ takes 2 operand(s), got 1"),
    "halt r0": (1, 1, "HALT takes 0 operand(s), got 1"),
    "QUERY r0 5": (1, 10, "expected a register like r0, got '5'"),
    "DECJZ x r9": (1, 7, "expected a register like r0, got 'x'"),
    "1x: HALT": (1, 1, "bad label '1x'"),
}


@pytest.mark.parametrize(
    "text,line,column", [(text, line, column) for text, (line, column, _) in ASM_ERRORS.items()]
)
def test_asm_errors_carry_position(text, line, column):
    with pytest.raises(AsmError) as info:
        parse_assembly(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {ASM_ERRORS[text][2]}"


# ---------------------------------------------------------------------------
# Commands

def test_asm_then_decode_same_listing(tmp_path):
    f = tmp_path / "p.asm"
    f.write_text(GOLDEN_ASM)
    code, asm_lines = run_cli("asm", str(f))
    assert code == 0
    program_code = asm_lines[0].split()[1]
    code, dec_lines = run_cli("decode", program_code)
    assert code == 0
    assert asm_lines == dec_lines


def test_encode_prints_only_code(tmp_path):
    f = tmp_path / "p.asm"
    f.write_text("HALT\n")
    code, lines = run_cli("encode", str(f))
    assert code == 0 and lines == ["code 76"]


def digit_limit() -> int | None:
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else None


@pytest.mark.parametrize("command", ["encode", "asm", "decode", "extract-bound"])
def test_codes_past_the_digit_limit(command, tmp_path, capsys):
    """The take-7 realizer's code has 8,756 digits, twice Python's default
    int/str limit; each command takes it or prints it whole, and leaves the
    limit as it found it."""
    program = take_prefix_program(7)
    listing = format_program(program).splitlines()
    f = tmp_path / "take7.asm"
    f.write_text(source(program) + "\n")
    limit = digit_limit()
    status, lines = run_cli("encode", str(f))
    assert status == 0 and len(lines) == 1 and lines[0].startswith("code ")
    text = lines[0].removeprefix("code ")
    assert len(text) == 8756 and text.isdigit()
    if command == "asm":
        assert run_cli("asm", str(f)) == (0, [f"code {text}"] + listing)
    elif command == "decode":
        assert run_cli("decode", text) == (0, [f"code {text}"] + listing)
    elif command == "extract-bound":
        status, lines = run_cli("extract-bound", "--realizer", text)
        assert status == 0 and lines[0] == "bound 7" and len(lines) == 1 + 2**7
        assert run_cli("extract-bound", "--realizer", str(f)) == (0, lines)
    assert "Traceback" not in capsys.readouterr().err
    assert digit_limit() == limit


def test_no_digit_limit_to_lift(monkeypatch):
    """Python 3.10.0 to 3.10.6 has no int/str digit limit: the CLI runs as
    it is and sets none."""
    sets = []
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.setattr(sys, "set_int_max_str_digits", sets.append, raising=False)
    assert run_cli("decode", "76") == (0, ["code 76", "0: HALT"])
    assert sets == []


def test_eval_record_format(tmp_path):
    f = tmp_path / "probe.asm"
    f.write_text("INC r1\nQUERY r1 r0\nHALT\n")
    code, lines = run_cli("eval", str(f), "0")
    assert code == 0
    assert lines[0] == "outcome Blocked 1"
    assert lines[1] == "steps 2"
    assert "max-query none" in lines
    assert "max-slice 1" in lines

    code, lines = run_cli("eval", str(f), "0", "--node", "0,0")
    assert lines[0] == "outcome Converged 0"
    assert "query 1 No" in lines

    # Entry 1 at the node flips position 0 of slice 1 into the set.
    code, lines = run_cli("eval", str(f), "0", "--node", "0,1")
    assert lines[0] == "outcome Converged 1"
    assert "query 1 Yes" in lines
    assert "max-query 1" in lines


def test_eval_identity_at_root():
    code, lines = run_cli("eval", "76", "9", "--node", "")
    assert code == 0 and lines[0] == "outcome Converged 9"


def test_census_golden():
    code, lines = run_cli("census", "--tree", "at-most-k-ones 1", "--depth", "5")
    assert code == 0
    assert lines == ["0 1 1", "1 2 2", "2 3 4", "3 4 8", "4 5 16", "5 6 32"]


def test_census_scan_mode_agrees():
    _, frontier = run_cli("census", "--tree", "kleene", "--depth", "7")
    _, scan = run_cli("census", "--tree", "kleene", "--depth", "7", "--scan")
    assert frontier == scan


def test_wwkl_records():
    assert run_cli("wwkl", "--tree", "full") == (0, ["witness none"])
    assert run_cli("wwkl", "--tree", "zeros") == (0, ["witness 1"])
    assert run_cli("wwkl", "--tree", "at-most-k-ones 1") == (0, ["witness 3"])


def test_kleene_command():
    code, lines = run_cli("kleene", "--depth", "8")
    assert code == 0
    assert "level 8 1" in lines
    assert "witness 11100000" in lines


def test_extract_bound_golden(tmp_path):
    f = tmp_path / "split.asm"
    f.write_text(source(first_bit_split_program()) + "\n")
    code, lines = run_cli("extract-bound", "--realizer", str(f))
    assert code == 0
    assert lines == ["bound 2", "00 0", "01 0", "10 10", "11 11"]


def test_extract_bound_stage_limit_exit(tmp_path):
    f = tmp_path / "take5.asm"
    f.write_text(source(take_prefix_program(5)) + "\n")
    code, lines = run_cli("extract-bound", "--realizer", str(f), "--max", "3")
    assert code == 1
    assert lines == ["no-bound stage 3 uncovered 8 reason stage limit"]


def test_extract_bound_fuel_exit_names_the_sequence():
    """first_zero answers at the path's first 0, so on all ones it runs
    until its fuel is gone; the stage-limit line is pinned above."""
    code, lines = run_cli("extract-bound", "--realizer", str(ASM_DIR / "first_zero.asm"))
    assert code == 1
    assert lines == [
        "no-bound stage 10 uncovered 1 reason realizer fuel sequence 1111111111 steps 1000000"
    ]


@pytest.mark.parametrize("program, line", [
    ((Inc(1), Inc(1), Inc(1), Query(1, 0)),  # asks query 3 of the empty oracle
     "no-bound stage 0 uncovered 1 reason realizer blocked query 3 sequence - steps 4"),
    ((*[Inc(0)] * 10, Halt()),  # always 10, the code of 0000: wrong on the path 1
     "no-bound stage 1 uncovered 2 reason invalid realizer output (0, 0, 0, 0) "
     "differs from the path at position 0 sequence 1 steps 11"),
])
def test_extract_bound_failed_run_exit_names_the_sequence(program, line):
    assert run_cli("extract-bound", "--realizer", str(encode_program(program))) == (1, [line])


@pytest.mark.parametrize("length,status", [(9, 2), (8, 0)])
def test_extract_bound_rejects_nodes_reaching_the_path_slice(length, status, tmp_path, capsys):
    """Slice 8 carries the path; a node of length 9 would answer it too."""
    family = tmp_path / "family.txt"
    family.write_text("".join(f"{k}: pattern 10\n" for k in range(10)))
    node = ",".join(["0"] * (length - 1) + ["1"])
    code, lines = run_cli("extract-bound", "--realizer", str(ASM_DIR / "first_bit.asm"),
                          "--family", str(family), "--node", node)
    err = capsys.readouterr().err
    assert code == status and "Traceback" not in err
    if status == 2:
        assert lines == [] and "error: a node of length 9 reaches path slice 8" in err
    else:
        assert lines == ["bound 1", "0 0", "1 1"]


def _decider_loop_files(tmp_path) -> dict[str, Path]:
    loop = tmp_path / "loop.asm"
    loop.write_text("loop: JMP loop\n")
    family = tmp_path / "family.txt"
    family.write_text("0: pattern 10\n1: loop.asm\n")
    probe = tmp_path / "probe.asm"
    probe.write_text("INC r1\nQUERY r1 r0\nHALT\n")  # asks pair(1, 0) = 1
    return {"loop": loop, "family": family, "probe": probe}


@pytest.mark.parametrize("command", ["census", "eval", "extract-bound"])
def test_non_settling_deciders_exit_2(command, tmp_path, capsys):
    files = _decider_loop_files(tmp_path)
    if command == "census":
        argv = ("census", "--tree", f"decider {files['loop']}", "--fuel", "50")
        message = "error: decider exceeded fuel 50 at input 0"
    else:  # node 0,0 opens slice 1, whose ground real loops
        family = ("--family", str(files["family"]), "--node", "0,0")
        if command == "eval":
            argv = ("eval", str(files["probe"]), "0", *family)
        else:  # a realizer's base-oracle question is not a failed run
            argv = ("extract-bound", "--realizer", str(files["probe"]), *family)
        message = "error: decider exceeded fuel 100000 at input 0"
    assert run_cli(*argv) == (2, [])
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_verify_bound_exit_codes(tmp_path):
    assert run_cli("verify-bound", "--bar", "depth 3", "--depth", "3") == (0, ["verified true"])
    code, lines = run_cli("verify-bound", "--bar", "depth 3", "--depth", "2")
    assert code == 1 and lines == ["verified false"]
    table = tmp_path / "bar.tbl"
    table.write_text("0\n10\n11\n")
    assert run_cli("verify-bound", "--bar", f"table {table}", "--depth", "2")[0] == 0


def test_input_errors_exit_2(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli("census", "--tree", "bogus")[0] == 2
        assert run_cli("asm", str(tmp_path / "missing.asm"))[0] == 2
        bad = tmp_path / "bad.asm"
        bad.write_text("INC rQ\n")
        assert run_cli("asm", str(bad))[0] == 2
    assert "error:" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ("eval", str(ASM_DIR / "slice_probe.asm"), "0", "--node=0,0,-2"),
    ("kleene", "--depth", "4", "--node=-1"),
    ("census", "--tree", "kleene 0,-2", "--depth", "4"),
])
def test_negative_node_entries_exit_2(argv, capsys):
    """A node entry names a finite flip set, so it must be a natural; a
    negative one would shift into an infinite set."""
    assert run_cli(*argv) == (2, [])
    err = capsys.readouterr().err
    assert "error: bad node" in err and "must be naturals" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["asm", "family", "decider"])
def test_non_utf8_input_files_exit_2(command, tmp_path, capsys):
    f = tmp_path / "binary.asm"
    f.write_bytes(b"\xff\xfe\x00")
    argv = {
        "asm": ("asm", str(f)),
        "family": ("kleene", "--depth", "2", "--family", str(f)),
        "decider": ("census", "--tree", f"decider {f}", "--depth", "2"),
    }[command]
    assert run_cli(*argv) == (2, [])
    err = capsys.readouterr().err
    assert f"error: cannot read {f}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("eval", "76", "7", "--fuel", "-1"),
    ("extract-bound", "--realizer", "76", "--max", "-1"),
    ("census", "--tree", "zeros", "--depth", "-3"),
    ("kleene", "--depth", "-1"),
    ("wwkl", "--tree", "zeros", "--max", "-2"),
    ("verify-bound", "--bar", "depth 1", "--depth", "-1"),
    ("check", "census", "--fuel", "-5"),
    ("decode", "-1"),
    ("eval", "76", "seven"),
])
def test_negative_or_non_numeric_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "expected a natural number" in err
    assert "Traceback" not in err


def _exit_status(argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


@pytest.mark.parametrize("argv", [
    ("kleene", "--depth", "\u0663"),  # Arabic-Indic 3
    ("decode", "\u0667\u0666"),  # Arabic-Indic 76
    ("eval", "76", "1_0"),
    ("eval", "76", "0", "--fuel", " 5_0"),
    ("eval", "76", "0", "--fuel", "+5"),
])
def test_counts_take_only_ascii_digits(argv, capsys):
    """`int` reads these, the one grammar of naturals does not."""
    assert _exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "expected a natural number" in err and "Traceback" not in err


@pytest.mark.parametrize("node", ["\u0661", "1_0", "+1", "1,+2"])
def test_node_entries_take_only_ascii_digits(node, capsys):
    argv = ("eval", str(ASM_DIR / "slice_probe.asm"), "0", "--node", node)
    assert _exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "error: bad node" in err and "must be naturals" in err


@pytest.mark.parametrize("seed", ["x", "-1", "+1", "1_0", "\u0661", ""])
def test_seed_env_takes_only_naturals(seed, monkeypatch, capsys):
    monkeypatch.setenv("FANLAB_SEED", seed)
    assert _exit_status(("check", "persistence", "--trials", "2")) == 2
    err = capsys.readouterr().err
    assert "error: FANLAB_SEED must be a natural number" in err and "Traceback" not in err


def test_census_and_wwkl_take_no_node(capsys):
    for command in ("census", "wwkl"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--tree", "zeros", "--node", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fanlab {command} [-h] ")
        assert "unrecognized arguments: --node 1" in err


# Each sub-command and check suite: the options its --help lists, beside --help.
HELP_OPTIONS = {
    ("asm",): set(), ("encode",): set(), ("decode",): set(), ("check",): set(),
    ("eval",): {"--node", "--family", "--fuel"},
    ("kleene",): {"--depth", "--node", "--family"},
    ("census",): {"--tree", "--depth", "--scan", "--family", "--fuel"},
    ("wwkl",): {"--tree", "--max", "--family", "--fuel"},
    ("extract-bound",): {"--realizer", "--node", "--family", "--fuel", "--max"},
    ("verify-bound",): {"--bar", "--depth", "--node", "--family", "--fuel"},
    ("check", "persistence"): {"--trials", "--fuel"},
    ("check", "lemma1"): {"--fuel"},
    ("check", "kleene"): {"--depth"},
    ("check", "extraction"): {"--trials"},
    ("check", "census"): {"--depth", "--fuel"},
}


def _help(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", sorted(HELP_OPTIONS), ids=" ".join)
def test_every_command_and_suite_answers_help_with_its_options(argv):
    assert argv[-1] in _help(argv[:-1])  # listed by its parent
    assert set(re.findall(r"--[a-z-]+", _help(argv))) == HELP_OPTIONS[argv] | {"--help"}


@pytest.mark.parametrize("argv", [
    ("check", "kleene", "--trials", "3"),  # kleene reads only --depth
    ("check", "lemma1", "--depth", "5"),  # lemma1 reads only --fuel
    ("check", "--trials", "3", "persistence"),  # options follow the suite name
    ("check", "--trials=3", "persistence"),
])
def test_check_refuses_options_its_suite_does_not_read(argv, capsys):
    assert _exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_check_usage_shows_that_options_follow_the_suite(capsys):
    """An option before the suite name is read as the suite: the message then
    names its value as an invalid choice, and the usage line shows the order."""
    assert _exit_status(("check", "--trials", "3", "persistence")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fanlab check SUITE [--OPTION N ...]\n")
    assert "argument suite: invalid choice" in err


PERSISTENCE_USAGE = "usage: fanlab check persistence [-h] [--trials TRIALS] [--fuel FUEL]\n"
# argv: the start of the usage it shows, and the arguments it names as unrecognized
UNRECOGNIZED = {
    ("check", "--trials=3", "persistence"): (PERSISTENCE_USAGE, "--trials=3"),
    ("check", "persistence", "--bogus=3"): (PERSISTENCE_USAGE, "--bogus=3"),
    ("check", "persistence", "--bogus", "3"): (PERSISTENCE_USAGE, "--bogus 3"),
    ("check", "kleene", "--trials", "3"): ("usage: fanlab check kleene [-h] [--depth DEPTH]\n",
                                           "--trials 3"),
    ("eval", "76", "0", "--bogus=1"): ("usage: fanlab eval [-h] ", "--bogus=1"),
}


@pytest.mark.parametrize("argv", list(UNRECOGNIZED), ids=" ".join)
def test_unrecognized_options_show_their_commands_usage(argv, capsys):
    """argparse hands an option no parser knows back to the top parser; the
    command's own parser, or under `check` the suite's, reports it, so the
    usage shown lists the options that command or suite takes."""
    usage, stray = UNRECOGNIZED[argv]
    assert _exit_status(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert f": error: unrecognized arguments: {stray}\n" in err


def test_check_suites_pass():
    for suite in sorted(cli._SUITES):
        code, lines = run_cli("check", suite)
        assert code == 0
        assert any(" pass " in f" {l} " for l in lines)


def test_output_deterministic_except_wall_time():
    code1, out1 = full_output("census", "--tree", "zeros", "--depth", "4")
    code2, out2 = full_output("census", "--tree", "zeros", "--depth", "4")
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("# wall-time")]
    assert (code1, strip(out1)) == (code2, strip(out2))
    assert out1.splitlines()[-1].startswith("# wall-time ")
    assert out1.splitlines()[0].startswith("# fanlab census inputs ")


def test_seed_env_fixes_randomized_suite(monkeypatch):
    monkeypatch.setenv("FANLAB_SEED", "7")
    code1, lines1 = run_cli("check", "persistence", "--trials", "40")
    code2, lines2 = run_cli("check", "persistence", "--trials", "40")
    assert code1 == code2 == 0
    assert lines1 == lines2


# ---------------------------------------------------------------------------
# One parser per process

def _without_wall_time(text: str) -> list[str]:
    return [l for l in text.splitlines() if not l.startswith("# wall-time")]


def test_parser_built_at_most_once(monkeypatch):
    builds = []
    real_build = cli.build_parser

    def counting_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (["census", "--tree", "zeros", "--depth", "3"], ["kleene", "--depth", "4"],
                 ["wwkl", "--tree", "full"], ["check", "lemma1"]):
        for _ in range(3):
            assert run_cli(*argv)[0] == 0
    assert len(builds) == 1


def test_check_lemma1_counts_starved_probes_as_failures():
    assert run_cli("check", "lemma1") == (0, ["slice-gate pass nodes 341 k-max 3 failures 0"])
    # At fuel 0 no probe settles: each of the 4 * 341 runs out of fuel.
    assert run_cli("check", "lemma1", "--fuel", "0") == (
        1, ["slice-gate fail nodes 341 k-max 3 failures 1364"])


# Failing verdicts: each fault is planted, and the command must print its
# `fail` line and exit 1.

def test_kleene_witness_outside_the_tree_fails(monkeypatch):
    """{0}(0) halts at once with 0, so a witness starting with 0 leaves the
    Kleene tree at level 1."""
    real = trees.SettleTable.witness
    monkeypatch.setattr(trees.SettleTable, "witness",
                        lambda self, n: (0, *real(self, n)[1:]))
    witness = trees.SettleTable(BLOCK_ALL).witness(14)
    assert witness[0] == 0 and not trees.kleene_tree().contains(witness)
    code, lines = run_cli("kleene", "--depth", "14")
    assert code == 1
    assert lines[-2:] == [f"witness {trees.format_bits(witness)}", "witness-check fail"]


def test_check_persistence_fails_on_an_oracle_that_changes_below_a_node(monkeypatch):
    """Answers that flip with the node's length: a run that asks a query
    and converges at a node gives another value at its child."""
    monkeypatch.setattr(cli, "node_oracle", lambda family, node: FnOracle(
        lambda q: Answer.YES if len(node) % 2 else Answer.NO))
    code, lines = run_cli("check", "persistence", "--trials", "200")
    assert code == 1
    assert len(lines) == 1
    assert re.fullmatch(r"persistence fail trials 200 failures [1-9][0-9]*", lines[0])


def test_check_census_fails_when_the_census_differs_from_the_scan(monkeypatch):
    real = trees.level_census
    monkeypatch.setattr(trees, "level_census",
                        lambda tree, n_max: (*real(tree, n_max)[:-1], real(tree, n_max)[-1] + 1))
    assert run_cli("check", "census", "--depth", "3") == (
        1, ["census fail trees 4 depth 3 failures 4"])


def test_check_defaults_do_not_leak_between_calls():
    assert run_cli("check", "census", "--depth", "3")[1] == [
        "census pass trees 4 depth 3 failures 0"]
    assert run_cli("check", "census")[1] == ["census pass trees 4 depth 8 failures 0"]


def test_bad_call_leaves_the_next_call_as_in_a_fresh_process(capsys):
    good = ["kleene", "--depth", "20", "--node", "1,2"]
    fresh = subprocess.run(
        [sys.executable, "-m", "fanlab.cli", *good], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    expected = (fresh.returncode, _without_wall_time(fresh.stdout))
    for bad in (["kleene", "--depth", "x"], ["kleene", "--node", "-1"],
                ["census", "--tree", "bogus"], ["check", "nosuch"]):
        try:
            status = main(bad)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
        assert status == 2
        capsys.readouterr()
        code, out = full_output(*good)
        assert (code, _without_wall_time(out)) == expected, bad


# ---------------------------------------------------------------------------
# Family files

def test_family_file_patterns_and_deciders(tmp_path):
    asm = tmp_path / "odd.asm"
    asm.write_text("DECJZ r0 4\nDECJZ r0 3\nJMP 0\nINC r0\n")
    fam = tmp_path / "family.txt"
    fam.write_text("# slices\n0: pattern 10\n1: odd.asm\n")
    family = parse_family_file(str(fam))
    assert len(family) == 2
    assert family[0].contains(4) and not family[0].contains(3)
    assert family[1].contains(3) and not family[1].contains(4)


def test_family_file_pattern_keyword_is_a_whole_word(tmp_path):
    """Only a first word of exactly `pattern` starts a pattern: a decider
    path may begin with it, and `pattern101` is no pattern."""
    (tmp_path / "patterns").mkdir()
    (tmp_path / "patterns" / "dec.asm").write_text("DECJZ r0 4\nDECJZ r0 3\nJMP 0\nINC r0\n")
    fam = tmp_path / "family.txt"
    fam.write_text("0: pattern 10\n1: patterns/dec.asm\n")
    family = parse_family_file(str(fam))
    assert family[1].contains(3) and not family[1].contains(4)
    fam.write_text("0: pattern101\n")
    with pytest.raises(cli.CliInputError, match="cannot read"):
        parse_family_file(str(fam))


def test_family_file_requires_contiguous_indices(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("0: pattern 1\n2: pattern 0\n")
    with pytest.raises(ValueError):
        parse_family_file(str(fam))


def test_default_family_has_six_slices():
    family = default_family()
    assert len(family) == 6
    assert family[0].contains(0) and not family[0].contains(1)


# ---------------------------------------------------------------------------
# Fuzzing the argument parser and the input files

@pytest.fixture(scope="module")
def fuzz_vocabulary(tmp_path_factory) -> tuple[list[str], dict[str, list[str]]]:
    """Argument values, and per command a cheap baseline the values override."""
    tmp = tmp_path_factory.mktemp("fuzz")
    files = _decider_loop_files(tmp)
    ten = tmp / "ten.txt"
    ten.write_text("".join(f"{k}: pattern 01\n" for k in range(10)))
    table = tmp / "bar.tbl"
    table.write_text("0\n10\n11\n")
    bad_table = tmp / "bad.tbl"
    bad_table.write_text("0\n2\n")
    binary = tmp / "binary.asm"
    binary.write_bytes(b"\xff\xfe\x00")
    # '²' passes str.isdigit but not int: register, jump target, family index.
    superscripts = [tmp / "register.asm", tmp / "target.asm", tmp / "index.txt"]
    for path, text in zip(superscripts, ("INC r²\n", "JMP ²\n", "²: pattern 1\n")):
        path.write_text(text)
    paths = [str(p) for p in sorted(ASM_DIR.glob("*.asm"))] + [
        str(files["loop"]), str(files["probe"]), str(files["family"]), str(ten),
        str(table), str(binary), *map(str, superscripts), str(tmp / "missing.asm"), str(tmp),
    ]
    values = paths + [
        "0", "1", "2", "3", "-1", "-7", "x", "1.5", "", "76", "²",
        "0,1", "0,-2", "1,x", ",", "0,0,0,0,0,0,0", "0,0,0,0,0,0,0,0,1",
        "full", "zeros", "kleene", "kleene 0,2", "kleene 1,x", 'kleene "',
        "at-most-k-ones 1", "at-most-k-ones", "at-most-k-ones -1", "at-most-k-ones ²", "bogus",
        f"decider {files['loop']}", f"decider {ASM_DIR / 'parity.asm'} 0,1",
        f"decider {tmp / 'missing.asm'}", "decider",
        "depth 2", "depth x", "depth ²", f"table {table}", f"table {bad_table}", "table",
        "persistence", "lemma1", "extraction", "census",
        "170141183460469231759357419826448433154",  # pair(2**64, 1): no list holds 2^64
    ]
    first_bit = str(ASM_DIR / "first_bit.asm")
    baseline = {
        "asm": [], "encode": [], "decode": [],
        "eval": ["--fuel", "2000"],
        "kleene": ["--depth", "6"],
        "census": ["--tree", "zeros", "--depth", "5", "--fuel", "2000"],
        "wwkl": ["--tree", "zeros", "--max", "5", "--fuel", "2000"],
        "extract-bound": ["--realizer", first_bit, "--max", "5", "--fuel", "20000"],
        "verify-bound": ["--bar", "depth 2", "--depth", "3", "--fuel", "2000"],
        "check": [],  # every suite refuses some option; at their defaults each takes < 0.1 s
    }
    return values, baseline


FLAGS = ["--node", "--family", "--fuel", "--depth", "--max", "--tree", "--bar",
         "--realizer", "--trials"]


@settings(max_examples=300)
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2_without_traceback(fuzz_vocabulary, data):
    """Any mix of commands, flags and (mostly bad) values ends in a documented
    exit code; baseline arguments come first, so drawn ones override them."""
    values, baseline = fuzz_vocabulary
    command = data.draw(st.sampled_from(sorted(baseline)))
    positionals = data.draw(st.lists(st.sampled_from(values), max_size=2))
    options = data.draw(st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(values)),
                                 max_size=3))
    extra = data.draw(st.lists(st.sampled_from(["--scan", "--", "-x"] + values), max_size=1))
    argv = [command, *positionals, *baseline[command],
            *(token for option in options for token in option), *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# Where each command reads a value by hand rather than through argparse.
HAND_PARSED = {
    "eval": (["{}", "0"], []),
    "asm": (["{}"], []),
    "census": ([], ["--tree", "{}"]),
    "verify-bound": ([], ["--bar", "{}"]),
    "extract-bound": ([], ["--realizer", "{}"]),
    "kleene": ([], ["--family", "{}"]),
}


@pytest.mark.parametrize("command", sorted(HAND_PARSED))
def test_cli_hand_parsed_slots_take_every_vocabulary_value(fuzz_vocabulary, command):
    """Every fuzz value in every slot the CLI parses by hand, which the random
    draws above reach too rarely to rely on: exit 0, 1 or 2, no traceback."""
    values, baseline = fuzz_vocabulary
    positionals, options = HAND_PARSED[command]
    for value in values:
        fill = lambda tokens: [t.replace("{}", value) for t in tokens]
        argv = [command, *fill(positionals), *baseline[command], *fill(options)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        assert status in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# README sessions

def _uncommented(line: str) -> str:
    """A README line without its trailing `# ...` comment."""
    return re.sub(r"\s+#.*", "", line)


def _readme_sessions() -> list[tuple[str, list[str]]]:
    """Each `$ fanlab ...` command of README's sh blocks, with the lines shown
    under it up to the next `$` line or the end of the block."""
    sessions, shown, in_sh = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh, shown = line == "```sh", None
        elif in_sh and line.startswith("$ "):
            shown = []
            if line.startswith("$ fanlab "):
                sessions.append((_uncommented(line[2:]), shown))
        elif shown is not None:
            shown.append(line)
    return sessions


README_SESSIONS = _readme_sessions()


def test_readme_shows_sixteen_sessions():
    assert len(README_SESSIONS) == 16


@pytest.mark.parametrize("command,shown", README_SESSIONS, ids=[c for c, _ in README_SESSIONS])
def test_readme_session(command, shown, tmp_path, monkeypatch):
    """The lines README shows appear in order in the command's stdout and
    stderr: `...` elides lines, a trailing `# ...` is a comment, and the
    `# wall-time` line is skipped.  The sessions run where `scripts/asm`
    and the `loop.asm` the census session names are found."""
    shutil.copytree(ASM_DIR, tmp_path / "scripts" / "asm")
    (tmp_path / "loop.asm").write_text("loop: JMP loop\n")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    assert argv[0] == "fanlab"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        main(argv[1:])
    expected = [line if line.startswith("#") else _uncommented(line)
                for line in shown if line != "..." and not line.startswith("# wall-time")]
    rest = iter(out.getvalue().splitlines())
    assert all(line in rest for line in expected), out.getvalue()
