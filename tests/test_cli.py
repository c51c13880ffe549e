import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dodecagrid import catalog, cli
from dodecagrid.catalog import default_golden_dir, default_rules_dir, golden_path
from dodecagrid.cli import main
from dodecagrid.engine import trace_tokens
from dodecagrid.scenarios import SCENARIOS


TRACK_NAMES = list(SCENARIOS)[11:]  # after the 11 switch crossings


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_list(capsys):
    code, out, _ = run_cli(capsys, "scenario", "list")
    assert code == 0
    assert out.split() == list(SCENARIOS)


def test_rotations_dump(capsys):
    code, out, _ = run_cli(capsys, "rotations", "dump")
    assert code == 0
    assert len(out.strip().splitlines()) == 60


def test_rules_check_catalog_passes(capsys):
    code, out, _ = run_cli(capsys, "rules", "check")
    assert code == 0
    assert "ok" in out


def test_rules_check_reports_conflict(capsys, tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_text("W B W W W W W W W W W W W -> W\nW W B W W W W W W W W W W -> B\n")
    code, out, _ = run_cli(capsys, "rules", "check", str(bad))
    assert code == 1
    assert "FAILED" in out
    assert "bad.rules" in out


def test_rules_check_refuses_files_with_a_rules_dir(capsys):
    rules_dir = default_rules_dir()
    with pytest.raises(SystemExit) as raised:
        main(["rules", "check", str(rules_dir / "corner_motion.rules"), "--rules", str(rules_dir)])
    assert raised.value.code == 2
    assert "error: argument --rules: not allowed with argument files" in capsys.readouterr().err


def test_rules_minform(capsys):
    code, out, _ = run_cli(capsys, "rules", "minform", "R W B W W W B B B W W W B -> W")
    assert code == 0
    assert out.strip() == "R | W W W W W W W B B B B B -> W"


@pytest.mark.parametrize(
    "literal",
    ["", "R W B W W W B B B W W W B -> W\nW W W B W W B B B W W W W -> W"],
    ids=("none", "two"),
)
def test_rules_minform_rejects_wrong_literal_count(capsys, literal):
    assert run_cli(capsys, "rules", "minform", literal) == (2, "", "error: expected exactly one rule literal\n")


def test_run_matches_golden_tokens(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "memo-left-active")
    assert code == 0
    assert trace_tokens(out) == trace_tokens(golden_path("memo-left-active").read_text())


def test_run_tsv(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "vertical-fwd-n7", "--steps", "2", "--emit", "tsv")
    assert code == 0
    assert out.splitlines()[0].startswith("time\t1\t2")


def test_verify_single_scenario(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scenario", "flipflop-left-active")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_reports_divergence_with_location(capsys, tmp_path):
    src = default_golden_dir() / "memo-left-active.trace"
    tampered = src.read_text().splitlines()
    tampered[-1] = tampered[-1][:-1] + "R"  # flip the final token (cell 22, time 7)
    (tmp_path / "memo-left-active.trace").write_text("\n".join(tampered) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--scenario", "memo-left-active", "--golden", str(tmp_path))
    assert code == 1
    assert "time 7 cell 22" in out


def test_verify_missing_golden_fails_closed(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--scenario", "memo-left-active", "--golden", str(tmp_path))
    assert code == 2
    assert "golden trace missing" in err


@pytest.mark.parametrize("scenario", TRACK_NAMES)
def test_verify_track_scenario_rejects_golden(capsys, scenario):
    code, out, err = run_cli(capsys, "verify", "--scenario", scenario, "--golden", "/nonexistent")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: scenario {scenario!r} has no golden trace")


def _tampered_rules(tmp_path, filename, old, new):
    rules_dir = tmp_path / "rules"
    shutil.copytree(default_rules_dir(), rules_dir)
    target = rules_dir / filename
    text = target.read_text()
    assert old in text
    target.write_text(text.replace(old, new))
    return rules_dir


def test_flipped_rule_breaks_golden_run(capsys, tmp_path):
    # the scanned-cell arrival rule, flipped: the run derails where it first
    # fires and the engine reports the cell and step
    rules_dir = _tampered_rules(
        tmp_path,
        "memory_track_motion.rules",
        "W B B B W W B B B W W W B -> B",
        "W B B B W W B B B W W W B -> R",
    )
    code, out, _ = run_cli(capsys, "verify", "--scenario", "memo-left-active", "--rules", str(rules_dir))
    assert code == 1
    assert "cell 6 at time 4" in out


def test_verify_all_names_every_stranded_crossing(capsys, tmp_path):
    # the same flipped rule strands every active crossing; each is one run: line and the matrix goes on
    rules_dir = _tampered_rules(
        tmp_path,
        "memory_track_motion.rules",
        "W B B B W W B B B W W W B -> B",
        "W B B B W W B B B W W W B -> R",
    )
    code, out, err = run_cli(capsys, "verify-all", "--rules", str(rules_dir))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    failed = [line.split("  ")[1] for line in lines if line.startswith("FAIL")]
    assert failed == [
        "run:memo-left-active",
        "run:memo-right-active",
        "run:fixed-active",
        "run:flipflop-left-active",
        "run:flipflop-right-active",
    ]
    assert lines[2].startswith("FAIL  run:memo-left-active  (cell 6 at time 4: no rule covers context ")
    assert lines[-1] == "22/27 checks passed"


def test_verify_all_fails_an_unreadable_switch_end_state(capsys, tmp_path):
    rules_dir = _tampered_rules(
        tmp_path,
        "flipflop_motion.rules",
        "R W W R W W W R R R R R B -> B",
        "R W W R W W W R R R R R B -> W",
    )
    code, out, err = run_cli(capsys, "verify-all", "--rules", str(rules_dir))
    assert (code, err) == (1, "")
    reading = "switch cells read 17:R 18:W 19:B 20:W 21:W 22:W, no idle state of the flipflop switch"
    assert f"FAIL  oracle:flipflop-left-active  ({reading})" in out.splitlines()


def test_flipped_rule_can_surface_as_invariance_conflict(capsys, tmp_path):
    # this sensor rule shares its orbit with a marker rule; flipping it breaks
    # the invariance check before any trace is run, and verify prints the
    # same failed check line as verify-all
    rules_dir = _tampered_rules(
        tmp_path,
        "memory_sensor_motion.rules",
        "B W W R W W W W W W R R R -> R",
        "B W W R W W W W W W R R R -> B",
    )
    code, out, err = run_cli(capsys, "verify", "--scenario", "memo-left-nonsel", "--rules", str(rules_dir))
    all_code, all_out, _ = run_cli(capsys, "verify-all", "--rules", str(rules_dir))
    assert (code, err) == (1, "")
    assert out.startswith("FAIL  rule-catalog-invariance  (rotation-invariance conflict between [")
    assert "[memory_sensor_motion.rules:6]" in out
    assert all_code == 1
    assert out.splitlines() == [line for line in all_out.splitlines() if "rule-catalog-invariance" in line]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-all",),
        ("verify", "--scenario", "memo-left-active"),
        ("run", "--scenario", "memo-left-active"),
        ("render", "--scenario", "memo-left-active", "--out", "frame.svg"),
        ("rules", "check", "--rules", str(default_rules_dir())),
    ],
)
def test_each_command_reads_its_rules_once(capsys, monkeypatch, tmp_path, argv):
    # nothing keeps a table between calls, so a second read within one command would show here
    reads = 0
    original = catalog.load_rule_dir

    def counted(directory):
        nonlocal reads
        reads += 1
        return original(directory)

    monkeypatch.setattr(catalog, "load_rule_dir", counted)
    monkeypatch.chdir(tmp_path)  # render writes its frame here
    per_call = []
    for _ in range(2):
        reads = 0
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        per_call.append(reads)
    assert per_call == [1, 1]


def test_rules_check_dir_reports_conflict(capsys, tmp_path):
    # the same FAILED report as for rule files, not just the refused table's error
    rules_dir = _tampered_rules(
        tmp_path,
        "memory_sensor_motion.rules",
        "B W W R W W W W W W R R R -> R",
        "B W W R W W W W W W R R R -> B",
    )
    code, out, _ = run_cli(capsys, "rules", "check", "--rules", str(rules_dir))
    assert code == 1
    assert out.startswith("rotation invariance: FAILED")
    assert "memory_sensor_motion.rules:6" in out
    files = [str(p) for p in sorted(rules_dir.glob("*.rules"))]
    assert run_cli(capsys, "rules", "check", *files) == (code, out, "")


def test_verify_all_reports_a_conflicting_catalogue(capsys, tmp_path):
    # the conflict is a failed check; without a table nothing after it runs
    rules_dir = _tampered_rules(
        tmp_path,
        "memory_sensor_motion.rules",
        "B W W R W W W W W W R R R -> R",
        "B W W R W W W W W W R R R -> B",
    )
    code, out, err = run_cli(capsys, "verify-all", "--rules", str(rules_dir))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "PASS  rotation-group  (60 rotations, closed)"
    assert lines[1].startswith("FAIL  rule-catalog-invariance  (rotation-invariance conflict between [")
    assert "[memory_sensor_motion.rules:6]" in lines[1]
    assert lines[2:] == ["", "1/2 checks passed"]


def test_verify_all_malformed_rule_fails_closed(capsys, tmp_path):
    rules_dir = _tampered_rules(tmp_path, "straight_motion.rules", " -> ", " => ")
    code, out, err = run_cli(capsys, "verify-all", "--rules", str(rules_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: straight_motion.rules:")


def test_verify_malformed_golden_fails_closed(capsys, tmp_path):
    golden = tmp_path / "memo-left-active.trace"
    golden.write_text((default_golden_dir() / "memo-left-active.trace").read_text() + "time\n")
    argv = ["verify", "--scenario", "memo-left-active", "--golden", str(tmp_path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {golden}:")
    assert "malformed trace row: 'time'" in err


def test_verify_all_refuses_a_header_only_golden_file(capsys, tmp_path):
    golden_dir = tmp_path / "golden"
    shutil.copytree(default_golden_dir(), golden_dir)
    golden = golden_dir / "memo-left-active.trace"
    golden.write_text("".join(line for line in golden.read_text().splitlines(True) if not line.startswith("time ")))
    code, out, err = run_cli(capsys, "verify-all", "--golden", str(golden_dir))
    assert (code, out) == (2, "")
    assert err == f"error: {golden}: trace has no rows\n"


def _with_a_bad_byte(source_dir, target_dir, filename):
    """A copy of ``source_dir`` whose ``filename`` ends in byte 0xff, which is not UTF-8."""
    shutil.copytree(source_dir, target_dir)
    target = target_dir / filename
    target.write_bytes(target.read_bytes() + b"\xff\n")
    return target


@pytest.mark.parametrize("command", ["rules check", "verify-all"])
def test_a_rule_file_that_is_not_text_fails_closed(capsys, tmp_path, command):
    _with_a_bad_byte(default_rules_dir(), tmp_path / "rules", "straight_motion.rules")
    code, out, err = run_cli(capsys, *command.split(), "--rules", str(tmp_path / "rules"))
    assert (code, out) == (2, "")
    assert err.startswith("error: straight_motion.rules: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_verify_all_golden_file_that_is_not_text_fails_closed(capsys, tmp_path):
    golden = _with_a_bad_byte(default_golden_dir(), tmp_path / "golden", "fixed-sel.trace")
    code, out, err = run_cli(capsys, "verify-all", "--golden", str(tmp_path / "golden"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {golden}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_rules_check_of_a_directory_fails_closed(capsys, tmp_path):
    code, out, err = run_cli(capsys, "rules", "check", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_verify_golden_with_a_second_header_fails_closed(capsys, tmp_path):
    # a shorter first header over rows that omit cell 22 must not pass as the whole trace
    lines = golden_path("memo-left-sel").read_text().splitlines()
    header = next(line for line in lines if line[:1].isdigit())
    rows = [line for line in lines if line.startswith("time ")]
    short = [header.rsplit(" ", 1)[0]] + [row.rsplit(" ", 1)[0].rstrip() for row in rows[:4]]
    golden = tmp_path / "memo-left-sel.trace"
    golden.write_text("\n".join(short + [header] + rows[4:]) + "\n")
    code, out, err = run_cli(capsys, "verify", "--scenario", "memo-left-sel", "--golden", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: {golden}:6: second header line\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "vertical-fwd-n7", "--steps", "-3"],
        ["render", "--scenario", "vertical-fwd-n7", "--time", "-1", "--out", "frame.svg"],
        ["pentagrid", "levels", "--depth", "-1"],
    ],
)
def test_negative_count_rejected(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


VERIFY_ALL_OUTPUT = """\
PASS  rotation-group  (60 rotations, closed)
PASS  rule-catalog-invariance  (134 rules)
PASS  golden:memo-left-active  (8 rows match)
PASS  oracle:memo-left-active  (exit left, selected left)
PASS  golden:memo-left-sel  (8 rows match)
PASS  oracle:memo-left-sel  (exit u, selected left)
PASS  golden:memo-left-nonsel  (8 rows match)
PASS  oracle:memo-left-nonsel  (exit u, selected right)
PASS  golden:memo-right-active  (8 rows match)
PASS  oracle:memo-right-active  (exit right, selected right)
PASS  golden:memo-right-sel  (8 rows match)
PASS  oracle:memo-right-sel  (exit u, selected right)
PASS  golden:memo-right-nonsel  (8 rows match)
PASS  oracle:memo-right-nonsel  (exit u, selected left)
PASS  golden:fixed-active  (8 rows match)
PASS  oracle:fixed-active  (exit left, selected left)
PASS  golden:fixed-sel  (8 rows match)
PASS  oracle:fixed-sel  (exit u, selected left)
PASS  golden:fixed-nonsel  (8 rows match)
PASS  oracle:fixed-nonsel  (exit u, selected left)
PASS  golden:flipflop-left-active  (8 rows match)
PASS  oracle:flipflop-left-active  (exit left, selected right)
PASS  golden:flipflop-right-active  (8 rows match)
PASS  oracle:flipflop-right-active  (exit right, selected left)
PASS  segment:vertical-fwd-n7  (10 steps clean)
PASS  segment:vertical-rev-n7  (10 steps clean)
PASS  segment:horizontal-fwd-k5  (13 steps clean)
PASS  segment:horizontal-rev-k5  (13 steps clean)
PASS  bridge:v1-fwd  (clean traversal)
PASS  bridge:v1-rev  (clean traversal)
PASS  bridge:v0-fwd  (clean traversal)
PASS  bridge:v0-rev  (clean traversal)

32/32 checks passed
"""


def test_verify_all_passes(capsys):
    # every check's name and detail, in matrix order
    assert run_cli(capsys, "verify-all") == (0, VERIFY_ALL_OUTPUT, "")


def test_verify_all_runs_the_scenarios_in_registry_order():
    checked = [line[6:].split("  ")[0].partition(":")[2] for line in VERIFY_ALL_OUTPUT.splitlines()[2:-2]]
    assert list(dict.fromkeys(checked)) == list(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_verify_prints_the_scenarios_lines_of_verify_all(capsys, name):
    code, out, err = run_cli(capsys, "verify", "--scenario", name)
    assert (code, err) == (0, "")
    kinds = [line.split("  ")[1].partition(":")[0] for line in out.splitlines()]
    assert kinds in (["golden", "oracle"], ["segment"], ["bridge"])
    # VERIFY_ALL_OUTPUT is what verify-all prints (test_verify_all_passes); each check line names <kind>:<scenario>
    checks = [line for line in VERIFY_ALL_OUTPUT.splitlines() if line[6:].split("  ")[0].partition(":")[2] == name]
    assert out.splitlines() == checks


# every crossing check_crossing accepts, as (kind, mode, lat, scenario name, what the oracle prints)
ORACLE_CROSSINGS = [
    ("memory", "active", "left", "memo-left-active", "exit left, selected left"),
    ("memory", "sel", "left", "memo-left-sel", "exit u, selected left"),
    ("memory", "nonsel", "left", "memo-left-nonsel", "exit u, selected right"),
    ("memory", "active", "right", "memo-right-active", "exit right, selected right"),
    ("memory", "sel", "right", "memo-right-sel", "exit u, selected right"),
    ("memory", "nonsel", "right", "memo-right-nonsel", "exit u, selected left"),
    ("fixed", "active", "left", "fixed-active", "exit left, selected left"),
    ("fixed", "sel", "left", "fixed-sel", "exit u, selected left"),
    ("fixed", "nonsel", "left", "fixed-nonsel", "exit u, selected left"),
    ("flipflop", "active", "left", "flipflop-left-active", "exit left, selected right"),
    ("flipflop", "active", "right", "flipflop-right-active", "exit right, selected left"),
]


def test_oracle_crossings(capsys):
    code, out, _ = run_cli(capsys, "oracle", "crossings", "--kind", "memory", "--mode", "nonsel")
    assert code == 0
    assert out.strip() == "exit u, selected right"
    for kind, mode, lat, name, want in ORACLE_CROSSINGS:
        code, out, err = run_cli(capsys, "oracle", "crossings", "--kind", kind, "--mode", mode, "--lat", lat)
        assert (code, out, err) == (0, f"{want}\n", ""), name
        # the oracle line verify-all prints for the same crossing carries the same reading
        assert f"PASS  oracle:{name}  ({want})" in VERIFY_ALL_OUTPUT.splitlines(), name


@pytest.mark.parametrize("mode", ["sel", "nonsel"])
def test_oracle_crossings_rejects_passive_flipflop(capsys, mode):
    code, out, err = run_cli(capsys, "oracle", "crossings", "--kind", "flipflop", "--mode", mode)
    assert code == 2
    assert out == ""
    assert err.startswith("error: a flip-flop switch is only crossed actively")


@pytest.mark.parametrize("mode", ["active", "sel", "nonsel"])
def test_oracle_crossings_rejects_right_handed_fixed(capsys, mode):
    code, out, err = run_cli(capsys, "oracle", "crossings", "--kind", "fixed", "--mode", mode, "--lat", "right")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the fixed switch only exists left-handed")


def test_pentagrid_levels(capsys):
    code, out, _ = run_cli(capsys, "pentagrid", "levels", "--depth", "1")
    assert code == 0
    assert out.splitlines() == ["1 white 1", "2 black 10", "3 white 11", "4 white 101"]


def test_pentagrid_levels_output_is_pinned_at_depth_10(capsys):
    # every line to depth 10, 28 656 nodes, pinned by digest: order, kinds and coordinates alike
    code, out, _ = run_cli(capsys, "pentagrid", "levels", "--depth", "10")
    assert code == 0
    assert out.count("\n") == 28_656
    assert hashlib.sha256(out.encode()).hexdigest() == "defb90c9693e14acb7de50d4e3f8b10d6b9427e0d69b645aebabad3dd3212ea0"


def test_a_reader_that_closes_stdout_early_ends_the_command_quietly():
    # depth 10 prints about 870 KB, far more than a pipe holds, so writing hits the closed pipe;
    # the status is a SIGPIPE death's, not 2, which means a missing or malformed data file
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "dodecagrid.cli", "pentagrid", "levels", "--depth", "10"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"1 white 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


class ClosedPipe:
    """A stdout that takes every write and refuses the flush, as a pipe whose reader has gone does."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_reader_gone_before_the_last_flush_ends_the_command_quietly(capsys, monkeypatch, tmp_path):
    # an output that fits the stream's buffer is written only by its last flush, so main flushes
    # while it can still catch the error, then points the stream's descriptor at the null device
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
    try:
        assert main(["pentagrid", "levels", "--depth", "1"]) == 141
        os.write(fd, b"after")
    finally:
        os.close(fd)
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_render_writes_svg(capsys, tmp_path):
    out_path = tmp_path / "frame.svg"
    code, out, _ = run_cli(
        capsys, "render", "--scenario", "memo-left-active", "--time", "3", "--side", "below", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().startswith("<svg")


def test_unknown_scenario_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--scenario", "nope"])


COMMANDS = ["rules", "rotations", "scenario", "run", "verify", "verify-all", "oracle", "pentagrid", "render"]


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def parse_outcome(capsys, parser, argv):
    """What parsing ``argv`` gives: the namespace or the ``SystemExit`` code, then stdout and stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        ["--bogus", "verify-all"],
        ["-h", "verify-all"],
        ["verify-all"],
        ["verify-all", "-h"],
        ["verify-all", "extra"],  # the root parser reports it, with its usage line
        ["verify-all", "--rules"],
        ["run", "--scenario", "nope"],
        ["run", "--scenario", "v1-fwd", "--steps", "-1"],
        ["rules"],
        ["rules", "check", "-h"],
        ["oracle"],
        ["oracle", "crossings", "--kind", "memory", "--mode", "active"],
        ["pentagrid", "levels", "--depth", "2"],
        *([name, "--bogus"] for name in COMMANDS),  # verify-all --bogus among them
    ],
    ids=" ".join,
)
def test_the_one_command_parser_parses_as_the_full_one(capsys, argv):
    full = cli._build_parser()
    assert subcommands(full) == COMMANDS
    one = cli._build_parser(argv[0] if argv else None)
    assert subcommands(one) == ([argv[0]] if argv and argv[0] in COMMANDS else COMMANDS)
    assert parse_outcome(capsys, one, argv) == parse_outcome(capsys, full, argv)


@pytest.mark.parametrize("argv", [["scenario", "list"], ["-h"]])
def test_main_reads_sys_argv_and_builds_the_parser_of_its_first_word(capsys, monkeypatch, argv):
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or real(command))
    monkeypatch.setattr(sys, "argv", ["dodecagrid", *argv])
    if argv == ["-h"]:
        with pytest.raises(SystemExit) as raised:
            main()
        assert raised.value.code == 0
        usage = ["usage:", "dodecagrid", "[-h]", "{" + ",".join(COMMANDS) + "}", "..."]
        assert capsys.readouterr().out.split()[:5] == usage
    else:
        assert main() == 0
        assert capsys.readouterr().out.split() == list(SCENARIOS)
    assert built == [argv[0]]
