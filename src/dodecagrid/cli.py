"""Command-line interface: checking, running, verifying and rendering.

Exit code is 0 exactly when the requested check or verification passes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .catalog import load_catalog
from .engine import Configuration, EngineError, TraceFormatError, format_trace, format_trace_tsv
from .geometry import dump_rotations
from .pentagrid import tree_nodes
from .railway import CrossingMode, Side, SwitchKind, SwitchState, cross
from .render import ViewSide, render_scenario
from .rules import InvarianceReport, RuleConflictError, RuleParseError, load_rule_files, minimal_form, parse_rules
from .scenarios import SCENARIOS, check_crossing
from .verify import check_catalog_invariance, verify_all, verify_scenario


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_rules(parser: argparse.ArgumentParser) -> None:
    rules_sub = parser.add_subparsers(dest="rules_command", required=True)
    check = rules_sub.add_parser("check", help="check rotation invariance of rule files")
    source = check.add_mutually_exclusive_group()
    source.add_argument("files", nargs="*", type=Path, default=[], help="rule files (default: shipped catalog)")
    source.add_argument("--rules", type=Path, default=None, help="rule directory to check instead")
    check.set_defaults(handler=_cmd_rules_check)
    minform = rules_sub.add_parser("minform", help="print the minimal form of one rule")
    minform.add_argument("rule", help="rule literal, e.g. 'W W W B W W B B B W W W W -> W'")
    minform.set_defaults(handler=_cmd_rules_minform)


def _add_rotations(parser: argparse.ArgumentParser) -> None:
    rotations_sub = parser.add_subparsers(dest="rotations_command", required=True)
    dump = rotations_sub.add_parser("dump", help="print all 60 rotations as face permutations")
    dump.set_defaults(handler=_cmd_rotations_dump)


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    scenario_sub = parser.add_subparsers(dest="scenario_command", required=True)
    listing = scenario_sub.add_parser("list", help="print all scenario names")
    listing.set_defaults(handler=_cmd_scenario_list)


def _add_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--steps", type=_non_negative_int, default=None)
    parser.add_argument("--emit", choices=("paper", "tsv"), default="paper")
    parser.add_argument("--rules", type=Path, default=None)
    parser.set_defaults(handler=_cmd_run)


def _add_verify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--rules", type=Path, default=None)
    parser.add_argument("--golden", type=Path, default=None)
    parser.set_defaults(handler=_cmd_verify)


def _add_verify_all(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rules", type=Path, default=None)
    parser.add_argument("--golden", type=Path, default=None)
    parser.set_defaults(handler=_cmd_verify_all)


def _add_oracle(parser: argparse.ArgumentParser) -> None:
    oracle_sub = parser.add_subparsers(dest="oracle_command", required=True)
    crossings = oracle_sub.add_parser("crossings", help="print (exit, new state) for a crossing")
    crossings.add_argument("--kind", required=True, choices=[k.value for k in SwitchKind])
    crossings.add_argument("--mode", required=True, choices=[m.value for m in CrossingMode])
    crossings.add_argument("--lat", default=Side.LEFT.value, choices=[s.value for s in Side])
    crossings.set_defaults(handler=_cmd_oracle_crossings)


def _add_pentagrid(parser: argparse.ArgumentParser) -> None:
    pentagrid_sub = parser.add_subparsers(dest="pentagrid_command", required=True)
    levels = pentagrid_sub.add_parser("levels", help="print number/kind/coordinate per node")
    levels.add_argument("--depth", type=_non_negative_int, required=True)
    levels.set_defaults(handler=_cmd_pentagrid_levels)


def _add_render(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--time", type=_non_negative_int, default=0)
    parser.add_argument("--side", choices=[v.value for v in ViewSide], default="above")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--rules", type=Path, default=None)
    parser.set_defaults(handler=_cmd_render)


# each top-level command, in help order: its one-line help and the function that adds its arguments
_COMMANDS = {
    "rules": ("rule table utilities", _add_rules),
    "rotations": ("rotation group utilities", _add_rotations),
    "scenario": ("scenario catalog", _add_scenario),
    "run": ("run a scenario and print its trace", _add_run),
    "verify": ("run every check of one scenario", _add_verify),
    "verify-all": ("run the whole verification matrix", _add_verify_all),
    "oracle": ("abstract railway-model oracle", _add_oracle),
    "pentagrid": ("Fibonacci tree of the pentagrid", _add_pentagrid),
    "render": ("render a scenario frame as SVG", _add_render),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for a command line whose first word is ``command``; every leaf subcommand sets ``handler``.

    When ``command`` names a top-level command, only that command's subparser
    is built, since ``parse_args`` would never enter another; otherwise (no
    arguments, ``-h``, an unknown word) all are.  The one-subparser parser
    gets the metavar the full one would derive from its choices, so its usage
    line is the same; the full one keeps ``metavar=None``, whose error texts
    name the argument ``command``.
    """
    parser = argparse.ArgumentParser(prog="dodecagrid", description=__doc__)
    if command in _COMMANDS:
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _cmd_rules_check(args: argparse.Namespace) -> int:
    try:
        load_rule_files(args.files) if args.files else load_catalog(args.rules)
        report = InvarianceReport(())  # a table that exists is invariant
    except RuleConflictError as exc:
        report = exc.report
    print(report)
    return 0 if report.ok else 1


def _cmd_rules_minform(args: argparse.Namespace) -> int:
    rules = parse_rules(args.rule, source="<arg>")
    if len(rules) != 1:
        print("error: expected exactly one rule literal", file=sys.stderr)
        return 2
    print(minimal_form(rules[0]))
    return 0


def _cmd_rotations_dump(args: argparse.Namespace) -> int:
    print(dump_rotations())
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    for name in SCENARIOS:
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    table = load_catalog(args.rules)
    trace = SCENARIOS[args.scenario].build().run(table, args.steps)
    emit = format_trace if args.emit == "paper" else format_trace_tsv
    sys.stdout.write(emit(trace))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.scenario].build()
    if args.golden is not None and not scenario.crossing:
        message = f"scenario {args.scenario!r} has no golden trace; only switch scenarios take --golden"
        print(f"error: {message}", file=sys.stderr)
        return 2
    invariance, table = check_catalog_invariance(args.rules)
    if table is None:
        print(invariance.line())  # the line verify-all prints for this catalogue
        return 1
    results = verify_scenario(scenario, table, args.golden)
    for result in results:
        print(result.line())
    return 0 if all(r.ok for r in results) else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    results = verify_all(args.rules, args.golden)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.ok)
    print(f"\n{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_oracle_crossings(args: argparse.Namespace) -> int:
    kind, mode, lat = SwitchKind(args.kind), CrossingMode(args.mode), Side(args.lat)
    try:
        check_crossing(kind, lat, mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exit_taken, new_state = cross(SwitchState(kind, lat), mode)
    print(f"exit {exit_taken.value}, selected {new_state.selected.value}")
    return 0


def _cmd_pentagrid_levels(args: argparse.Namespace) -> int:
    for number, kind, coord in tree_nodes(args.depth):
        print(f"{number} {kind.value} {coord}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    table = load_catalog(args.rules)
    scenario = SCENARIOS[args.scenario].build()
    trace = scenario.run(table, args.time)
    frame = Configuration(trace.states_at(args.time), args.time)
    svg = render_scenario(scenario, frame, ViewSide(args.side))
    args.out.write_text(svg)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so a reader that closed stdout early is met here, not in the interpreter's last flush
        return status
    except BrokenPipeError:  # the reader closed stdout: exit as SIGPIPE would, with the last flush to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (OSError, RuleParseError, TraceFormatError) as exc:
        # fail closed: a missing, unreadable or malformed golden or rule file is a configuration error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, RuleConflictError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
