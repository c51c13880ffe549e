"""Command-line interface: checking, running, verifying and rendering.

Exit code is 0 exactly when the requested check or verification passes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import load_catalog
from .engine import Configuration, EngineError, TraceFormatError, format_trace, format_trace_tsv
from .geometry import dump_rotations
from .pentagrid import enumerate_levels
from .railway import Side, SwitchKind, SwitchState, cross
from .render import ViewSide, render_scenario
from .rules import InvarianceReport, RuleConflictError, RuleParseError, load_rule_files, minimal_form, parse_rules
from .scenarios import SCENARIOS, CrossingMode, check_crossing, oracle_mode
from .verify import check_catalog_invariance, verify_all, verify_scenario


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    """Every leaf subcommand sets ``handler``, the function ``main`` calls with the parsed arguments."""
    parser = argparse.ArgumentParser(prog="dodecagrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rules = sub.add_parser("rules", help="rule table utilities")
    rules_sub = rules.add_subparsers(dest="rules_command", required=True)
    check = rules_sub.add_parser("check", help="check rotation invariance of rule files")
    source = check.add_mutually_exclusive_group()
    source.add_argument("files", nargs="*", type=Path, default=[], help="rule files (default: shipped catalog)")
    source.add_argument("--rules", type=Path, default=None, help="rule directory to check instead")
    check.set_defaults(handler=_cmd_rules_check)
    minform = rules_sub.add_parser("minform", help="print the minimal form of one rule")
    minform.add_argument("rule", help="rule literal, e.g. 'W W W B W W B B B W W W W -> W'")
    minform.set_defaults(handler=_cmd_rules_minform)

    rotations = sub.add_parser("rotations", help="rotation group utilities")
    rotations_sub = rotations.add_subparsers(dest="rotations_command", required=True)
    dump = rotations_sub.add_parser("dump", help="print all 60 rotations as face permutations")
    dump.set_defaults(handler=_cmd_rotations_dump)

    scenario = sub.add_parser("scenario", help="scenario catalog")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    listing = scenario_sub.add_parser("list", help="print all scenario names")
    listing.set_defaults(handler=_cmd_scenario_list)

    run_p = sub.add_parser("run", help="run a scenario and print its trace")
    run_p.add_argument("--scenario", required=True, choices=SCENARIOS)
    run_p.add_argument("--steps", type=_non_negative_int, default=None)
    run_p.add_argument("--emit", choices=("paper", "tsv"), default="paper")
    run_p.add_argument("--rules", type=Path, default=None)
    run_p.set_defaults(handler=_cmd_run)

    verify_p = sub.add_parser("verify", help="run every check of one scenario")
    verify_p.add_argument("--scenario", required=True, choices=SCENARIOS)
    verify_p.add_argument("--rules", type=Path, default=None)
    verify_p.add_argument("--golden", type=Path, default=None)
    verify_p.set_defaults(handler=_cmd_verify)

    verify_all_p = sub.add_parser("verify-all", help="run the whole verification matrix")
    verify_all_p.add_argument("--rules", type=Path, default=None)
    verify_all_p.add_argument("--golden", type=Path, default=None)
    verify_all_p.set_defaults(handler=_cmd_verify_all)

    oracle = sub.add_parser("oracle", help="abstract railway-model oracle")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    crossings = oracle_sub.add_parser("crossings", help="print (exit, new state) for a crossing")
    crossings.add_argument("--kind", required=True, choices=[k.value for k in SwitchKind])
    crossings.add_argument("--mode", required=True, choices=[m.value for m in CrossingMode])
    crossings.add_argument("--lat", default=Side.LEFT.value, choices=[s.value for s in Side])
    crossings.set_defaults(handler=_cmd_oracle_crossings)

    pentagrid = sub.add_parser("pentagrid", help="Fibonacci tree of the pentagrid")
    pentagrid_sub = pentagrid.add_subparsers(dest="pentagrid_command", required=True)
    levels = pentagrid_sub.add_parser("levels", help="print number/kind/coordinate per node")
    levels.add_argument("--depth", type=_non_negative_int, required=True)
    levels.set_defaults(handler=_cmd_pentagrid_levels)

    render_p = sub.add_parser("render", help="render a scenario frame as SVG")
    render_p.add_argument("--scenario", required=True, choices=SCENARIOS)
    render_p.add_argument("--time", type=_non_negative_int, default=0)
    render_p.add_argument("--side", choices=[v.value for v in ViewSide], default="above")
    render_p.add_argument("--out", type=Path, required=True)
    render_p.add_argument("--rules", type=Path, default=None)
    render_p.set_defaults(handler=_cmd_render)

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
    exit_taken, new_state = cross(SwitchState(kind, lat), oracle_mode(mode, lat))
    print(f"exit {exit_taken.value}, selected {new_state.selected.value}")
    return 0


def _cmd_pentagrid_levels(args: argparse.Namespace) -> int:
    for level in enumerate_levels(args.depth):
        for node in level:
            print(f"{node.number} {node.kind.value} {node.coord}")
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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, RuleParseError, TraceFormatError) as exc:
        # fail closed: a missing or malformed golden or rule file is a configuration error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, RuleConflictError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
