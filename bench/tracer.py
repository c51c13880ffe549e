"""Span tracing of the dodecagrid layers, installed from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper, in every ``dodecagrid`` module that bound the name, so that calls
made through ``from .x import y`` imports are traced too.  Each call records
one span (name, parent span, start, end) in flat arrays; nothing is written
until ``dump``.  ``uninstall`` puts the original functions back.

A layer's self time is its spans' durations minus the time covered by their
child spans.  Its inclusive time (``.s``) sums only the outermost spans of
that name, so a scenario build function that calls another is not counted
twice.  Both are corrected by the tracing cost per span that ``calibrate``
measures.

The wrappers on ``RuleTable.lookup``, ``minimal_context`` and ``engine.step``
also record counts that the span tree cannot give: the lookups that missed
the table's cache, the distinct contexts looked up, and how many cells each
step changed.  The step diff is itself a span (``bench.step_diff``), so it is
excluded from every layer time.
"""

from __future__ import annotations

import json
import operator
import sys
import time
from array import array
from functools import partial, wraps
from pathlib import Path

from dodecagrid import catalog, cli, engine, geometry, pentagrid, railway, rules, scenarios, verify

# span name -> (owner, attribute) of every wrapped callable
LAYERS: dict[str, list[tuple[object, str]]] = {
    "geometry.enumerate_motions": [(geometry, "enumerate_motions")],
    "rules.minimal_context": [(rules, "minimal_context")],
    "rules.load_rule_dir": [(rules, "load_rule_dir")],
    "rules.check_rotation_invariance": [(rules, "check_rotation_invariance")],
    "rules.lookup": [(rules.RuleTable, "lookup")],
    "engine.CellGraph": [(engine.CellGraph, "__init__")],
    "engine.context_of": [(engine, "context_of")],
    "engine.step": [(engine, "step")],
    "engine.run": [(engine, "run")],
    "catalog.load_catalog": [(catalog, "load_catalog")],
    "catalog.load_golden_trace": [(catalog, "load_golden_trace")],
    "scenarios.build": [
        (scenarios, "build_vertical_segment"),
        (scenarios, "build_horizontal_segment"),
        (scenarios, "build_bridge"),
        (scenarios, "build_switch"),
        (scenarios.NamedScenario, "build"),
    ],
    "pentagrid.fibonacci_word": [(pentagrid, "fibonacci_word")],
    "railway.cross": [(railway, "cross")],
    "verify.verify_all": [(verify, "verify_all")],
    "verify.check_rotation_group": [(verify, "check_rotation_group")],
    "verify.check_catalog_invariance": [(verify, "check_catalog_invariance")],
    "verify.check_golden": [(verify, "check_golden")],
    "verify.check_segment": [(verify, "check_segment")],
    "verify.check_bridge": [(verify, "check_bridge")],
    "verify.check_oracle_agreement": [(verify, "check_oracle_agreement")],
    "cli.main": [(cli, "main")],
}
STEP_DIFF = "bench.step_diff"
NAMES = tuple(LAYERS) + (STEP_DIFF,)
LOOKUP = NAMES.index("rules.lookup")
NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.name_ids = array("B")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []
        # counts taken at the lookup and step boundaries
        self._lookup_args: list[tuple] = [()]  # arguments of the latest lookup call
        self._enter_lookup = partial(operator.setitem, self._lookup_args, 0)
        self.lookup_misses = 0  # lookups that canonicalised
        self.missed: set[tuple[rules.RuleTable, rules.Context]] = set()
        self.changed = 0
        self.evaluated = 0
        # tracing cost of one span, per span name, set by calibrate
        self.outside_s = [0.0] * len(NAMES)
        self.inside_s = [0.0] * len(NAMES)

    def calibrate(self, n: int = 20_000, rounds: int = 5) -> None:
        """Measure what one traced call adds: ``outside`` its span, to its caller; ``inside``, to itself.

        Measured on a two-argument no-op, once for the lookup wrapper, which
        does more work than the others, and once for the rest.  Each figure is
        the least over ``rounds`` loops of ``n`` calls, so that a busy host
        inflates it as little as possible.
        """
        clock = time.perf_counter
        trial = Tracer()

        def noop(a, b) -> None:
            pass

        def least(call) -> tuple[float, float]:
            """Least loop time, and least time inside spans, over the rounds."""
            loop = spans = float("inf")
            for _ in range(rounds):
                for spans_array in (trial.name_ids, trial.parents, trial.starts, trial.ends):
                    del spans_array[:]
                start = clock()
                for _ in range(n):
                    call(0, 1)
                loop = min(loop, clock() - start)
                spans = min(spans, sum(trial.ends) - sum(trial.starts))
            return loop, spans

        empty, _ = least(lambda a, b: None)  # the loop and one call
        plain, _ = least(noop)
        costs = {}
        for name in ("rules.lookup", "engine.context_of"):
            wrapped, inside = least(trial._wrap(noop, name))
            costs[name] = ((wrapped - empty - inside) / n, (inside - (plain - empty)) / n)
        for k, name in enumerate(NAMES):
            outside, inside = costs["rules.lookup" if k == LOOKUP else "engine.context_of"]
            self.outside_s[k], self.inside_s[k] = max(0.0, outside), max(0.0, inside)

    def _open(self, name_id: int) -> int:
        sid = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(sid)
        return sid

    def _wrap(self, fn, name: str):
        name_id = NAMES.index(name)
        open_span, stack, starts, ends, clock = self._open, self._stack, self.starts, self.ends, time.perf_counter
        before = {"rules.lookup": self._enter_lookup, "rules.minimal_context": self._enter_minimal}.get(name)
        after = self._count_changes if name == "engine.step" else None

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = open_span(name_id)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args[1], result)
            return result

        return traced

    def _enter_minimal(self, args: tuple) -> None:
        # every context a table answers misses its cache once, so the missed
        # (table, context) pairs are exactly the distinct ones looked up
        parent = self._stack[-1]
        if parent != NO_PARENT and self.name_ids[parent] == LOOKUP:
            self.lookup_misses += 1
            self.missed.add(self._lookup_args[0])

    def _count_changes(self, old: engine.Configuration, new: engine.Configuration) -> None:
        sid = self._open(NAMES.index(STEP_DIFF))
        self.starts[sid] = time.perf_counter()
        before = old.states
        self.changed += sum(1 for cell, state in new.states.items() if before[cell] is not state)
        self.evaluated += len(new.states)
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        self.calibrate()
        modules = [m for n, m in sys.modules.items() if n == "dodecagrid" or n.startswith("dodecagrid.")]
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name)
                self._patch(owner, attr, original, wrapper)
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original and (module, alias) != (owner, attr):
                            self._patch(module, alias, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """One JSON header line naming the arrays, then their raw bytes in that order."""
        header = {
            "names": NAMES,
            "count": len(self.name_ids),
            "overhead_s": {"outside": self.outside_s, "inside": self.inside_s},
            "arrays": [["name_id", "B"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(out)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans, self seconds.

        Both times are corrected by the calibrated tracing cost, and the step
        diff spans are removed from their ancestors' inclusive time.
        """
        n = len(self.name_ids)
        names, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        outside, inside, diff = self.outside_s, self.inside_s, NAMES.index(STEP_DIFF)
        covered = [0.0] * n  # per span: its children's intervals plus their outside cost
        hidden = [0.0] * n  # per span: tracing cost and step diffs among its descendants
        for i in range(n - 1, -1, -1):  # children always follow their parent
            p = parents[i]
            if p != NO_PARENT:
                k, d = names[i], ends[i] - starts[i]
                covered[p] += d + outside[k]
                hidden[p] += outside[k] + (d if k == diff else inside[k] + hidden[i])
        ancestors = [0] * n  # bit mask of the span names above each span
        calls = [0] * len(NAMES)
        inclusive = [0.0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            k, p = names[i], parents[i]
            if p != NO_PARENT:
                ancestors[i] = ancestors[p] | (1 << names[p])
            d = ends[i] - starts[i] - inside[k]
            calls[k] += 1
            self_s[k] += d - covered[i]
            if not ancestors[i] >> k & 1:
                inclusive[k] += d - hidden[i]
        return {
            name: {"calls": calls[k], "s": max(0.0, inclusive[k]), "self_s": max(0.0, self_s[k])}
            for k, name in enumerate(NAMES)
        }

    def lookup_outcomes(self) -> dict[str, int]:
        """Classify each distinct looked-up context; call only after ``uninstall``."""
        out = {"distinct": len(self.missed), "explicit": 0, "fallback": 0, "missing": 0}
        for table, ctx in self.missed:
            if table.has_explicit(ctx):
                out["explicit"] += 1
            elif rules.blank_count(ctx) >= rules.DEFAULT_BLANK_THRESHOLD:
                out["fallback"] += 1
            else:
                out["missing"] += 1
        return out
