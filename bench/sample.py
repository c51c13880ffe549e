"""One benchmark sample in a fresh process: set up, run the timed operation once, check.

Usage: python3 sample.py WORKLOAD SEED MODE SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so ``setup_s`` covers
interpreter start, imports, table load and scenario build.  ``MODE`` is:

- ``plain``: untimed output digest only;
- ``check``: also run the workload's full output checks;
- ``trace`` / ``trace-check``: as above, with the layer tracer installed
  around set-up and the timed operation;
- ``sweep``: time ``engine.run`` per step on vertical segments of growing size;
- ``warm-up``: import only, so that bytecode is compiled before timing.

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import namedtuple
from contextlib import redirect_stdout
from pathlib import Path

from dodecagrid import catalog, cli, engine, geometry, rules, scenarios, verify
from dodecagrid.rules import MissingRuleError
from tracer import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
SWEEP_SIZES = (250, 500, 1000)


class VerifyMatrix:
    """``dodecagrid verify-all`` with the default ``jobs``, as users run it."""

    def setup(self, seed: int) -> None:
        pass

    def work(self) -> int:
        return 32  # checks in the matrix

    def run(self) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["verify-all"])
        return code, out.getvalue()

    def digest(self, result: tuple[int, str]) -> str:
        code, text = result
        return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()

    def check(self, result: tuple[int, str]) -> list[str]:
        code, text = result
        lines = text.strip().splitlines()
        problems = [] if code == 0 else [f"exit code {code}"]
        checks = [line for line in lines[:-1] if line.strip()]
        problems += [f"not a pass: {line}" for line in checks if not line.startswith("PASS")]
        if len(checks) != self.work() or lines[-1] != f"{self.work()}/{self.work()} checks passed":
            problems.append(f"last line reads {lines[-1]!r} after {len(checks)} checks")
        return problems


class LongTrack:
    """A 1000-element vertical segment forward, then a k=200 horizontal one backward."""

    def setup(self, seed: int) -> None:
        self.table = catalog.load_catalog()
        self.segments = [
            scenarios.build_vertical_segment(1000),
            scenarios.build_horizontal_segment(200, forward=False),
        ]

    def work(self) -> int:
        return sum(len(s.graph) * s.default_steps for s in self.segments)  # cell-steps

    def run(self) -> list[engine.Trace]:
        return [s.run(self.table) for s in self.segments]

    def digest(self, result: list[engine.Trace]) -> str:
        h = hashlib.sha256()
        for trace in result:
            h.update(repr(trace.cell_ids).encode())
            for t, states in trace.rows:
                h.update(t.to_bytes(4, "little") + bytes(states))
        return h.hexdigest()

    def check(self, result: list[engine.Trace]) -> list[str]:
        problems = []
        for scenario, trace in zip(self.segments, result):
            rows = verify.chain_rows(trace, scenario.track_cells)
            found = verify.locomotive_progress(rows) + verify.one_d_violations(rows)
            final = trace.states_at(trace.rows[-1][0])
            stuck = [c for c in scenario.segment_cells if final[c] is not rules.W]
            if stuck:
                found.append(f"segment cells not white at the end: {stuck[:5]}")
            if len(trace.rows) != scenario.default_steps + 1:
                found.append(f"{len(trace.rows)} rows for {scenario.default_steps} steps")
            problems += [f"{scenario.name}: {p}" for p in found[:3]]
        return problems


class CanonSweep:
    """A fresh rule table, then ``RuleTable.lookup`` over a seeded context stream.

    The stream holds every catalogue rule under 5 random rotations, 4000
    sparse contexts (at most 2 non-white neighbours) and 6000 uniform ones,
    shuffled.  A ``MissingRuleError`` is an answer here, not a failure.
    """

    ROTATIONS_PER_RULE = 5
    SPARSE = 4000
    UNIFORM = 6000

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.table = rules.load_rule_dir(catalog.default_rules_dir())
        self.invariance = rules.check_rotation_invariance(self.table.rules)
        rng = random.Random(seed)
        perms = geometry.enumerate_motions()
        states = tuple(rules.CellState)
        stream: list[tuple[rules.Context, rules.CellState | None]] = []
        for rule in self.table.rules:
            for _ in range(self.ROTATIONS_PER_RULE):
                stream.append((rules.rotated_context(rule.context, rng.choice(perms)), rule.new_state))
        for _ in range(self.SPARSE):
            neighbors = [rules.W] * geometry.FACE_COUNT
            for face in rng.sample(range(geometry.FACE_COUNT), rng.randint(0, 2)):
                neighbors[face] = rng.choice((rules.B, rules.R))
            stream.append((rules.Context(rng.choice(states), tuple(neighbors)), None))
        for _ in range(self.UNIFORM):
            neighbors = tuple(rng.choice(states) for _ in range(geometry.FACE_COUNT))
            stream.append((rules.Context(rng.choice(states), neighbors), None))
        rng.shuffle(stream)
        self.contexts = [ctx for ctx, _ in stream]
        self.expected = [want for _, want in stream]

    def work(self) -> int:
        return len(self.contexts)  # contexts answered

    def run(self) -> list[rules.CellState | None]:
        lookup = self.table.lookup
        answers = []
        for ctx in self.contexts:
            try:
                answers.append(lookup(ctx))
            except MissingRuleError:
                answers.append(None)
        return answers

    def digest(self, result: list[rules.CellState | None]) -> str:
        return hashlib.sha256(bytes(3 if a is None else a for a in result)).hexdigest()

    def _answer(self, ctx: rules.Context) -> rules.CellState | None:
        try:
            return self.table.lookup(ctx)
        except MissingRuleError:
            return None

    def check(self, result: list[rules.CellState | None]) -> list[str]:
        problems = [] if self.invariance.ok else [str(self.invariance)]
        for ctx, want, got in zip(self.contexts, self.expected, result):
            if want is not None and got is not want:
                problems.append(f"rotated catalogue context {ctx}: got {got}, rule says {want.letter}")
        rng = random.Random(f"check-{self.seed}")
        perms = geometry.enumerate_motions()
        for ctx, got in dict(zip(self.contexts, result)).items():
            minimal = rules.minimal_context(ctx)
            if rules.minimal_context(minimal) != minimal:
                problems.append(f"minimal form of {ctx} is not a fixed point")
            rotated = rules.rotated_context(ctx, rng.choice(perms))
            if rules.minimal_context(rotated) != minimal:
                problems.append(f"{ctx} and its rotation {rotated} have different minimal forms")
            if self._answer(rotated) is not got:
                problems.append(f"{ctx} and its rotation {rotated} get different answers")
        return problems[:5]


WORKLOADS = {"verify-matrix": VerifyMatrix, "long-track": LongTrack, "canon-sweep": CanonSweep}


PROBE_ROUNDS = 8  # one probe; a tick of the timer below runs a short one
TICK_ROUNDS = 1
TICK_S = 0.1
_PROBE_PORTS = {c: tuple((c + 37 * f) % 4999 for f in range(12)) for c in range(1000)}
_ProbeCtx = namedtuple("_ProbeCtx", "current neighbors")


def probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds per ``PROBE_ROUNDS`` rounds of a fixed dict-and-tuple loop shaped like an engine step.

    It calls nothing in the package, so ``run.py`` can use it to rescale a
    sample's times to a reference host speed.  The collector is off, so the
    size of the package's heap does not change the figure.
    """
    states = {c: c % 3 for c in range(4999)}
    cache: dict = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            new = {}
            for cell, links in _PROBE_PORTS.items():
                ctx = _ProbeCtx(states[cell], tuple(states[link] for link in links))
                hit = cache.get(ctx)
                if hit is None:
                    hit = cache[ctx] = (ctx.current + min(ctx.neighbors)) % 3
                new[cell] = hit
            states.update(new)
        return (time.perf_counter() - start) * PROBE_ROUNDS / rounds
    finally:
        gc.enable()


class Probed:
    """Times an operation, with probes before, after, and every ``TICK_S`` during it.

    The host's speed changes within seconds, so a long operation is probed
    from a ``SIGALRM`` handler while it runs; the handler's time is taken out
    of ``seconds``.  ``probe_s`` is the mean of all the probes.
    """

    def __enter__(self) -> "Probed":
        self.probes = [probe()]
        self._in_ticks = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe(TICK_ROUNDS))
        self._in_ticks += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = end - self._start - self._in_ticks
        self.probes.append(probe())
        self.probe_s = statistics.fmean(self.probes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def sample(name: str, seed: int, mode: str, spawned: float) -> dict:
    workload = WORKLOADS[name]()
    tracer = None
    if mode.startswith("trace"):
        tracer = Tracer()
        tracer.install()
    workload.setup(seed)
    ready = time.perf_counter()
    with Probed() as timed:
        result = workload.run()
        rss = peak_rss_mb()
    out = {
        "setup_s": ready - spawned,
        "wall_s": timed.seconds,
        "probe_s": timed.probe_s,
        "peak_rss_mb": rss,
        "work": workload.work(),
        "digest": workload.digest(result),
    }
    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{name}-{mode}.spans")
        out["layers"] = tracer.layer_totals()
        out["lookup"] = {"misses": tracer.lookup_misses, **tracer.lookup_outcomes()}
        out["cells"] = {"changed": tracer.changed, "evaluated": tracer.evaluated}
    if mode.endswith("check"):
        out["problems"] = workload.check(result)
    return out


def sweep() -> list[dict]:
    """Seconds per ``engine.run`` step on vertical segments of each size in ``SWEEP_SIZES``."""
    table = catalog.load_catalog()
    out = []
    for n in SWEEP_SIZES:
        scenario = scenarios.build_vertical_segment(n)
        with Probed() as timed:
            scenario.run(table)
        out.append({"n": f"n{n}", "s_per_step": timed.seconds / scenario.default_steps, "probe_s": timed.probe_s})
    return out


def main(argv: list[str]) -> int:
    name, seed, mode, spawned = argv
    if mode == "warm-up":
        result = {}
    elif mode == "sweep":
        result = sweep()
    else:
        result = sample(name, int(seed), mode, float(spawned))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
