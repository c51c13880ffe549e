"""dodecagrid benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload verify-matrix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, so no install is needed.  Every sample is a fresh, single-threaded
child process (``sample.py``), started one at a time, so no cache of the
package carries over from one sample to the next.

``--trace 0`` repeats samples for ``--seconds`` seconds (at least three) and
reports medians of the end-to-end metrics.  Each sample times a fixed probe
loop before, during and after its operation, and its times are rescaled to a
host on which the probe takes ``PROBE_REFERENCE_S``: the host's speed drifts
by up to half for seconds at a time, which no number of samples averages
out.  ``--trace 1`` runs
two traced samples, which must agree on every count, untraced samples for
the rest of ``--seconds`` to measure the tracing overhead, and the engine
scaling sweep, and reports the per-layer metrics.  The metric names and units
are read from ``BENCHMARK.json`` next to this directory.

The first sample of every run also runs the workload's full output checks;
every other sample must produce the same output digest.  A sample that
crashes, fails a check or differs counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("verify-matrix", "long-track", "canon-sweep")
# the workload's own name for ops_per_s: what one unit of its work is
OPS_NAME = {"verify-matrix": "checks_per_s", "long-track": "cell_steps_per_s", "canon-sweep": "contexts_per_s"}
MIN_SAMPLES = 3
# Times are given for a host on which sample.probe() takes this long; a
# 2-core x86-64 VM running Python 3.11 takes about 19 ms in its fast phases
# and up to half as long again in its slow ones.
PROBE_REFERENCE_S = 0.020
DEADLINE_S = 170.0  # a run must end within 180 s
# per-layer metrics that are counts and must repeat exactly between two traced samples
EXACT = (
    "rules.minimal_context.calls",
    "rules.lookup.calls",
    "rules.lookup.distinct",
    "rules.lookup.hit_ratio",
    "rules.lookup.explicit",
    "rules.lookup.fallback",
    "rules.lookup.missing",
    "engine.step.calls",
    "engine.context_of.calls",
    "engine.cell_steps",
    "engine.changed_per_evaluated",
    "catalog.load_catalog.calls",
    "railway.cross.calls",
)


class Run:
    """The children of one benchmark run, all sharing one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""), PYTHONHASHSEED="0")
        # users' commands load cached bytecode, which the warm-up child writes
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.longest = 0.0
        self.errors: list[str] = []

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, mode: str) -> dict | list | None:
        """One sample in a fresh process; None, with the reason in ``errors``, when it fails to report."""
        spawned = time.perf_counter()
        command = [sys.executable, str(BENCH / "sample.py"), self.workload, str(self.seed), mode, repr(spawned)]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(1.0, self.time_left())
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} sample killed at the run deadline")
            return None
        finally:
            self.longest = max(self.longest, time.perf_counter() - spawned)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        return json.loads(lines[-1])

    def room_for_another(self) -> bool:
        return self.time_left() > 2 * self.longest + 5

    def samples(self, seconds: float, at_least: int) -> list[dict | None]:
        out: list[dict | None] = []
        begin = time.perf_counter()
        while (len(out) < at_least or time.perf_counter() - begin < seconds) and self.room_for_another():
            out.append(self.child("plain"))
        return out


def judge(checked: dict | None, others: list[dict | None]) -> tuple[int, list[str]]:
    """Failed samples: the checked one if its checks fail, any other whose digest differs."""
    problems = [] if checked is None else checked["problems"]
    good = None if checked is None or problems else checked["digest"]
    failed = int(good is None) + sum(1 for s in others if s is None or s["digest"] != good)
    return failed, problems


def scaled(samples: list[dict], key: str) -> list[float]:
    """Each sample's ``key`` time rescaled to the reference host speed by the sample's probe."""
    return [s[key] * PROBE_REFERENCE_S / s["probe_s"] for s in samples]


def end_to_end(samples: list[dict]) -> dict[str, float]:
    wall = statistics.median(scaled(samples, "wall_s"))
    return {
        "wall_s": wall,
        "setup_s": statistics.median(scaled(samples, "setup_s")),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "ops_per_s": samples[0]["work"] / wall,
    }


def host_notes(samples: list[dict]) -> list[str]:
    """Quartiles of the scaled times, and the unscaled medians they come from."""
    out = []
    for key in ("wall_s", "setup_s"):
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(scaled(samples, key), n=4)
            out.append(f"{key} quartiles {q1:.6g} .. {q3:.6g} s")
        out.append(f"{key} unscaled median {statistics.median(s[key] for s in samples):.6g} s")
    out.append(f"probe median {1e3 * statistics.median(s['probe_s'] for s in samples):.4g} ms")
    return out


def layer_metrics(traced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample, its times rescaled like the end-to-end ones."""
    layers, lookup, cells = traced["layers"], traced["lookup"], traced["cells"]
    scale = PROBE_REFERENCE_S / traced["probe_s"]
    mc = layers["rules.minimal_context"]
    calls = layers["rules.lookup"]["calls"]
    out = {
        "rules.minimal_context.calls": mc["calls"],
        "rules.minimal_context.self_s": mc["self_s"] * scale,
        "rules.minimal_context.us_per_call": 1e6 * mc["self_s"] * scale / mc["calls"] if mc["calls"] else 0.0,
        "rules.lookup.calls": calls,
        "rules.lookup.self_s": layers["rules.lookup"]["self_s"] * scale,
        "rules.lookup.hit_ratio": (calls - lookup["misses"]) / calls if calls else 0.0,
        "engine.step.calls": layers["engine.step"]["calls"],
        "engine.context_of.calls": layers["engine.context_of"]["calls"],
        "engine.cell_steps": cells["evaluated"],
        "engine.changed_per_evaluated": cells["changed"] / cells["evaluated"] if cells["evaluated"] else 0.0,
        "catalog.load_catalog.calls": layers["catalog.load_catalog"]["calls"],
        "railway.cross.calls": layers["railway.cross"]["calls"],
    }
    for key in ("distinct", "explicit", "fallback", "missing"):
        out[f"rules.lookup.{key}"] = lookup[key]
    for name in ("engine.step", "engine.context_of", "verify.verify_all", "cli.main"):
        out[f"{name}.self_s"] = layers[name]["self_s"] * scale
    for name in (
        "rules.load_rule_dir",
        "rules.check_rotation_invariance",
        "engine.run",
        "engine.CellGraph",
        "verify.check_rotation_group",
        "verify.check_catalog_invariance",
        "verify.check_golden",
        "verify.check_segment",
        "verify.check_bridge",
        "verify.check_oracle_agreement",
        "catalog.load_catalog",
        "catalog.load_golden_trace",
        "scenarios.build",
        "pentagrid.fibonacci_word",
        "geometry.enumerate_motions",
    ):
        out[f"{name}.s"] = layers[name]["s"] * scale
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and notes for the readable block."""
    run = Run(workload, seed)
    run.child("warm-up")  # writes the bytecode cache; its figures are discarded
    run.errors.clear()
    begin = time.perf_counter()
    if not trace:
        checked = run.child("check")
        others = run.samples(seconds - (time.perf_counter() - begin), MIN_SAMPLES - 1)
        failed, problems = judge(checked, others)
        timed = [s for s in [checked, *others] if s is not None]
        if not timed:
            raise RuntimeError("; ".join(run.errors) or "no sample completed")
        metrics = end_to_end(timed)
        notes = [f"ops_per_s is {OPS_NAME[workload]}", *host_notes(timed)]
        attempted = 1 + len(others)
    else:
        traced = [run.child("trace-check"), run.child("trace")]
        plain = run.samples(seconds - (time.perf_counter() - begin), 1)
        sweep = run.child("sweep")
        failed, problems = judge(traced[0], [traced[1], *plain])
        untraced = [s for s in plain if s is not None]
        if None in traced or sweep is None or not untraced:
            raise RuntimeError("; ".join(run.errors) or "a traced, untraced or sweep sample did not complete")
        per_sample = [layer_metrics(s) for s in traced]
        differ = [k for k in EXACT if per_sample[0][k] != per_sample[1][k]]
        if differ:
            problems.append(f"counts differ between two traced samples: {differ}")
            failed += 1
        metrics = {
            k: per_sample[0][k] if k in EXACT else statistics.median(m[k] for m in per_sample) for k in per_sample[0]
        }
        metrics.update({f"engine.step.s_per_step.{s['n']}": v for s, v in zip(sweep, scaled(sweep, "s_per_step"))})
        metrics["trace.overhead_s"] = statistics.median(scaled(traced, "wall_s")) - statistics.median(
            scaled(untraced, "wall_s")
        )
        notes = host_notes(untraced)
        attempted = len(traced) + len(plain)
    notes.append(f"{attempted} samples, {failed} failed, fail_ratio {failed / attempted:.4g}")
    notes += [f"problem: {p}" for p in problems + run.errors]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, notes


def report(workload: str, result: dict, notes: list[str], specs: list[dict]) -> dict:
    """Print a readable block; return ``result`` with the metrics named and united as in ``specs``."""
    values = result["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"== {workload}")
    for spec in specs:
        print(f"  {spec['name']:<42} {values[spec['name']]:>14.6g} {spec['unit']}")
    for note in notes:
        print(f"  {note}")
    return dict(result, metrics={s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "dodecagrid" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no dodecagrid package under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    specs = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, notes = measure(workload, args.seed, args.seconds, bool(args.trace))
            result = report(workload, result, notes, specs)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
