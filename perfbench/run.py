#!/usr/bin/env python3
"""Benchmark of the mfo package: time to a certified gap, solve and bridge latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload resource-fw --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Each workload
(``workloads.py``) is a closed loop over inputs drawn from ``--seed``:
every input runs once, then round-robin until ``--seconds`` have passed.
``--trace 0`` prints every end-to-end figure with its unit and sample
count; ``--trace 1`` alternates traced and untraced cycles on the same
input and prints per-layer figures per traced cycle (``spans.py``).
README.md defines each figure and says which ones BENCHMARK.json gates.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json declares for
the mode.  Operations are solves, CLI verbs and output checks; the exit
code is 1 when any of them failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
SETUP_CYCLE = -1        # cycle id of the spans recorded while building the inputs


def import_program():
    """Import mfo from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mfo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mfo package under {src}")
    sys.path.insert(0, str(src))
    import mfo
    import mfo.cli  # noqa: F401  (the cli-bridge workload calls it)

    if Path(mfo.__file__).resolve().parent != (src / "mfo").resolve():
        sys.exit(f"perfbench: imported mfo from {mfo.__file__}, not from {src}")
    return mfo


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the workload and exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def time_setups(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        tic = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - tic)
    return samples


@dataclass
class Cycle:
    index: int
    input: int
    traced: bool
    ops: list = field(default_factory=list)     # (kind, seconds)
    outcome: object = None                      # workloads.Outcome, None if the cycle failed


class Runner:
    """Closed loop over the workload's inputs; counts operations and failures."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.cycles: list[Cycle] = []
        self.first: dict[int, tuple] = {}      # input -> (iterations, gap) of its first run

    def run(self, seconds):
        n_inputs = self.wl.params["inputs"]
        per_input = 2 if self.tracer else 1
        start = time.perf_counter()
        c = 0
        # a traced run stops only between pairs, so both halves see the same inputs
        while (c < n_inputs * per_input or time.perf_counter() - start < seconds
               or c % per_input):
            pair, member = divmod(c, per_input)
            # traced and untraced runs of one input alternate which goes first
            traced = self.tracer is not None and member == pair % 2
            self.one(Cycle(c, pair % n_inputs, traced))
            c += 1

    def one(self, cyc: Cycle):
        self.cycles.append(cyc)
        tracer = self.tracer if cyc.traced else None
        in_op = []

        def op(kind, fn, *args):
            self.attempted += 1
            in_op.append(kind)
            with tracer.span(f"bench.{kind}") if tracer else nullcontext():
                tic = time.perf_counter()
                out = fn(*args)
                cyc.ops.append((kind, time.perf_counter() - tic))
            in_op.pop()
            return out

        if tracer:
            tracer.install(cyc.index)
        try:
            with tracer.span("bench.cycle") if tracer else nullcontext():
                handle = self.wl.cycle(cyc.input, op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 0 if in_op else 1
            self.failed += 1
            return
        finally:
            if tracer:
                tracer.uninstall()
        try:
            outcome = self.wl.inspect(cyc.input, handle)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return
        result = (outcome.iterations, outcome.gap)
        expected = self.first.setdefault(cyc.input, result)
        self.check(outcome.checks + [("repeats_exactly", result == expected)])
        cyc.outcome = outcome

    def check(self, checks):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"perfbench: output check failed: {name}", file=sys.stderr)

    def check_against_earlier_run(self, path: Path):
        """Compare (iterations, gap) per input with an earlier run of the same
        seed and program in this checkout, then record this run's values."""
        mine = {str(i): [it, gap.hex()] for i, (it, gap) in self.first.items()}
        if path.exists():
            with open(path) as fh:
                earlier = json.load(fh)
            self.check([("repeats_across_runs", all(earlier[k] == v for k, v in mine.items()
                                                    if k in earlier))])
            mine = {**earlier, **mine}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(mine, fh)


def program_digest(params):
    """Key of the recorded results: workload parameters, workload code and mfo source."""
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode())
    for path in [HERE / "workloads.py"] + sorted((ROOT / "src" / "mfo").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, setup):
    """Every end-to-end figure as name -> (value, unit, sample count)."""
    done = [c for c in runner.cycles if c.outcome is not None]
    out = {"setup_s": (_median(setup), "s", len(setup))}
    for kind in ("solve", "bridge"):
        times = [s for c in done for k, s in c.ops if k == kind]
        if times:
            out[f"{kind}_s"] = (statistics.median(times), "s", len(times))
            out[f"{kind}_s.min"] = (min(times), "s", len(times))
    cycles = [sum(s for _, s in c.ops) for c in done]
    iter_ms = [t for c in done for t in c.outcome.iter_ms]
    if any(len(c.ops) > 1 for c in done):     # otherwise a cycle is just its solve
        out["cycle_s"] = (statistics.median(cycles), "s", len(cycles))
        out["cycle_s.min"] = (min(cycles), "s", len(cycles))
    if iter_ms:
        p50, p90 = np.quantile(iter_ms, [0.5, 0.9])
        out["iter_ms.min"] = (min(iter_ms), "ms", len(iter_ms))
        out["iter_ms.p50"] = (float(p50), "ms", len(iter_ms))
        out["iter_ms.p90"] = (float(p90), "ms", len(iter_ms))
    first = runner.first.values()
    out["iterations"] = (sum(it for it, _ in first), "count", len(first))
    out["final_gap"] = (max((g for _, g in first), default=0.0), "gap", len(first))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    out["failed_share"] = (runner.failed / max(runner.attempted, 1), "ratio", runner.attempted)
    return out


def per_layer(runner: Runner, tracer):
    traced = [c for c in runner.cycles if c.traced and c.outcome is not None]
    untraced = [c for c in runner.cycles if not c.traced and c.outcome is not None]
    n = max(len(traced), 1)
    out = {}
    for name, (calls, ms) in tracer.per_name([c.index for c in traced]).items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_ms"] = ms / n
    for (name, stat), value in tracer.counts.items():
        out[f"{name}.{stat}"] = value / n
    for name, (calls, ms) in tracer.per_name([SETUP_CYCLE]).items():
        if calls:
            out[f"setup.{name}.calls"] = calls
            out[f"setup.{name}.self_ms"] = ms

    stored = sum(c.outcome.stored_atoms for c in traced) / n
    feasible = sum(v for k, v in out.items() if k.endswith(".feasible.calls"))
    out["problem.feasible.checks_per_atom"] = feasible / stored if stored else 0.0
    atoms_in = out.get("measures.merged.atoms_in", 0.0)
    out["measures.merged.atoms_out_per_in"] = (
        out.get("measures.merged.atoms_out", 0.0) / atoms_in if atoms_in else 0.0)

    # Means, not medians, so that the layer self times add up to the traced cycle.
    def mean_ms(cycles, kind=None):
        times = [s for c in cycles for k, s in c.ops if kind in (None, k)]
        return 1e3 * sum(times) / len(cycles) if cycles else 0.0

    for kind in ("solve", "bridge"):
        out[f"tracing_overhead.{kind}_s"] = (mean_ms(traced, kind) - mean_ms(untraced, kind)) / 1e3
    out["trace.cycle_ms"] = mean_ms(traced)
    out["trace.untraced_cycle_ms"] = mean_ms(untraced)
    # Layer self time less the tracing overhead, over the untraced cycle: 1 when
    # the layers account for all of the untraced time.
    layers_ms = sum(v for k, v in out.items()
                    if k.endswith(".self_ms") and not k.startswith(("bench.", "setup.")))
    overhead_ms = out["trace.cycle_ms"] - out["trace.untraced_cycle_ms"]
    out["trace.accounted_share"] = ((layers_ms - overhead_ms) / out["trace.untraced_cycle_ms"]
                                    if untraced else 0.0)
    out["trace.spans"] = sum(v for k, v in out.items()
                             if k.endswith(".calls") and not k.startswith("setup."))
    out["trace.cycles"] = len(traced)
    return out


def print_table(title, rows, last="samples"):
    print(title)
    print(f"  {'metric':<44} {'value':>16}  {'unit':<6} {last}")
    for name, value, unit, samples in rows:
        print(f"  {name:<44} {value:>16.6g}  {unit:<6} {samples}")


def main(argv=None):
    args = parse_args(argv)
    mfo = import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            cls(mfo, args.seed, workdir)
            return 0
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        setup = [] if args.trace else time_setups(args)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(SETUP_CYCLE)   # trace one extra build of the inputs
            try:
                cls(mfo, args.seed, workdir)
            finally:
                tracer.uninstall()
        wl = cls(mfo, args.seed, workdir)
        runner = Runner(wl, tracer)
        runner.run(args.seconds)
        runner.check_against_earlier_run(
            OUT / "determinism" / f"{args.workload}-seed{args.seed}-{program_digest(wl.params)}.json")

        print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        print(f"# instance {json.dumps(wl.params)}")
        if args.trace:
            values = per_layer(runner, tracer)
            cycle_ms = values["trace.cycle_ms"] or 1.0
            rows = sorted(((k, v, "ms", f"{values[k[:-7] + 'calls']:g} calls, {100 * v / cycle_ms:.1f}%")
                           for k, v in values.items()
                           if k.endswith(".self_ms") and not k.startswith("setup.") and v > 0),
                          key=lambda r: -r[1])
            print_table(f"# self time per traced cycle ({values['trace.cycles']} cycles)", rows,
                        "calls, share of the traced cycle")
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
            tracer.save(OUT / f"spans-{args.workload}.npz", seed=args.seed)
        else:
            values = end_to_end(runner, setup)
            gated = [m["name"] for m in spec["end_to_end"]]
            print_table(f"# end-to-end figures, untraced (gated: {', '.join(gated)})",
                        [(k, v, unit, n) for k, (v, unit, n) in values.items()])
            metrics = {m["name"]: {"value": values.get(m["name"], (0.0,))[0], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
        return 0 if runner.failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
