"""Steadiness and determinism checks for the benchmark.

Run from the root of a checkout::

    # N runs per workload at seeds S..S+N-1: median, quartiles, spread
    python3 perfbench/steady.py --runs 10 --seed 1 --out a.json
    python3 perfbench/steady.py --runs 10 --seed 1 --out b.json
    # do two sets of runs agree within BENCHMARK.json's bounds?
    python3 perfbench/steady.py --compare a.json b.json
    # same seed twice -> identical simulated metrics; held-out seed ->
    # simulated metrics within the bounds of the first
    python3 perfbench/steady.py --determinism --seed 1 --heldout 101

``spread`` is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; the
benchmark wants it below a third of each metric's bound.  ``setup_s`` has
no spread requirement, only the median comparison.  Workloads run one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402

_SIM = {m.name for m in spec.END_TO_END if m.kind == "sim"}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in its own process; returns its metric values."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric: spec.Metric, parent: float, child: float) -> float:
    """How much worse ``child`` is than ``parent``, as a share of parent."""
    if parent == 0:
        return 0.0 if child == parent else float("inf")
    change = (child - parent) / abs(parent)
    return -change if metric.better == "higher" else change


def report(runs: dict[str, dict[str, list[float]]]) -> bool:
    """Print each metric's spread; True if every bounded spread is within
    its bound."""
    ok = True
    for wname, metrics in runs.items():
        print(f"# {wname} ({len(next(iter(metrics.values())))} runs)")
        for m in spec.END_TO_END:
            med, q1, q3, sp = spread(metrics[m.name])
            flag = ""
            if m.name != "setup_s":
                if sp > m.bound:
                    flag, ok = "OVER BOUND", False
                elif sp > m.bound / 3:
                    flag = "above bound/3"
            print(f"  {m.name:16s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {sp:7.4f}  bound {m.bound:5.3f} "
                  f"{flag}")
    return ok


def compare(a: dict, b: dict) -> bool:
    """True if every metric's median in ``b`` is within its bound of ``a``."""
    ok = True
    for wname in a:
        for m in spec.END_TO_END:
            ma = statistics.median(a[wname][m.name])
            mb = statistics.median(b[wname][m.name])
            w = worse_by(m, ma, mb)
            verdict = "ok" if w <= m.bound else "WORSE THAN BOUND"
            ok = ok and w <= m.bound
            print(f"{wname:22s} {m.name:16s} {ma:12.6g} -> {mb:12.6g}  "
                  f"worse by {w:+.4f} (bound {m.bound}) {verdict}")
    return ok


def determinism(workloads, seed: int, heldout: int, seconds: float) -> bool:
    ok = True
    for wname in workloads:
        first = run_once(wname, seed, seconds)
        again = run_once(wname, seed, seconds)
        other = run_once(wname, heldout, seconds)
        for m in spec.END_TO_END:
            if m.name not in _SIM:
                continue
            same = first[m.name] == again[m.name]
            w = abs(worse_by(m, first[m.name], other[m.name]))
            ok = ok and same and w <= m.bound
            print(f"{wname:22s} {m.name:16s} seed {seed}: "
                  f"{'identical' if same else 'DIFFERENT'}; seed {heldout}: "
                  f"differs by {w:.4f} (bound {m.bound}) "
                  f"{'ok' if w <= m.bound else 'OUTSIDE BOUND'}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w.name for w in spec.WORKLOADS],
                   help="repeatable; default every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--out", help="write the raw values here (JSON)")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    p.add_argument("--determinism", action="store_true")
    p.add_argument("--heldout", type=int, default=101)
    args = p.parse_args(argv)
    workloads = args.workload or [w.name for w in spec.WORKLOADS]
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return 0 if compare(json.load(fa), json.load(fb)) else 1
    if args.determinism:
        return 0 if determinism(workloads, args.seed, args.heldout,
                                args.seconds) else 1
    runs: dict[str, dict[str, list[float]]] = {}
    for wname in workloads:
        runs[wname] = {m.name: [] for m in spec.END_TO_END}
        for i in range(args.runs):
            for name, value in run_once(wname, args.seed + i,
                                        args.seconds).items():
                runs[wname][name].append(value)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 0 if report(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
