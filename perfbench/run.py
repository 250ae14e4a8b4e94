"""The repository's benchmark: one workload per run, or all of them.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_batch_zipf --seed 1 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --all            # every workload, one table
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

A run is three independent sessions of the workload, one after another.
Each sets its cluster up from scratch (``setup_s`` is the median of the
three), runs the simulation past the warm-up, and then keeps it running
for a third of ``--seconds`` of host time and at least to the end of its
measured window.  Simulated metrics pool the sessions' windows and are
bit-identical for a given seed; ``host_ops_per_s`` is the median over
~0.2 s host chunks of key-operations completed per host second.  Both host
times are rescaled to a reference host by a fixed calibration loop timed
beside them (``REF_CAL_S``), which cancels most of a shared machine's
drift in speed.  Every value read is checked on
arrival and every key's final value is swept at the end; any violation
exits non-zero without a result.

``--trace 1`` instead runs the first session's window twice on fresh
clusters, untraced then under ``cProfile``, and reports the per-layer metrics of
``spec.PER_LAYER``; ``trace.overhead`` is the ratio of the two host times.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Independent sessions per untraced run, each set up from scratch and
#: drawing its own streams; latency samples are pooled and ``setup_s`` is
#: the median of their set-up times.
SESSIONS = 3
#: Host seconds per ``host_ops_per_s`` sample.
CHUNK_S = 0.2
#: Simulation steps per measured window while timing.
STEPS_PER_WINDOW = 200
#: Seconds :func:`_calibrate` takes on the reference host.  Host metrics
#: are rescaled to that host by the loop's duration measured right beside
#: each sample, so a shared host's speed swings from moment to moment
#: (other tenants, shared caches: +-15% over a few seconds) cancel out.
REF_CAL_S = 0.012


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, src]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from "
                         f"{src}: {exc}")
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported repro from {where}, not "
                         f"from this checkout's src/")


def _calibrate() -> float:
    """Seconds this host takes, right now, for a fixed pure-Python loop."""
    t = time.perf_counter()
    table: dict[int, int] = {}
    digits = 0
    for i in range(30_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        digits += len(str(i))
    return time.perf_counter() - t


def _session(w, seed: int, part: int):
    """A fresh session, with set-up garbage collected and frozen; returns
    it and its set-up time rescaled to the reference host."""
    from perfbench.workloads import Session

    gc.unfreeze()
    gc.collect()
    before = _calibrate()
    session = Session(w, seed, part)
    speed = (before + _calibrate()) / 2 / REF_CAL_S
    gc.collect()
    gc.freeze()
    return session, session.setup_s / speed


def _timed(session, seconds: float, rates: list[float]) -> None:
    """Run past the warm-up, then until the window's cutoff and at least
    ``seconds`` of host time, appending key-operations per reference-host
    second of each ~``CHUNK_S`` chunk to ``rates``."""
    sim = session.sim
    session.start()
    session.sim.run(until=session.w0)
    step = max(1, session.w.window_ns // STEPS_PER_WINDOW)
    chunk_s = 0.0
    chunk_ops = 0
    begin = time.perf_counter()
    while sim.now < session.cutoff or time.perf_counter() - begin < seconds:
        ops = session.keyops_total
        t = time.perf_counter()
        session.sim.run(until=sim.now + step)
        chunk_s += time.perf_counter() - t
        chunk_ops += session.keyops_total - ops
        if chunk_s >= CHUNK_S:
            rates.append(chunk_ops / chunk_s * _calibrate() / REF_CAL_S)
            chunk_s, chunk_ops = 0.0, 0


def run_untraced(w, seed: int, seconds: float) -> tuple[dict, list]:
    """The end-to-end run; returns (metrics, sessions)."""
    from perfbench.workloads import simulated_metrics

    sessions = []
    setups = []
    rates: list[float] = []
    for part in range(SESSIONS):
        session, setup_s = _session(w, seed, part)
        setups.append(setup_s)
        _timed(session, seconds / SESSIONS, rates)
        session.finish()
        session.close()
        sessions.append(session)
    metrics = simulated_metrics(sessions)
    metrics["host_ops_per_s"] = statistics.median(rates)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, sessions


def run_traced(w, seed: int) -> tuple[dict, list]:
    """The per-layer run of session 0; returns (metrics, [session])."""
    from perfbench.layers import LayerProbe, self_time_by_layer

    plain, _ = _session(w, seed, 0)
    plain.start()
    plain.sim.run(until=plain.w0)
    t = time.perf_counter()
    plain.sim.run(until=plain.cutoff)
    untraced_s = time.perf_counter() - t
    plain.finish()
    plain.close()
    reference = plain.outcome()
    del plain

    session, _ = _session(w, seed, 0)
    session.start()
    session.sim.run(until=session.w0)
    probe = LayerProbe(session)
    probe.open()
    profiler = cProfile.Profile()
    t = time.perf_counter()
    profiler.enable()
    session.sim.run(until=session.cutoff)
    profiler.disable()
    traced_s = time.perf_counter() - t
    metrics = probe.close()
    session.finish()
    session.close()
    if session.outcome() != reference:
        raise RuntimeError("traced and untraced runs of one seed disagree")
    events = metrics.pop("_events")
    metrics["sim.host_ns_per_event"] = untraced_s * 1e9 / events
    for layer, secs in self_time_by_layer(pstats.Stats(profiler)).items():
        metrics[f"{layer}.host_self_share"] = secs / traced_s
    metrics["trace.host_s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    return metrics, [session]


def _print_report(w, metrics: dict, sessions: list, units: dict) -> None:
    from perfbench.spec import END_TO_END
    from perfbench.workloads import report_metrics

    kinds = {m.name: m.kind for m in END_TO_END}
    print(f"# {w.name}: {w.why}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]:10s} "
              f"{kinds.get(name, '')}")
    extra = report_metrics(sessions)
    print(f"{'error_rate':40s} {extra['error_rate']:14.6g} ratio      sim")
    print(f"{'slo_miss_rate':40s} {extra['slo_miss_rate']:14.6g} ratio"
          f"      sim (limit {w.slo_ns / 1e3:g} us)")
    if w.kill_at_ns:
        print(f"{'blackout_ms':40s} {extra['blackout_ms']:14.6g} ms"
              f"         sim (longest of {len(sessions)} sessions)")
    print(f"# {len(sessions)} session(s): {extra['read_samples']:.0f} read "
          f"and {extra['write_samples']:.0f} write calls sampled; "
          f"write_tail_us is p{w.write_tail_pct}; "
          f"{sum(s.history.reads_checked for s in sessions)} values checked "
          f"on read and {w.keys} keys swept per session")
    if w.offered_rate:
        print(f"# open loop at {w.offered_rate / 1e6:g} Mcalls/s; latency "
              f"from due time; the generator cannot run late in "
              f"simulated time")


def run_one(args) -> int:
    from perfbench import spec

    w = spec.workload(args.workload)
    if args.trace:
        metrics, sessions = run_traced(w, args.seed)
        wanted = spec.PER_LAYER
    else:
        metrics, sessions = run_untraced(w, args.seed, args.seconds)
        wanted = spec.END_TO_END
    units = {m.name: m.unit for m in wanted}
    metrics = {m.name: metrics[m.name] for m in wanted}
    _print_report(w, metrics, sessions, units)
    print(json.dumps({
        "correct": True,
        "attempted": sum(s.calls for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from perfbench import spec

    status = 0
    for w in spec.WORKLOADS + spec.UNGATED:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               w.name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            print(f"# {w.name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def parse_args(argv=None):
    from perfbench import spec

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload",
                   choices=[w.name for w in spec.WORKLOADS + spec.UNGATED])
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from perfbench/spec.py")
    args = p.parse_args(argv)
    if not (args.workload or args.all or args.write_spec):
        p.error("one of --workload, --all or --write-spec is required")
    return args


def main(argv=None) -> int:
    _import_program()
    args = parse_args(argv)
    if args.write_spec:
        from perfbench import spec

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
