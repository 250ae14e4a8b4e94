"""Drive one workload against the default stack through the public API.

A :class:`Session` is one set-up cluster: ``HydraCluster`` built from the
workload's shape, every key preloaded with a self-describing value, and
client handles connected.  Its client processes issue
``get``/``get_many``/``update``/``put`` calls drawn from the seeded
generators, check every value they read, and record each call that starts
inside the measured window.  All load is generated in
this one host process and thread; the cluster is simulated in-process.

Closed-loop clients issue their next call when the previous one returns
(after ``think_ns`` when paced).  Open-loop users follow a seeded Poisson
schedule and time each call from when it was due, so waiting for the
user's previous call counts; the generator itself is a simulated process
and cannot run late in simulated time.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro import HydraCluster, SimConfig
from repro.core import HydraError
from repro.protocol import Op, Status

from .checker import PRELOAD_WRITER, History, Violation, encode_value
from .gen import KeyChooser, make_keys, stream
from .spec import Workload

__all__ = ["Session", "percentile", "trimmed_mean", "simulated_metrics",
           "report_metrics"]

#: Calls drawn per generator refill.
_BLOCK = 64
#: Density grid points per order statistic in :func:`percentile`.
_HD_GRID = 16
#: Simulated time calls in flight get to return once the clients stop.
_FINISH_NS = 2_000_000


def percentile(samples: list[int], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile of ``samples``.

    A Beta-weighted average of every order statistic rather than one or
    two of them, so a tail percentile with few samples beyond it moves
    smoothly with the distribution instead of jumping between neighbouring
    samples from seed to seed.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        return float("nan")
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    # Beta(a, b) CDF at i/n by trapezoid integration of the density on a
    # grid _HD_GRID times finer than the order statistics.
    t = np.linspace(0.0, 1.0, n * _HD_GRID + 1)[1:-1]
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(logpdf - logpdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::_HD_GRID]) / cdf[-1]
    return float(weights @ x)


def trimmed_mean(samples: list[int]) -> float:
    """Mean of the fastest 99% of ``samples``.

    Stands in for the median: at low load most calls of a deterministic
    simulator take exactly the unloaded time, so any order-statistic
    centre reads identically on every seed, while the mean moves with
    every call.  The slowest 1% — calls stalled by a failover — are left
    to the tail percentile and ``slo_attainment``.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    return float(x[:max(1, (len(x) * 99) // 100)].mean())


class Session:
    """One built cluster plus its clients, generators and recorder."""

    def __init__(self, w: Workload, seed: int, part: int = 0):
        self.w = w
        self.seed = seed
        #: Sessions of one run draw from disjoint streams, keyed by part.
        self.part = part
        self.keys = make_keys(w.keys)
        self.history = History(w.keys, w.value_bytes)
        self._preload_values = [
            encode_value(i, PRELOAD_WRITER, 0, w.value_bytes)
            for i in range(w.keys)]
        t0 = time.perf_counter()
        cfg = SimConfig().with_overrides(**w.overrides)
        self.cluster = cluster = HydraCluster(
            cfg, n_server_machines=w.servers,
            shards_per_server=w.shards_per_server,
            n_client_machines=w.client_machines)
        self.sim = cluster.sim
        if w.kill_at_ns:
            cluster.enable_ha()
        cluster.start()
        self._preload()
        self.clients = [cluster.client(i % w.client_machines,
                                       share_transport=w.share_transport)
                        for i in range(w.clients)]
        self.setup_s = time.perf_counter() - t0
        del self._preload_values
        self.chooser = KeyChooser(w.keys, w.dist, w.theta)
        self.stop = False
        self.procs: list = []
        self.due: list = []      # open loop: each user's due-time iterator
        self.t0 = self.w0 = self.w1 = self.cutoff = 0
        self.read_lat: list[int] = []
        self.write_lat: list[int] = []
        self.keyops = 0          # key-operations completed in the window
        self.keyops_total = 0    # ... at any time (host rate)
        self.calls = 0           # calls attempted in the window
        self.failed = 0          # ... that raised a typed error
        self.met = 0             # ... that succeeded within the limit
        self.after_kill: list[int] = []

    def _preload(self) -> None:
        """Install every key's set-up value (built before timing starts).

        A workload that kills a server preloads through a client so the
        secondaries hold the data too; the others write the primary stores
        directly, which is what makes preload the store and index's
        host cost.
        """
        w, keys, values = self.w, self.keys, self._preload_values
        if w.kill_at_ns:
            loader = self.cluster.client()

            def load():
                for i in range(0, w.keys, 64):
                    statuses = yield from loader.put_many(
                        list(zip(keys[i:i + 64], values[i:i + 64])))
                    if any(s is not Status.OK for s in statuses):
                        raise RuntimeError("preload put_many failed")

            self.cluster.run(load())
            return
        route = self.cluster.route
        for key, value in zip(keys, values):
            result = route(key).store_for_key(key).upsert(key, value, Op.PUT)
            if result.status is not Status.OK:
                raise RuntimeError(f"preload of {key!r}: {result.status}")

    # -- load -------------------------------------------------------------
    def start(self) -> None:
        """Spawn the client processes (and the killer); fixes the window."""
        w, sim = self.w, self.sim
        self.t0 = sim.now
        self.w0 = self.t0 + w.warmup_ns
        self.w1 = self.w0 + w.window_ns
        self.cutoff = self.w1 + w.slo_ns
        if w.offered_rate:
            # Each user's arrivals through the window are drawn up front,
            # so calls due in the window count as attempted even when the
            # user is still blocked on an earlier call at the cutoff.
            for u in range(w.clients):
                gen = self._due_times(stream(self.seed, self.part, u, 1))
                head = [next(gen)]
                while head[-1] < self.w1:
                    head.append(next(gen))
                self.calls += sum(self.w0 <= t < self.w1 for t in head)
                self.due.append(itertools.chain(head, gen))
        self.procs = [sim.process(self._client(i, c), name=f"bench.c{i}")
                      for i, c in enumerate(self.clients)]
        if w.kill_at_ns:
            sim.process(self._killer(), name="bench.killer")

    def _killer(self):
        yield self.sim.timeout(self.w.kill_at_ns)
        self.cluster.servers[0].kill()

    def _due_times(self, rng: np.random.Generator):
        """One user's Poisson arrival times (simulated ns), forever."""
        mean_gap_ns = 1e9 * self.w.clients / self.w.offered_rate
        due = float(self.t0)
        while True:
            for gap in rng.exponential(mean_gap_ns, _BLOCK).tolist():
                due += gap
                yield int(due)

    def _client(self, cid: int, client):
        """One client's (closed loop) or user's (open loop) calls."""
        w, sim = self.w, self.sim
        rng = stream(self.seed, self.part, cid)
        due_times = self.due[cid] if w.offered_rate else None
        seq = 0
        while not self.stop:
            writes = rng.random(_BLOCK) < w.write_frac
            ids = self.chooser.draw(rng, _BLOCK * w.batch).tolist()
            for j in range(_BLOCK):
                if due_times is not None:
                    start = next(due_times)
                    if start > sim.now:
                        yield sim.timeout(start - sim.now)
                elif w.think_ns:
                    yield sim.timeout(w.think_ns)
                if self.stop:
                    return
                if due_times is None:
                    start = sim.now
                    if self.w0 <= start < self.w1:
                        self.calls += 1
                if writes[j]:
                    seq += 1
                    yield from self._write(client, cid, seq, ids[j * w.batch],
                                           start)
                else:
                    yield from self._read(
                        client, ids[j * w.batch:(j + 1) * w.batch], start)

    def _read(self, client, ids: list[int], start: int):
        issued = self.sim.now
        try:
            if len(ids) == 1:
                values = [(yield from client.get(self.keys[ids[0]]))]
            else:
                values = yield from client.get_many(
                    [self.keys[k] for k in ids])
        except HydraError:
            self._record(False, start, len(ids), self.read_lat)
            return
        check = self.history.check_read
        for kid, value in zip(ids, values):
            check(kid, value, issued)
        self._record(True, start, len(ids), self.read_lat)

    def _write(self, client, writer: int, seq: int, kid: int, start: int):
        value = self.history.issue(kid, writer, seq, self.sim.now)
        op = client.put if self.w.write_op == "put" else client.update
        try:
            status = yield from op(self.keys[kid], value)
        except HydraError:
            self._record(False, start, 1, self.write_lat)
            return
        if status is not Status.OK:
            raise Violation(f"{self.w.write_op} of key {kid} "
                            f"returned {status.name}")
        self.history.ack(writer, seq, self.sim.now)
        self._record(True, start, 1, self.write_lat)

    def _record(self, ok: bool, start: int, nkeys: int,
                lat: list[int]) -> None:
        """Account one finished call.  A call belongs to the window when it
        started (was due, for open loops) inside it, and counts only if it
        finished by the cutoff, one latency limit past the window."""
        now = self.sim.now
        if ok:
            self.keyops_total += nkeys
        if not (self.w0 <= start < self.w1 and now <= self.cutoff):
            return
        if not ok:
            self.failed += 1
            return
        self.keyops += nkeys
        lat.append(now - start)
        if now - start <= self.w.slo_ns:
            self.met += 1
        if self.w.kill_at_ns and now >= self.t0 + self.w.kill_at_ns:
            self.after_kill.append(now)

    # -- phases -----------------------------------------------------------
    def finish(self) -> int:
        """Stop the clients and sweep every key's stored value; returns the
        number of keys checked.

        Calls in flight get ``_FINISH_NS`` of simulated time to return; one
        still outstanding then is an unacknowledged write to the checker,
        which the sweep allows either way.
        """
        self.stop = True
        sim = self.sim
        done = sim.all_of(self.procs)
        end = sim.now + _FINISH_NS
        while not done.triggered and sim.now < end:
            sim.run(until=min(end, sim.now + _FINISH_NS // 20))
        contents: dict[bytes, bytes] = {}
        for shard in self.cluster.shards():
            contents.update(shard.store.dump())
        return self.history.check_store(contents, self.keys)

    def close(self) -> None:
        """Stop the cluster and drop it, keeping only the results."""
        self.cluster.stop()
        self.cluster = self.sim = self.clients = self.procs = None
        self.due = None

    def outcome(self) -> tuple:
        """Everything the window recorded; equal for equal seeds."""
        return (self.read_lat, self.write_lat, self.keyops, self.calls,
                self.failed, self.met, self.after_kill)

    def blackout_ns(self) -> int:
        """Longest gap between completed calls after the kill (0 if none)."""
        if not self.w.kill_at_ns:
            return 0
        times = [self.t0 + self.w.kill_at_ns] + self.after_kill
        return max((b - a for a, b in zip(times, times[1:])), default=0)


def simulated_metrics(sessions: list[Session]) -> dict[str, float]:
    """End-to-end simulated metrics of the sessions' pooled windows."""
    w = sessions[0].w
    reads = [x for s in sessions for x in s.read_lat]
    writes = [x for s in sessions for x in s.write_lat]
    if len(reads) < 1000:
        raise RuntimeError(f"{w.name}: {len(reads)} read samples cannot "
                           f"support a p99")
    if len(writes) * (100 - w.write_tail_pct) < 1000:
        raise RuntimeError(f"{w.name}: {len(writes)} write samples cannot "
                           f"support a p{w.write_tail_pct}")
    calls = sum(s.calls for s in sessions)
    return {
        "sim_mops": (sum(s.keyops for s in sessions)
                     / (w.window_ns * len(sessions)) * 1e3),
        "read_mean_us": trimmed_mean(reads) / 1e3,
        "read_p99_us": percentile(reads, 99) / 1e3,
        "write_mean_us": trimmed_mean(writes) / 1e3,
        "write_tail_us": percentile(writes, w.write_tail_pct) / 1e3,
        "slo_attainment": sum(s.met for s in sessions) / calls,
    }


def report_metrics(sessions: list[Session]) -> dict[str, float]:
    """Simulated figures that can be zero, reported but not bounded."""
    calls = sum(s.calls for s in sessions)
    return {
        "error_rate": sum(s.failed for s in sessions) / calls,
        "slo_miss_rate": 1.0 - sum(s.met for s in sessions) / calls,
        "blackout_ms": max(s.blackout_ns() for s in sessions) / 1e6,
        "read_samples": float(sum(len(s.read_lat) for s in sessions)),
        "write_samples": float(sum(len(s.write_lat) for s in sessions)),
    }
