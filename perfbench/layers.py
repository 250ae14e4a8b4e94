"""Per-layer metrics, read from outside the program.

:class:`LayerProbe` snapshots the cluster's own instruments when the
measured window opens — ``cluster.metrics`` counters and tallies, the
kernel telemetry of ``kernel_snapshot``, remote-pointer cache counters,
allocator, reclaimer and ``PMDevice`` fields — resets the core and NIC
``busy`` gauges, and turns the differences at the window's end into the
ratios named in ``spec.PER_LAYER``.

:func:`self_time_by_layer` attributes a ``cProfile`` run's self time to
the ``repro`` subpackage that owns each function (and to the benchmark's
own files).  Time in functions outside any layer — builtins, NumPy, the
standard library — goes to the layer of the function that called them,
split by the profiler's per-caller records.  This gives span self time at
layer boundaries without adding any tracing inside the program.
"""

from __future__ import annotations

import os
import pstats

from repro.sim import kernel_snapshot

from .spec import LAYERS
from .workloads import report_metrics

__all__ = ["LayerProbe", "self_time_by_layer", "layer_of"]

#: ``repro/core`` modules -> layer; the other subpackages are layers.
_CORE_LAYERS = {
    "client": "core.client", "api": "core.client", "ring": "core.client",
    "errors": "core.client", "rptr": "core.rptr", "shard": "core.shard",
    "subshard": "core.shard", "pipelined": "core.shard",
    "server": "core.shard", "store": "core.store", "lease": "core.store",
}
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or None outside every layer."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
    if path.startswith(_BENCH_DIR + os.sep):
        return "bench"
    parts = path.split(os.sep)
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    if len(rest) < 2:
        return None
    pkg, mod = rest[0], rest[1].rsplit(".", 1)[0]
    if pkg == "core":
        return _CORE_LAYERS.get(mod, "core.client")
    return pkg if pkg in LAYERS else None


def self_time_by_layer(stats: pstats.Stats) -> dict[str, float]:
    """Seconds of self time per layer in a profiled run."""
    raw = stats.stats  # (file, line, func) -> (cc, nc, tt, ct, callers)
    own = {func: layer_of(func[0]) for func in raw}
    out = {layer: 0.0 for layer in LAYERS}

    def attribute(func, tt, seen):
        layer = own.get(func)
        if layer is not None:
            out[layer] += tt
            return
        callers = raw[func][4] if func in raw else {}
        total = sum(rec[2] for rec in callers.values())
        if not callers or total <= 0 or func in seen:
            return  # unattributable (top-level glue), left out
        for caller, rec in callers.items():
            attribute(caller, tt * rec[2] / total, seen | {func})

    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        attribute(func, tt, frozenset())
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Window-scoped view of one cluster's instruments."""

    def __init__(self, session):
        self.s = session
        self.c = session.cluster

    def _counters(self) -> dict[str, float]:
        return {name: c.value for name, c in self.c.metrics.counters.items()}

    def _tally(self, name: str) -> tuple[int, float]:
        t = self.c.metrics.tallies.get(name)
        if t is None or not t.count:
            return 0, 0.0
        return t.count, t.mean * t.count

    def _fields(self) -> dict[str, float]:
        c = self.c
        stores = [sh.store for sh in self.c.shards()]
        for secs in c.secondaries.values():
            stores.extend(sec.store for sec in secs)
        devices = list(c.durable_devices.values())
        return {
            "reclaimed": sum(st.reclaimer.reclaimed.value for st in stores),
            "pm_writes": sum(d.writes for d in devices),
            "pm_bytes": sum(d.bytes_written for d in devices),
        }

    def open(self) -> None:
        """Call when the measured window opens."""
        self.k0 = kernel_snapshot(self.c.sim)
        self.n0 = self._counters()
        self.r0 = self.c.rptr_stats()
        self.f0 = self._fields()
        self.t0 = {n: self._tally(n) for n in (
            "shard.rep_batch", "durable.group_records", "swat.promotion_ns",
            "client.failover_latency_ns")}
        self.busy_shards = [sh.core.busy for sh in self.c.shards()]
        machines = (self.c.server_machines + self.c.client_machines
                    + self.c.replica_machines)
        self.busy_nics = [eng.busy for m in machines if m.nic is not None
                          for eng in (m.nic.tx, m.nic.rx)]
        for gauge in self.busy_shards + self.busy_nics:
            gauge.reset()
        self.opened_ns = self.c.sim.now

    def close(self) -> dict[str, float]:
        """Per-layer metrics over the window; call when it closes."""
        s, c = self.s, self.c
        k1 = kernel_snapshot(c.sim)
        n1 = self._counters()
        r1 = c.rptr_stats()
        f1 = self._fields()

        def d(name):
            return n1.get(name, 0) - self.n0.get(name, 0)

        def tally_mean(name, scale=1.0):
            n, total = self._tally(name)
            n0, total0 = self.t0[name]
            return _ratio(total - total0, n - n0) / scale

        kd = {k: k1[k] - self.k0[k] for k in (
            "events_scheduled", "events_dispatched", "now_hits", "heap_hits",
            "timer_rearms", "timer_allocs")}
        rd = {k: r1[k] - self.r0[k] for k in r1}
        ops = s.keyops
        writes = len(s.write_lat)
        read_keys = ops - writes
        verbs = (d("rdma.read.ops") + d("rdma.write.ops")
                 + d("rdma.send.ops"))
        doorbells = d("rdma.read.doorbells") + d("rdma.write.doorbells")
        rbytes = (d("rdma.read.bytes") + d("rdma.write.bytes")
                  + d("rdma.send.bytes"))
        lookups = (rd["successful_hits"] + rd["invalid_hits"]
                   + rd["expired"] + rd["misses"])
        requests = d("shard.requests")
        elapsed = c.sim.now - self.opened_ns
        busy_area = sum(g.time_average() for g in self.busy_shards) * elapsed
        report = report_metrics([s])
        return {
            "sim.events_per_op": _ratio(kd["events_dispatched"], ops),
            "sim.now_rate": _ratio(kd["now_hits"], kd["events_scheduled"]),
            "sim.heap_rate": _ratio(kd["heap_hits"], kd["events_scheduled"]),
            "sim.timer_reuse_rate": _ratio(
                kd["timer_rearms"], kd["timer_rearms"] + kd["timer_allocs"]),
            "sim.peak_calendar": float(k1["peak_calendar"]),
            "rdma.verbs_per_op": _ratio(verbs, ops),
            "rdma.doorbells_per_verb": _ratio(doorbells, verbs),
            "rdma.bytes_per_op": _ratio(rbytes, ops),
            "rdma.nic_busy_max": max((g.time_average()
                                      for g in self.busy_nics), default=0.0),
            "protocol.resp_overflow": float(d("shard.resp_overflow")),
            "protocol.bad_requests": float(d("shard.bad_requests")),
            "client.one_sided_ratio": _ratio(
                d("client.rdma_reads"),
                d("client.rdma_reads") + d("client.messages")),
            "client.demotions_per_read": _ratio(d("client.demotions"),
                                                read_keys),
            "client.bucket_reads_per_read": _ratio(d("client.bucket_reads"),
                                                   read_keys),
            "client.traversal_races": float(d("client.traversal_races")),
            "client.stale_responses": float(d("client.stale_responses")),
            "client.retries": float(d("client.retries")),
            "client.failover_share": tally_mean(
                "client.failover_latency_ns", s.w.window_ns),
            "rptr.hit_ratio": _ratio(rd["successful_hits"], lookups),
            "rptr.invalid_ratio": _ratio(rd["invalid_hits"], lookups),
            "rptr.expired_ratio": _ratio(rd["expired"], lookups),
            "shard.cpu_busy_mean": _ratio(busy_area,
                                          elapsed * len(self.busy_shards)),
            "shard.cpu_ns_per_request": _ratio(busy_area, requests),
            "shard.requests_per_probe": _ratio(requests, d("shard.probes")),
            "shard.sweeps_per_request": _ratio(d("shard.sweeps"), requests),
            "shard.resp_doorbells_per_request": _ratio(
                d("shard.resp_doorbells"), requests),
            "index.mutations_versioned_per_write": _ratio(
                d("shard.index_mutations_versioned"), writes),
            "kvmem.space_amp": _ratio(
                sum(sh.store.alloc._bump for sh in self.c.shards()),
                s.w.keys * (len(s.keys[0]) + s.w.value_bytes)),
            "kvmem.reclaimed_per_write": _ratio(
                f1["reclaimed"] - self.f0["reclaimed"], writes),
            "repl.rep_batch_mean": tally_mean("shard.rep_batch"),
            "repl.resends": float(d("repl.resends")),
            "replica.discarded": float(d("replica.discarded")),
            "durable.group_records_mean": tally_mean("durable.group_records"),
            "durable.pm_writes_per_write": _ratio(
                f1["pm_writes"] - self.f0["pm_writes"], writes),
            "durable.pm_bytes_per_user_byte": _ratio(
                f1["pm_bytes"] - self.f0["pm_bytes"],
                writes * s.w.value_bytes),
            "durable.log_full": float(d("durable.log_full")),
            "swat.promotion_share": tally_mean("swat.promotion_ns",
                                               s.w.window_ns),
            "swat.failovers": float(d("swat.failovers")),
            "bench.read_samples": report["read_samples"],
            "bench.write_samples": report["write_samples"],
            "bench.error_rate": report["error_rate"],
            "bench.slo_miss_rate": report["slo_miss_rate"],
            "bench.blackout_share": (report["blackout_ms"] * 1e6
                                     / s.w.window_ns),
            "_events": float(kd["events_dispatched"]),
        }
