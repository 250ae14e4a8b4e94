"""Tests of the benchmark's own code.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import spec  # noqa: E402
from perfbench.checker import (PRELOAD_WRITER, History, Violation,  # noqa: E402
                               decode_value, encode_value)
from perfbench.layers import layer_of  # noqa: E402
from perfbench.workloads import (Session, percentile,  # noqa: E402
                                 simulated_metrics, trimmed_mean)
from repro.protocol import Status  # noqa: E402
from repro.sim import UnhandledProcessError  # noqa: E402

_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")


# -- names and BENCHMARK.json -------------------------------------------------

@pytest.mark.parametrize("name", ["sim_mops", "read_p99_us", "a", "9x",
                                  "core.client.host_self_s", "x-y_z.1",
                                  "a" * 64])
def test_name_regex_accepts(name):
    assert spec.NAME_RE.fullmatch(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "-lead", "has space",
                                  "slash/name", "unit%", "a" * 65, "µs"])
def test_name_regex_rejects(name):
    assert not spec.NAME_RE.fullmatch(name)


def test_every_name_is_valid_and_unique():
    names = ([w.name for w in spec.WORKLOADS]
             + [m.name for m in spec.END_TO_END]
             + [m.name for m in spec.PER_LAYER])
    for name in names:
        assert spec.NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == spec.benchmark_json(), (
        "BENCHMARK.json is stale: python3 perfbench/run.py --write-spec")


def test_benchmark_json_schema():
    doc = spec.benchmark_json()
    assert list(doc) == ["command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"]
    assert len(json.dumps(doc)) <= 64 * 1024
    assert 1 <= len(doc["command"]) <= 32
    for arg in doc["command"]:
        assert isinstance(arg, str) and len(arg) <= 200
        assert not arg.startswith("/") and ".." not in arg.split("/")
    assert 1 <= len(doc["paths"]) <= 16
    for path in doc["paths"]:
        assert _PATH_RE.fullmatch(path)
        assert os.path.isdir(os.path.join(ROOT, path))
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert _UNIT_RE.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert _UNIT_RE.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")


def test_per_layer_names_every_layer():
    names = {m.name for m in spec.PER_LAYER}
    for layer in spec.LAYERS:
        assert f"{layer}.host_self_share" in names
    assert {"trace.host_s", "trace.overhead"} <= names


def test_layer_of():
    src = os.path.join(ROOT, "src", "repro")
    assert layer_of(os.path.join(src, "sim", "core.py")) == "sim"
    assert layer_of(os.path.join(src, "core", "rptr.py")) == "core.rptr"
    assert layer_of(os.path.join(src, "core", "subshard.py")) == "core.shard"
    assert layer_of(os.path.join(src, "core", "lease.py")) == "core.store"
    assert layer_of(os.path.join(src, "durable", "log.py")) == "durable"
    assert layer_of(os.path.join(src, "qos", "drr.py")) is None
    assert layer_of(os.path.join(ROOT, "perfbench", "gen.py")) == "bench"
    assert layer_of("~") is None


# -- the checker ------------------------------------------------------------

def test_value_roundtrip_and_corruption():
    value = encode_value(7, 3, 11, 32)
    assert decode_value(value, 32) == (7, 3, 11)
    corrupt = bytearray(value)
    corrupt[5] ^= 0x40
    with pytest.raises(Violation):
        decode_value(bytes(corrupt), 32)
    with pytest.raises(Violation):
        decode_value(value[:-1], 32)
    with pytest.raises(Violation):
        decode_value(None, 32)


def test_history_stale_and_lost():
    h = History(2, 32)
    preload = encode_value(0, PRELOAD_WRITER, 0, 32)
    h.check_read(0, preload, issued_ns=5)
    v1 = h.issue(0, writer=1, seq=1, now=10)
    h.check_read(0, preload, issued_ns=12)   # write in flight: either is fine
    h.ack(1, 1, now=20)
    h.check_read(0, v1, issued_ns=15)
    with pytest.raises(Violation, match="stale"):
        h.check_read(0, preload, issued_ns=25)
    v2 = h.issue(0, writer=2, seq=1, now=15)  # concurrent with v1
    h.ack(2, 1, now=30)
    h.check_read(0, v1, issued_ns=35)          # v1 may have been applied last
    h.check_final(0, v1)
    h.check_final(0, v2)
    v3 = h.issue(0, writer=1, seq=2, now=40)
    h.ack(1, 2, now=50)
    with pytest.raises(Violation, match="lost"):
        h.check_final(0, v2)
    h.check_final(0, v3)
    with pytest.raises(Violation, match="key 1"):
        h.check_read(1, v3, issued_ns=60)
    with pytest.raises(Violation, match="never written"):
        h.check_read(0, encode_value(0, 9, 9, 32), issued_ns=60)


# -- whole sessions on a tiny shape -------------------------------------------

_TINY = spec.Workload(
    name="tiny", why="test", servers=1, shards_per_server=2,
    client_machines=1, clients=4, keys=256, value_bytes=32, write_frac=0.3,
    dist="zipf", batch=4, warmup_ns=20_000, window_ns=300_000,
    slo_ns=100_000, write_tail_pct=50,
    overrides={"memory": {"arena_bytes": 1 << 20},
               "hydra": {"buckets_per_shard": 1 << 8}})


def _run(w, seed, wrap=None):
    session = Session(w, seed)
    if wrap is not None:
        session.clients = [wrap(c) for c in session.clients]
    session.start()
    session.sim.run(until=session.cutoff)
    session.finish()
    return session


def test_tiny_session_is_deterministic_per_seed():
    a = _run(_TINY, 3)
    b = _run(_TINY, 3)
    assert a.calls > 0 and a.keyops > 0
    assert a.outcome() == b.outcome()
    assert _run(_TINY, 4).outcome() != a.outcome()


def test_tiny_open_loop_is_deterministic_per_seed():
    w = dataclasses.replace(_TINY, offered_rate=2e6, batch=1)
    a = _run(w, 5)
    b = _run(w, 5)
    assert a.calls > 0
    assert a.outcome() == b.outcome()


class _Wrapper:
    """Delegates to a real client; subclasses tamper with one call."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _CorruptingReads(_Wrapper):
    def get_many(self, keys):
        values = yield from self.inner.get_many(keys)
        first = bytearray(values[0])
        first[3] ^= 0x01
        return [bytes(first)] + values[1:]


class _DroppingWrites(_Wrapper):
    def update(self, key, value):
        yield self.inner.sim.timeout(1_000)
        return Status.OK


def test_checker_rejects_corrupted_value():
    with pytest.raises(UnhandledProcessError) as info:
        _run(_TINY, 1, wrap=_CorruptingReads)
    assert isinstance(info.value.__cause__, Violation)
    assert "checksum" in str(info.value.__cause__)


def test_checker_rejects_lost_acked_write():
    w = dataclasses.replace(_TINY, write_frac=1.0)
    with pytest.raises(Violation, match="lost acknowledged write"):
        _run(w, 1, wrap=_DroppingWrites)
