"""Correctness checks: self-describing values and a per-key write history.

Every value the benchmark writes names itself: key id, writer, the
writer's sequence number, a filler derived from those, and a CRC32 over
the rest.  A read is checked on arrival:

* the bytes decode (length, CRC) and carry the key id that was read;
* the write it names was issued before the read completed;
* it was not *definitely overwritten* before the read began — no other
  acknowledged write to the key was issued after this one was
  acknowledged and acknowledged before the read was issued.  (That is the
  register-linearizability condition a stale remote pointer or a lost
  write would break.)

After the run every key's stored value is checked the same way against
the whole history, which catches a lost acknowledged write.
"""

from __future__ import annotations

import bisect
import struct
import zlib

__all__ = ["PRELOAD_WRITER", "encode_value", "decode_value", "History",
           "Violation"]

_HDR = struct.Struct("<III")
_CRC = struct.Struct("<I")
#: Writer id of the values installed during set-up.
PRELOAD_WRITER = 0xFFFFFFFF
_INF = float("inf")


class Violation(AssertionError):
    """The system returned or kept a value it must not have."""


def encode_value(key_id: int, writer: int, seq: int, size: int) -> bytes:
    """A ``size``-byte value naming (key_id, writer, seq) with a CRC."""
    hdr = _HDR.pack(key_id, writer, seq)
    body = (hdr * (size // len(hdr) + 1))[:size - _CRC.size]
    return body + _CRC.pack(zlib.crc32(body))


def decode_value(value: bytes, size: int) -> tuple[int, int, int]:
    """(key_id, writer, seq) of a value; raises :class:`Violation` if the
    bytes are not a value this benchmark wrote."""
    if value is None:
        raise Violation("missing value")
    if len(value) != size:
        raise Violation(f"value of {len(value)} B, expected {size} B")
    body = value[:-_CRC.size]
    if _CRC.unpack_from(value, size - _CRC.size)[0] != zlib.crc32(body):
        raise Violation("value checksum mismatch")
    return _HDR.unpack_from(value)


class History:
    """Issued and acknowledged writes per key, and the checks against them.

    Times are simulated nanoseconds.  Acks arrive in time order, so each
    key's acks are an append-only list with a running maximum of the
    acked writes' issue times.
    """

    def __init__(self, n_keys: int, value_bytes: int):
        self.value_bytes = value_bytes
        #: (writer, seq) -> [key_id, issue_ns, ack_ns or inf]
        self._writes: dict[tuple[int, int], list] = {}
        self._ack_times: list[list[int]] = [[] for _ in range(n_keys)]
        self._ack_max_issue: list[list[int]] = [[] for _ in range(n_keys)]
        self.reads_checked = 0

    def issue(self, key_id: int, writer: int, seq: int, now: int) -> bytes:
        """Record a write about to be issued; returns its value."""
        self._writes[(writer, seq)] = [key_id, now, _INF]
        return encode_value(key_id, writer, seq, self.value_bytes)

    def ack(self, writer: int, seq: int, now: int) -> None:
        """Record that the write was acknowledged at ``now``."""
        rec = self._writes[(writer, seq)]
        rec[2] = now
        key_id, issued = rec[0], rec[1]
        times = self._ack_times[key_id]
        maxes = self._ack_max_issue[key_id]
        times.append(now)
        maxes.append(max(issued, maxes[-1]) if maxes else issued)

    def _ack_ns(self, key_id: int, value: bytes) -> float:
        """Ack time of the write that produced ``value`` (-inf: set-up)."""
        kid, writer, seq = decode_value(value, self.value_bytes)
        if kid != key_id:
            raise Violation(f"key {key_id} returned the value of key {kid}")
        if writer == PRELOAD_WRITER:
            return -_INF
        rec = self._writes.get((writer, seq))
        if rec is None or rec[0] != key_id:
            raise Violation(f"key {key_id} returned a value never written "
                            f"to it (writer {writer}, seq {seq})")
        return rec[2]

    def _overwritten_by(self, key_id: int, ack_ns: float,
                        before_ns: float) -> bool:
        """True if an acked write issued after ``ack_ns`` was acked
        before ``before_ns``."""
        times = self._ack_times[key_id]
        i = bisect.bisect_left(times, before_ns)
        return i > 0 and self._ack_max_issue[key_id][i - 1] > ack_ns

    def check_read(self, key_id: int, value: bytes, issued_ns: int) -> None:
        """Check a value returned by a read issued at ``issued_ns``."""
        ack_ns = self._ack_ns(key_id, value)
        if self._overwritten_by(key_id, ack_ns, issued_ns):
            raise Violation(f"stale read of key {key_id}: a newer write "
                            f"was acknowledged before the read began")
        self.reads_checked += 1

    def check_final(self, key_id: int, value: bytes) -> None:
        """Check a key's value after every client has stopped."""
        ack_ns = self._ack_ns(key_id, value)
        if self._overwritten_by(key_id, ack_ns, _INF):
            raise Violation(f"lost acknowledged write on key {key_id}")

    def check_store(self, contents: dict[bytes, bytes],
                    keys: list[bytes]) -> int:
        """Sweep every key of ``keys`` in ``contents``; returns the count."""
        for key_id, key in enumerate(keys):
            value = contents.get(key)
            if value is None:
                raise Violation(f"key {key_id} missing after the run")
            self.check_final(key_id, value)
        return len(keys)
