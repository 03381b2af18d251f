"""Shared-memory doorbell data plane for the sharded engine.

The coordinator/shard protocol in :mod:`repro.sim.shard` is a strict
ping-pong per worker: the coordinator posts one request, the worker sends
exactly one reply, and neither side writes again until it has consumed the
other's message.  That discipline lets both directions share one
preallocated ``multiprocessing.shared_memory`` segment per shard — a
*mailbox* — split into a request slab and a reply slab:

``[ request region | reply region ]``

Hot messages are serialized with pickle protocol 5: the small object
skeleton pickles in-band while every NumPy array body of at least
:data:`_INLINE_MAX` bytes becomes an out-of-band
:class:`pickle.PickleBuffer` whose bytes are copied straight into the
sender's slab (smaller bodies stay in-band — see :data:`_INLINE_MAX`).  The ``Pipe`` then carries only a *doorbell
frame* — a few hundred bytes of header, ``(offset, length)`` descriptor
table, and skeleton pickle — instead of megabytes of array payload.  The
receiver rebuilds the arrays either as zero-copy views over the slab or,
when the ``copy`` flag is set, as private copies that stay valid after the
slab is overwritten by the next exchange.

A doorbell frame starts with :data:`_MAGIC`; a plain pickle stream always
starts with ``0x80`` (the ``PROTO`` opcode), so both frame kinds coexist
on the same ``Connection`` and oversized payloads simply fall back to
in-band pickling — the slab is an optimization, never a correctness
constraint.

Lifecycle rules (enforced repo-wide by the ``shm-lifecycle`` reprolint
rule):

* the coordinator *creates* each segment and is the only side that ever
  calls :meth:`ShardMailbox.unlink` — on handle close, on kill, and on
  every supervised-respawn path;
* workers *attach* and only :meth:`ShardMailbox.close`; because every
  ``multiprocessing`` child shares its parent's resource tracker, the
  attach-side registration is a set no-op there and the worker must
  *not* unregister — doing so would strip the coordinator's own
  registration and its later ``unlink`` would double-unregister;
* if the coordinator itself dies before unlinking, its resource tracker
  removes the segment, so a crash leaks nothing in ``/dev/shm``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

__all__ = [
    "REPLY",
    "REQUEST",
    "SEGMENT_PREFIX",
    "ShardMailbox",
]

#: ``/dev/shm`` name prefix for every segment this module creates; the
#: chaos tests glob for it to prove fault paths leak nothing.
SEGMENT_PREFIX = "reproshard"

#: First byte of a doorbell frame.  Anything other than ``0x80`` works
#: (every pickle stream of protocol >= 2 starts with the PROTO opcode),
#: which is what lets doorbell and fallback frames share one Connection.
_MAGIC = 0x7B

_HEADER = struct.Struct("<BBII")  # magic, copy flag, buffer count, skeleton length
_DESCRIPTOR = struct.Struct("<QQ")  # absolute segment offset, byte length
_ALIGN = 64  # start each slab buffer on a cache line

#: Buffers below this stay in-band: the fixed per-buffer cost of slab
#: placement (descriptor, alignment, two memoryview slices) is ~10us,
#: which beats an in-band byte copy only for large arrays.  Small
#: payloads therefore ride the pickle stream exactly as before the shm
#: plane existed, and the slab carries just the megabyte-class bodies
#: (parameter vectors, megafleet payload columns).
_INLINE_MAX = 16384

#: Region selectors for :meth:`ShardMailbox.encode`.
REQUEST = 0
REPLY = 1

#: Deterministic per-process segment naming (no RNG — segment names must
#: not perturb any seeded stream, and the pid keeps concurrent
#: coordinators apart).
_segment_counter = itertools.count()


class ShardMailbox:
    """One shard's preallocated request/reply slabs plus frame codec.

    Created (and later unlinked) by the coordinator, attached by the
    worker from the :meth:`spec` dict carried in its init kwargs.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        request_bytes: int,
        reply_bytes: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self._regions: Tuple[Tuple[int, int], ...] = (
            (0, request_bytes),
            (request_bytes, reply_bytes),
        )
        self._closed = False
        self._unlinked = False

    # -- lifecycle ---------------------------------------------------------------------

    @classmethod
    def create(cls, request_bytes: int, reply_bytes: int) -> "ShardMailbox":
        """Allocate a fresh segment (coordinator side)."""
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_segment_counter)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=request_bytes + reply_bytes
        )
        try:
            return cls(shm, request_bytes, reply_bytes, owner=True)
        except BaseException:
            shm.close()
            shm.unlink()
            raise

    @classmethod
    def attach(cls, spec: Dict[str, Any]) -> "ShardMailbox":
        """Map an existing segment from its :meth:`spec` (worker side)."""
        shm = shared_memory.SharedMemory(name=spec["name"])
        try:
            return cls(shm, spec["request_bytes"], spec["reply_bytes"], owner=False)
        except BaseException:
            shm.close()
            raise

    def spec(self) -> Dict[str, Any]:
        """Everything a worker needs to :meth:`attach` (picklable)."""
        return {
            "name": self._shm.name,
            "request_bytes": self._regions[REQUEST][1],
            "reply_bytes": self._regions[REPLY][1],
        }

    def close(self) -> None:
        """Unmap the segment; idempotent, safe on both sides."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # A consumer still holds zero-copy views over the slab.  The
            # mapping is reclaimed at process exit either way, and
            # unlink() below needs only the name — never let a live view
            # turn teardown into a crash.
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner only); idempotent."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        """Owner-side teardown: close the mapping and unlink the name."""
        self.close()
        self.unlink()

    # -- frame codec -------------------------------------------------------------------

    def encode(self, obj: Any, region: int, copy: bool) -> bytes:
        """Serialize ``obj`` into one doorbell frame for ``region``.

        Every pickle-5 buffer of at least :data:`_INLINE_MAX` bytes
        (large NumPy array body) is copied into the slab; the returned
        frame holds header, descriptor table, and skeleton pickle
        (small buffers included in-band).  ``copy`` tells the *receiver* whether
        to materialize private copies (safe to retain across exchanges)
        or zero-copy views (valid only until this side's next write).
        Payloads that exceed the slab fall back to plain in-band pickle.
        """
        start, capacity = self._regions[region]
        buffers: List[pickle.PickleBuffer] = []
        views: List[memoryview] = []

        def _select(buffer: pickle.PickleBuffer) -> bool:
            # True -> pickle the buffer in-band; False -> out-of-band.
            view = buffer.raw()
            if view.nbytes < _INLINE_MAX:
                view.release()
                return True
            views.append(view)
            buffers.append(buffer)
            return False

        try:
            try:
                skeleton = pickle.dumps(obj, protocol=5, buffer_callback=_select)
            except BufferError:
                # A non-contiguous exporter slipped through; in-band
                # pickling handles it without the slab.
                return pickle.dumps(obj, protocol=5)
            cursor = 0
            placements: List[Tuple[int, int]] = []
            for view in views:
                aligned = -(-cursor // _ALIGN) * _ALIGN
                placements.append((aligned, view.nbytes))
                cursor = aligned + view.nbytes
            if cursor > capacity:
                return pickle.dumps(obj, protocol=5)
            slab = self._shm.buf
            parts = [_HEADER.pack(_MAGIC, 1 if copy else 0, len(views), len(skeleton))]
            for view, (relative, nbytes) in zip(views, placements):
                absolute = start + relative
                if nbytes:
                    slab[absolute : absolute + nbytes] = view
                parts.append(_DESCRIPTOR.pack(absolute, nbytes))
            parts.append(skeleton)
            return b"".join(parts)
        finally:
            for view in views:
                view.release()
            for buffer in buffers:
                buffer.release()

    def decode(self, frame: bytes) -> Any:
        """Inverse of :meth:`encode`; also accepts plain pickle frames."""
        if not frame or frame[0] != _MAGIC:
            return pickle.loads(frame)
        _, copy, count, skeleton_len = _HEADER.unpack_from(frame, 0)
        cursor = _HEADER.size
        slab = self._shm.buf
        buffers: List[Any] = []
        for _ in range(count):
            offset, nbytes = _DESCRIPTOR.unpack_from(frame, cursor)
            cursor += _DESCRIPTOR.size
            window = slab[offset : offset + nbytes]
            # bytearray, not bytes: NumPy reconstructs arrays directly over
            # the supplied buffer, and a bytes copy would hand every
            # consumer read-only arrays (breaking e.g. load_state_dict).
            buffers.append(bytearray(window) if copy else window)
        return pickle.loads(frame[cursor : cursor + skeleton_len], buffers=buffers)

