"""Pickle-free wire protocol for the process-backed SimWorld.

Process mode (:mod:`.procworld`) moves two very different kinds of
payload between ranks:

* **bulk data** — packed halo slabs living in
  ``multiprocessing.shared_memory`` segments.  Only a tiny *control
  frame* crosses the pipe: the segment name plus enough dtype/shape
  metadata for the receiver to map a NumPy view onto the same physical
  pages.  No byte of field data is serialised.
* **small objects** — collective contributions, scalars, arbitrary
  user payloads.  These ride as a pickled body behind a fixed header.

Every frame is **bounded** (:data:`MAX_FRAME`): a rank's inbox is one
pipe that every other rank writes without a lock, and POSIX makes a
write atomic — never interleaved, and all-or-nothing on a non-blocking
descriptor — only up to ``PIPE_BUF`` bytes.  An OBJ frame that does
not fit is staged in a shared-memory slab by the sender and crosses as
a SHM frame flagged :data:`FLAG_OBJ`.

Frames are flat ``bytes`` built with :mod:`struct` — decoding a SHM
frame touches no allocator beyond the few strings it returns, so the
control path stays off the pickle machinery entirely (the "small
pickle-free wire protocol" of the paper-scale transport this models).

Frame layout (little-endian)::

    SHM frame:  u8 type(=1) | u8 flags | i32 src | i32 tag
                | str seg name | str kind | str dtype
                | u8 ndim | i64 * ndim shape
    OBJ frame:  u8 type(=2) | u8 flags | i32 src | i32 tag
                | pickled body

where ``str`` is a u16 length followed by UTF-8 bytes.
"""

from __future__ import annotations

import pickle
import select
import struct
from typing import Any, Tuple

from ..errors import CommunicationError

#: Frame types.
FRAME_SHM = 1
FRAME_OBJ = 2

#: Flags on SHM frames.
FLAG_MOVE = 0x01     #: ownership handoff: receiver keeps the segment view
FLAG_OBJ = 0x02      #: slab holds an oversize OBJ frame: decode, recycle

_HEADER = struct.Struct("<BBii")

#: Largest frame one atomic pipe write can carry: ``Connection.send_bytes``
#: prepends a 4-byte length to the same ``write``.
MAX_FRAME = select.PIPE_BUF - 4
_U16 = struct.Struct("<H")
_I64 = struct.Struct("<q")


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:  # pragma: no cover - defensive
        raise CommunicationError(f"wire string too long ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _unpack_str(buf: bytes, off: int) -> Tuple[str, int]:
    (n,) = _U16.unpack_from(buf, off)
    off += _U16.size
    return buf[off:off + n].decode("utf-8"), off + n


def encode_shm(src: int, tag: int, flags: int, segment: str, kind: str,
               dtype: str, shape: Tuple[int, ...]) -> bytes:
    """A control frame describing a shared-memory payload."""
    parts = [
        _HEADER.pack(FRAME_SHM, flags, src, tag),
        _pack_str(segment),
        _pack_str(kind),
        _pack_str(dtype),
        struct.pack("<B", len(shape)),
    ]
    parts.extend(_I64.pack(int(d)) for d in shape)
    return b"".join(parts)


def encode_obj(src: int, tag: int, body: Any, flags: int = 0) -> bytes:
    """A control frame carrying a pickled small-object body."""
    return _HEADER.pack(FRAME_OBJ, flags, src, tag) + \
        pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)


class ShmFrame:
    """Decoded SHM control frame."""

    __slots__ = ("src", "tag", "flags", "segment", "kind", "dtype", "shape")

    def __init__(self, src, tag, flags, segment, kind, dtype, shape) -> None:
        self.src = src
        self.tag = tag
        self.flags = flags
        self.segment = segment
        self.kind = kind
        self.dtype = dtype
        self.shape = shape


class ObjFrame:
    """Decoded small-object frame."""

    __slots__ = ("src", "tag", "flags", "body")

    def __init__(self, src, tag, flags, body) -> None:
        self.src = src
        self.tag = tag
        self.flags = flags
        self.body = body


def decode(frame):
    """Decode one wire frame into a :class:`ShmFrame` / :class:`ObjFrame`.

    ``frame`` is any buffer that starts with a frame (``bytes`` off the
    pipe, or the ``uint8`` slab an oversize OBJ frame was staged in).
    """
    ftype, flags, src, tag = _HEADER.unpack_from(frame, 0)
    off = _HEADER.size
    if ftype == FRAME_SHM:
        segment, off = _unpack_str(frame, off)
        kind, off = _unpack_str(frame, off)
        dtype, off = _unpack_str(frame, off)
        (ndim,) = struct.unpack_from("<B", frame, off)
        off += 1
        shape = []
        for _ in range(ndim):
            (d,) = _I64.unpack_from(frame, off)
            off += _I64.size
            shape.append(d)
        return ShmFrame(src, tag, flags, segment, kind, dtype, tuple(shape))
    if ftype == FRAME_OBJ:
        return ObjFrame(src, tag, flags, pickle.loads(frame[off:]))
    raise CommunicationError(f"unknown wire frame type {ftype}")
