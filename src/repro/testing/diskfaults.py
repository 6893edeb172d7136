"""Bit rot at rest -- the one disk fault that is not a hook.

Every other disk fault (``EIO``/``ENOSPC`` on open, read, write or
fsync, short writes) is armed on the fault seam, :mod:`repro.faults`,
which the storage and WAL layers route their I/O through.  Corruption
that happens long after a write is physical instead: :func:`flip_bit`
flips one bit of an existing file in place.

Example::

    from repro.testing.diskfaults import flip_bit

    flip_bit(segment_path, offset=120)   # rot a record at rest
"""

from __future__ import annotations

import io
import os

__all__ = ["flip_bit"]


def flip_bit(path: str, offset: int, bit: int = 0) -> int:
    """Flip one bit of ``path`` in place -- silent corruption at rest.

    Args:
        path: the file to damage.
        offset: byte offset to flip (negative counts from the end).
        bit: which bit of the byte (0 = least significant).

    Returns:
        The byte offset actually flipped (always non-negative).

    Raises:
        ValueError: when the offset is outside the file.
    """
    size = os.path.getsize(path)
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside {path} ({size} bytes)")
    with io.open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([original ^ (1 << bit)]))
    return offset
