"""A column of numbers as one JSON string: how a checkpoint holds arrays.

:func:`pack` writes an :class:`array.array` as
``base64(zlib(little-endian bytes))``; :func:`unpack` reads it back with
one ``frombytes``, so restoring a column costs a decompression and a
copy, not a Python loop per value.  The bytes are the array's items in
the host's C layout, byteswapped on a big-endian host on the way out and
on the way in, so a checkpoint reads the same on either.  The typecodes
the program packs have one size on every supported platform: ``'b'``
(1 byte), ``'i'`` (4), ``'q'`` and ``'d'`` (8, the latter IEEE doubles,
NaN payloads and signed zeros kept bit for bit).

Text that is not a packed column of the expected length — bad base64, a
damaged or cut zlib stream, a byte count that is not a whole number of
items, the wrong number of items — raises :class:`ConfigurationError`,
never a short column.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from base64 import b64decode, b64encode

from .errors import ConfigurationError

__all__ = ["pack", "unpack"]

#: Whether packed bytes must be byteswapped (they are little-endian).
SWAP = sys.byteorder == "big"


def pack(column: array) -> str:
    """``column`` as ``base64(zlib(little-endian bytes))`` ASCII text."""
    if SWAP:
        column = column[:]
        column.byteswap()
    return b64encode(zlib.compress(column.tobytes())).decode("ascii")


def unpack(typecode: str, packed: str, length: int | None = None) -> array:
    """The ``typecode`` array (of ``length`` items, if given) :func:`pack`
    wrote as ``packed`` (``ConfigurationError`` when it is not that)."""
    column = array(typecode)
    try:
        raw = zlib.decompress(b64decode(packed, validate=True))
        column.frombytes(raw)
    except (TypeError, ValueError, zlib.error) as exc:
        raise ConfigurationError(f"not a packed {typecode!r} column: {exc}") from exc
    if length is not None and len(column) != length:
        raise ConfigurationError(
            f"packed {typecode!r} column holds {len(column)} items, expected {length}"
        )
    if SWAP:
        column.byteswap()
    return column
