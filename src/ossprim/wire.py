"""The one checked reader behind every deserializer.

Contract: a deserializer reads its blob front to back through a ``Reader``
and finishes with ``done()``, so truncated, overlong or mislabelled input
raises ``ContractError`` and never a lower-level exception or a silently
misread object.  Serializers write with ``struct.pack`` directly, passing
a u64 field that a wide key can overflow through ``u64``.
"""

from __future__ import annotations

import struct

from .errors import ContractError, RangeError


class Reader:
    """Sequential little-endian reads over ``data``; ``what`` names the
    artifact in error messages."""

    def __init__(self, data: bytes, what: str):
        self._data = bytes(data)
        self._off = 0
        self.what = what

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        end = self._off + n
        if n < 0 or end > len(self._data):
            raise ContractError(f"truncated {self.what}")
        out = self._data[self._off : end]
        self._off = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def blob(self, len_fmt: str) -> bytes:
        """A byte string prefixed by its length in format ``len_fmt``."""
        (n,) = self.unpack(len_fmt)
        return self.take(n)

    def fits(self, value: int, bits: int, field: str) -> int:
        """``value`` if it is below ``2^bits``: a payload field wider than its
        declared width is corrupt input, not a caller's dimension mistake."""
        if value >> bits:
            raise ContractError(f"{field} wider than {bits} bits in {self.what}")
        return value

    def rest(self) -> bytes:
        """Everything not yet read."""
        return self.take(len(self._data) - self._off)

    def done(self) -> None:
        if self._off != len(self._data):
            raise ContractError(f"{len(self._data) - self._off} trailing bytes after {self.what}")


def u64(value: int, field: str) -> int:
    """``value`` for a serializer's u64 field, refused before packing if it
    needs more than 64 bits."""
    if value >> 64:
        raise RangeError(f"{field} {value} does not fit its 64-bit field")
    return value
