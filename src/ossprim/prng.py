"""Deterministic keyed randomness: GGM puncturable PRF and derived streams.

The length-doubling primitive is a 256-bit hash compression chosen at build
time and recorded as a one-byte algorithm identifier in every serialized key,
so test vectors stay portable:

* backend 1 (default): SHA-256.  The PRF: the full GGM tree, puncturing,
  derived keys and bit streams, for every cryptographic-flavored consumer in
  the package.
* backend 2 ("fastmix"): INSECURE-DEMO scale keys.  Such a key only supplies
  two 64-bit key words (``PrfKey.fast_words``), which the scale path mixes
  into context words with ``mix64`` under the ``TAG_*`` words below.  It has
  no PRF, puncturing, stream or key derivation: every entry point here that
  needs the GGM tree refuses it with ``UnsupportedBackend``.

The same machinery serves two input shapes: classic byte-string inputs (the
GGM leaf at the input's bit path) and explicit tree nodes, which lets a
caller evaluate and puncture at *internal* positions of the tree.  A node is
its heap index, an int >= 1: 1 is the root, ``node << 1 | b`` is child b and
``node >> 1`` the parent, so the depth is ``node.bit_length() - 1`` and the
path is the bits below the leading one.  Integer order is (depth, path)
order.  Internal-node outputs are domain-separated from the seeds of their
children, so revealing a child seed never reveals the parent's output.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .errors import ContractError, DimensionError, PunctureError, UnsupportedBackend
from .wire import Reader

BACKEND_SHA256 = 1
BACKEND_FASTMIX = 2

SEED_LEN = 32

# The fastmix words, defined here only: mix64's constants and the context
# tags (fastpath wraps them in np.uint64 for its lanes)
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_M1, MIX_M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
TAG_ROOT = 0x524F4F54
TAG_CHILD = 0x4348494C44
TAG_MERGE = 0x4D45524745
TAG_XOR = 0x584F52

_SHA256_ONLY = "fastmix keys supply key words only: this needs the GGM (sha256) backend"

_BIT = (b"\x00", b"\x01")
_BIT_OF = {"0": _BIT[0], "1": _BIT[1]}
_DERIVE = b"\x01derive:"
_DERIVE_DEPTH = 8 * len(_DERIVE)
_OUT = b"\xffout"
_OUT_BLOCK0 = _OUT + struct.pack("<I", 0)


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def mix64(a: int, b: int, c: int) -> int:
    """One 64-bit ARX-style mixing round chain (NOT cryptographic)."""
    x = (a ^ (b * GOLDEN & MASK64) ^ c) & MASK64
    for _ in range(3):
        x = (x ^ (x >> 30)) * MIX_M1 & MASK64
        x = (x ^ (x >> 27)) * MIX_M2 & MASK64
        x ^= x >> 31
    return x


def node_depth(node: int) -> int:
    """Depth of a tree node; refuses an int that is no heap index."""
    if node < 1:
        raise DimensionError(f"tree node {node} is not a heap index >= 1")
    return node.bit_length() - 1


def node_name(node: int) -> str:
    """A tree node as errors name it, by depth and path."""
    depth = node.bit_length() - 1
    return f"node (depth {depth}, path {node ^ 1 << depth})"


@lru_cache(maxsize=256)
def _branches(node: int) -> tuple[bytes, ...]:
    """The branch byte ``_descend`` appends at each level, root first."""
    node_depth(node)  # refuses an int below 1
    return tuple(map(_BIT_OF.__getitem__, format(node, "b")[1:]))


@dataclass(frozen=True)
class PrfKey:
    """Root key: 32-byte seed plus a domain-separation tag."""

    seed: bytes
    domain_tag: bytes = b""
    backend: int = BACKEND_SHA256

    def __post_init__(self):
        if len(self.seed) != SEED_LEN:
            raise DimensionError(f"seed must be {SEED_LEN} bytes")

    @cached_property
    def _root(self) -> bytes:
        return _sha(b"root" + bytes([self.backend]) + struct.pack("<H", len(self.domain_tag)) + self.domain_tag + self.seed)

    @cached_property
    def _derive_prefix(self) -> bytes:
        """GGM seed at the node every ``derive_key`` label sits under."""
        return _descend(self._root, _bytes_to_node(_DERIVE))

    def root_seed(self) -> bytes:
        return self._root

    _fast_words = cached_property(lambda self: struct.unpack("<QQ", self._root[:16]))

    def fast_words(self) -> tuple[int, int]:
        """A fastmix key's two key words: the first 16 bytes of its root hash."""
        return self._fast_words


# Every hash reads this module's hashlib binding at call time, so perfbench's
# tracer, which swaps that binding, counts each one.

def _expand(seed: bytes, bit: int) -> bytes:
    """Length-doubling step: child seed for branch ``bit``."""
    return hashlib.sha256(seed + _BIT[bit]).digest()


def _finalize(seed: bytes, out_len: int) -> bytes:
    """Node output stream, domain-separated from child derivation."""
    if out_len <= 32:
        return hashlib.sha256(seed + _OUT_BLOCK0).digest()[:out_len]
    blocks = (_sha(seed + _OUT + struct.pack("<I", ctr)) for ctr in range((out_len + 31) // 32))
    return b"".join(blocks)[:out_len]


def _bytes_to_node(x: bytes) -> int:
    """The leaf at x's bit path."""
    return 1 << 8 * len(x) | int.from_bytes(x, "big")


def _descend(seed: bytes, node: int, from_depth: int = 0) -> bytes:
    """Seed at ``node``, from ``seed`` at its ancestor of depth ``from_depth``."""
    sha256 = hashlib.sha256
    for branch in _branches(node)[from_depth:]:
        seed = sha256(seed + branch).digest()
    return seed


def tree_eval(key: PrfKey, node: int, out_len: int) -> bytes:
    """PRF output at an arbitrary tree node (internal nodes allowed)."""
    if out_len < 1:
        raise DimensionError("out_len must be >= 1")
    if key.backend != BACKEND_SHA256:
        raise UnsupportedBackend(_SHA256_ONLY)
    return _finalize(_descend(key._root, node), out_len)


def prf_eval(key: PrfKey, x: bytes, out_len: int) -> bytes:
    """Classic PRF on byte strings: the tree node at x's full bit path."""
    return tree_eval(key, _bytes_to_node(x), out_len)


@dataclass(frozen=True)
class PuncturedPrfKey:
    """GGM key punctured at a set of tree nodes.

    ``copath`` holds (position, seed) pairs for the maximal subtrees that
    contain no punctured node; positions are pairwise non-ancestral.  Eval is
    defined exactly on nodes outside the ancestor-closure of the punctured
    set.
    """

    punctured: tuple[int, ...]
    copath: tuple[tuple[int, bytes], ...]
    domain_tag: bytes = b""


def puncture_nodes(
    key: PrfKey, nodes: Iterable[int], floor_depth: Optional[int] = None
) -> PuncturedPrfKey:
    """Puncture at arbitrary tree nodes (and implicitly their ancestors).

    Puncturing a node hides its output and the outputs of all its ancestors;
    every node outside that closure stays computable from the copath seeds.
    ``floor_depth`` caps the tree: no copath seed is emitted below it, so
    puncturing an entire fixed-length domain leaves nothing behind.
    """
    if key.backend != BACKEND_SHA256:
        raise UnsupportedBackend(_SHA256_ONLY)
    pts = sorted(set(nodes))
    closed = {p >> up for p in pts for up in range(node_depth(p) + 1)}
    copath: list[tuple[int, bytes]] = []
    if not pts:
        copath.append((1, key.root_seed()))
    else:
        # walk the closure; keep each child that exits it
        frontier = [(1, key.root_seed())]
        while frontier:
            node, seed = frontier.pop()
            for bit in (0, 1):
                ch = node << 1 | bit
                if ch in closed:
                    frontier.append((ch, _expand(seed, bit)))
                elif floor_depth is None or ch.bit_length() - 1 <= floor_depth:
                    copath.append((ch, _expand(seed, bit)))
    copath.sort()
    return PuncturedPrfKey(tuple(pts), tuple(copath), key.domain_tag)


def puncture(key: PrfKey, s: Iterable[bytes]) -> PuncturedPrfKey:
    """Puncture at a set of byte-string inputs (all the same length)."""
    pts = list(s)
    lengths = {len(x) for x in pts}
    if len(lengths) > 1:
        raise DimensionError("punctured inputs must share one length")
    floor = 8 * lengths.pop() if lengths else None
    return puncture_nodes(key, (_bytes_to_node(x) for x in pts), floor_depth=floor)


def punctured_tree_eval(pk: PuncturedPrfKey, node: int, out_len: int) -> bytes:
    depth = node_depth(node)
    for pos, seed in pk.copath:
        pos_depth = pos.bit_length() - 1
        if pos_depth <= depth and node >> depth - pos_depth == pos:
            return _finalize(_descend(seed, node, from_depth=pos_depth), out_len)
    raise PunctureError(f"{node_name(node)} is punctured")


def punctured_eval(pk: PuncturedPrfKey, x: bytes, out_len: int) -> bytes:
    """Evaluate a punctured key; raises PunctureError on punctured inputs."""
    return punctured_tree_eval(pk, _bytes_to_node(x), out_len)


# -- unbounded bit streams ----------------------------------------------------

class BitStream:
    """Counter-mode bit source under (key, label); reproducible, unbounded.

    Single consumer: the read position is internal state.  Create one stream
    per logical use (or per thread).
    """

    def __init__(self, key: PrfKey, label: bytes):
        if key.backend != BACKEND_SHA256:
            raise UnsupportedBackend(_SHA256_ONLY)
        self._seed = _sha(key.root_seed() + b"\xfestream" + struct.pack("<H", len(label)) + label)
        self._ctr = 0
        self._buf = 0
        self._buf_bits = 0

    def bits(self, n: int) -> int:
        """Next n bits as an integer (earlier bits are more significant)."""
        while self._buf_bits < n:
            blk = _sha(self._seed + struct.pack("<Q", self._ctr))
            self._ctr += 1
            self._buf = (self._buf << 256) | int.from_bytes(blk, "big")
            self._buf_bits += 256
        self._buf_bits -= n
        out = self._buf >> self._buf_bits
        self._buf &= (1 << self._buf_bits) - 1
        return out

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise DimensionError("randbelow needs n >= 1")
        k = (n - 1).bit_length()
        while True:
            v = self.bits(k) if k else 0
            if v < n:
                return v


def bit_stream(key: PrfKey, label: bytes) -> BitStream:
    return BitStream(key, label)


def derive_key(key: PrfKey, label: bytes, *more: bytes) -> PrfKey | tuple[PrfKey, ...]:
    """Child key under a domain label; with several labels, their keys as a
    tuple from one descent, in which each label starts from the seed that
    the label before it left at their common bit prefix."""
    if key.backend != BACKEND_SHA256:
        raise UnsupportedBackend(_SHA256_ONLY)
    sha256 = hashlib.sha256
    last = _bytes_to_node(_DERIVE)
    seeds = [key._derive_prefix]  # down ``last``, one per depth from _DERIVE_DEPTH
    keys = []
    for lab in (label, *more):
        node = _bytes_to_node(_DERIVE + lab)
        node_d, last_d = node.bit_length() - 1, last.bit_length() - 1
        depth = min(node_d, last_d)
        split = (node >> (node_d - depth)) ^ (last >> (last_d - depth))
        common = depth - split.bit_length()  # the levels node and last share
        del seeds[common - _DERIVE_DEPTH + 1:]
        seed = seeds[-1]
        for branch in _branches(node)[common:]:
            seed = sha256(seed + branch).digest()
            seeds.append(seed)
        keys.append(PrfKey(_finalize(seed, SEED_LEN), key.domain_tag + b"/" + lab))
        last = node
    return tuple(keys) if more else keys[0]


def key_from_hex(seed_hex: str) -> PrfKey:
    """Pad/trim a hex string into a 32-byte seed (CLI convenience)."""
    raw = bytes.fromhex(seed_hex)
    seed = _sha(b"hexseed" + raw) if len(raw) != SEED_LEN else raw
    return PrfKey(seed)


# -- serialization ------------------------------------------------------------

def serialize_key(key: PrfKey) -> bytes:
    """algorithm-id byte, tag length u16, tag, seed."""
    return bytes([key.backend]) + struct.pack("<H", len(key.domain_tag)) + key.domain_tag + key.seed


def deserialize_key(data: bytes) -> PrfKey:
    r = Reader(data, "PRF key")
    (backend,) = r.unpack("<B")
    if backend not in (BACKEND_SHA256, BACKEND_FASTMIX):
        raise ContractError(f"unknown PRF backend id {backend}")
    tag = r.blob("<H")
    seed = r.take(SEED_LEN)
    r.done()
    return PrfKey(seed, tag, backend)


def _pack_node(node: int) -> bytes:
    depth = node.bit_length() - 1
    return struct.pack("<H", depth) + (node ^ 1 << depth).to_bytes((depth + 7) // 8 or 1, "big")


def _read_node(r: Reader) -> int:
    (depth,) = r.unpack("<H")
    path = int.from_bytes(r.take((depth + 7) // 8 or 1), "big")
    return 1 << depth | r.fits(path, depth, "node path")


def serialize_punctured(pk: PuncturedPrfKey) -> bytes:
    """algorithm-id (always sha256), sorted punctured points, sorted (position, seed) copath."""
    out = [bytes([BACKEND_SHA256]), struct.pack("<H", len(pk.domain_tag)), pk.domain_tag]
    pts = sorted(pk.punctured)
    out.append(struct.pack("<I", len(pts)))
    out.extend(_pack_node(p) for p in pts)
    cp = sorted(pk.copath, key=lambda t: t[0])
    out.append(struct.pack("<I", len(cp)))
    for pos, seed in cp:
        out.append(_pack_node(pos))
        out.append(seed)
    return b"".join(out)


def deserialize_punctured(data: bytes) -> PuncturedPrfKey:
    r = Reader(data, "punctured PRF key")
    (backend,) = r.unpack("<B")
    if backend != BACKEND_SHA256:
        raise ContractError(f"punctured PRF key backend id {backend}: only sha256 keys puncture")
    tag = r.blob("<H")
    (npts,) = r.unpack("<I")
    pts = tuple(_read_node(r) for _ in range(npts))
    (ncp,) = r.unpack("<I")
    copath = tuple((_read_node(r), r.take(SEED_LEN)) for _ in range(ncp))
    r.done()
    return PuncturedPrfKey(pts, copath, tag)
