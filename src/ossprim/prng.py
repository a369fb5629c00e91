"""Deterministic keyed randomness: GGM puncturable PRF and derived streams.

The length-doubling primitive is a 256-bit hash compression chosen at build
time and recorded as a one-byte algorithm identifier in every serialized key,
so test vectors stay portable:

* backend 1 (default): SHA-256.  Supports the full GGM tree, puncturing, and
  every cryptographic-flavored consumer in the package.
* backend 2 ("fastmix"): a 64-bit ARX mix, INSECURE-DEMO only.  Evaluation
  bypasses the GGM tree (one mix per call), so large-domain scale tests are
  cheap; puncturing is unsupported on this backend.

The same machinery serves two input shapes: classic byte-string inputs (the
GGM leaf at the input's bit path) and explicit tree node addresses
(depth, path), which lets a caller evaluate and puncture at *internal*
positions of the tree.  Internal-node outputs are domain-separated from the
seeds of their children, so revealing a child seed never reveals the parent's
output.
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

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

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
    x = (a ^ (b * _GOLDEN & _MASK64) ^ c) & _MASK64
    for _ in range(3):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
        x ^= x >> 31
    return x


@dataclass(frozen=True)
class NodeId:
    """A position in the GGM binary tree: ``path`` is the top ``depth`` bits."""

    depth: int
    path: int

    def __post_init__(self):
        if self.depth < 0 or self.path < 0 or self.path >> self.depth:
            raise DimensionError("path does not fit in depth bits")

    def child(self, bit: int) -> "NodeId":
        return NodeId(self.depth + 1, (self.path << 1) | (bit & 1))

    @cached_property
    def branches(self) -> tuple[bytes, ...]:
        """The branch byte ``_descend`` appends at each level, root first."""
        return tuple(map(_BIT_OF.__getitem__, format((1 << self.depth) | self.path, "b")[1:]))

    def bit(self, level: int) -> int:
        """Bit at tree level ``level`` (0 = first branch below the root)."""
        return (self.path >> (self.depth - 1 - level)) & 1

    def is_ancestor_of(self, other: "NodeId") -> bool:
        """Reflexive ancestry in the tree."""
        return (
            self.depth <= other.depth
            and (other.path >> (other.depth - self.depth)) == self.path
        )

    def sort_key(self):
        return (self.depth, self.path)


ROOT = NodeId(0, 0)


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


@lru_cache(maxsize=256)
def _bytes_to_node(x: bytes) -> NodeId:
    """The leaf at x's bit path; repeated inputs share one node and its branches."""
    return NodeId(8 * len(x), int.from_bytes(x, "big"))


def _descend(seed: bytes, node: NodeId, from_depth: int = 0) -> bytes:
    """Seed at ``node``, from ``seed`` at its ancestor of depth ``from_depth``."""
    sha256 = hashlib.sha256
    for branch in node.branches[from_depth:]:
        seed = sha256(seed + branch).digest()
    return seed


def _fast_eval(key: PrfKey, node: NodeId, out_len: int) -> bytes:
    k0, k1 = key.fast_words()
    out = bytearray()
    ctr = 0
    while len(out) < out_len:
        lo = node.path & _MASK64
        hi = (node.path >> 64) & _MASK64
        h = mix64(k0 ^ (node.depth * _GOLDEN & _MASK64), k1 ^ hi, lo ^ (ctr * 0xD1342543DE82EF95 & _MASK64))
        out += struct.pack("<Q", h)
        ctr += 1
    return bytes(out[:out_len])


def tree_eval(key: PrfKey, node: NodeId, out_len: int) -> bytes:
    """PRF output at an arbitrary tree node (internal nodes allowed)."""
    if out_len < 1:
        raise DimensionError("out_len must be >= 1")
    if key.backend == BACKEND_FASTMIX:
        return _fast_eval(key, node, out_len)
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

    punctured: tuple[NodeId, ...]
    copath: tuple[tuple[NodeId, bytes], ...]
    domain_tag: bytes = b""
    backend: int = BACKEND_SHA256

    def punctured_closure(self) -> frozenset[NodeId]:
        closed = set()
        for p in self.punctured:
            for d in range(p.depth + 1):
                closed.add(NodeId(d, p.path >> (p.depth - d)))
        return frozenset(closed)


def puncture_nodes(
    key: PrfKey, nodes: Iterable[NodeId], floor_depth: Optional[int] = None
) -> PuncturedPrfKey:
    """Puncture at arbitrary tree nodes (and implicitly their ancestors).

    Puncturing a node hides its output and the outputs of all its ancestors;
    every node outside that closure stays computable from the copath seeds.
    ``floor_depth`` caps the tree: no copath seed is emitted below it, so
    puncturing an entire fixed-length domain leaves nothing behind.
    """
    if key.backend != BACKEND_SHA256:
        raise UnsupportedBackend("puncturing requires the GGM (sha256) backend")
    pts = sorted(set(nodes), key=NodeId.sort_key)
    closed = PuncturedPrfKey(tuple(pts), (), key.domain_tag, key.backend).punctured_closure()
    copath: list[tuple[NodeId, bytes]] = []
    if ROOT not in closed:
        copath.append((ROOT, key.root_seed()))
    else:
        # walk the closure; keep each child that exits it
        frontier = [(ROOT, key.root_seed())]
        while frontier:
            node, seed = frontier.pop()
            for bit in (0, 1):
                ch = node.child(bit)
                if ch in closed:
                    frontier.append((ch, _expand(seed, bit)))
                elif floor_depth is None or ch.depth <= floor_depth:
                    copath.append((ch, _expand(seed, bit)))
    copath.sort(key=lambda t: t[0].sort_key())
    return PuncturedPrfKey(tuple(pts), tuple(copath), key.domain_tag, key.backend)


def puncture(key: PrfKey, s: Iterable[bytes]) -> PuncturedPrfKey:
    """Puncture at a set of byte-string inputs (all the same length)."""
    pts = list(s)
    lengths = {len(x) for x in pts}
    if len(lengths) > 1:
        raise DimensionError("punctured inputs must share one length")
    floor = 8 * lengths.pop() if lengths else None
    return puncture_nodes(key, (_bytes_to_node(x) for x in pts), floor_depth=floor)


def punctured_tree_eval(pk: PuncturedPrfKey, node: NodeId, out_len: int) -> bytes:
    for pos, seed in pk.copath:
        if pos.is_ancestor_of(node):
            return _finalize(_descend(seed, node, from_depth=pos.depth), out_len)
    raise PunctureError(f"node (depth={node.depth}, path={node.path:#x}) is punctured")


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
        self._key = key
        self._label = label
        if key.backend == BACKEND_FASTMIX:
            k0, k1 = key.fast_words()
            lab = int.from_bytes(_sha(label), "little") & _MASK64
            self._fast = (k0, mix64(k1, lab, 0x5EED))
        else:
            self._fast = None
            self._seed = _sha(key.root_seed() + b"\xfestream" + struct.pack("<H", len(label)) + label)
        self._ctr = 0
        self._buf = 0
        self._buf_bits = 0

    def _block(self) -> bytes:
        if self._fast is not None:
            k0, k1 = self._fast
            out = struct.pack("<Q", mix64(k0, k1, self._ctr))
        else:
            out = _sha(self._seed + struct.pack("<Q", self._ctr))
        self._ctr += 1
        return out

    def bits(self, n: int) -> int:
        """Next n bits as an integer (earlier bits are more significant)."""
        while self._buf_bits < n:
            blk = self._block()
            self._buf = (self._buf << (8 * len(blk))) | int.from_bytes(blk, "big")
            self._buf_bits += 8 * len(blk)
        self._buf_bits -= n
        out = self._buf >> self._buf_bits
        self._buf &= (1 << self._buf_bits) - 1
        return out

    def bytes(self, n: int) -> bytes:
        return self.bits(8 * n).to_bytes(n, "big") if n else b""

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


def derive_key(key: PrfKey, label: bytes) -> PrfKey:
    """Child key under a domain label; keeps the parent's backend."""
    if key.backend == BACKEND_FASTMIX:
        seed = prf_eval(key, _DERIVE + label, SEED_LEN)
    else:
        node = _bytes_to_node(_DERIVE + label)
        seed = _finalize(_descend(key._derive_prefix, node, _DERIVE_DEPTH), SEED_LEN)
    return PrfKey(seed, key.domain_tag + b"/" + label, key.backend)


def key_from_hex(seed_hex: str) -> PrfKey:
    """Pad/trim a hex string into a 32-byte seed (CLI convenience)."""
    raw = bytes.fromhex(seed_hex)
    seed = _sha(b"hexseed" + raw) if len(raw) != SEED_LEN else raw
    return PrfKey(seed)


# -- serialization ------------------------------------------------------------

def serialize_key(key: PrfKey) -> bytes:
    """algorithm-id byte, tag length u16, tag, seed."""
    return bytes([key.backend]) + struct.pack("<H", len(key.domain_tag)) + key.domain_tag + key.seed


def _read_backend(r: Reader) -> int:
    (backend,) = r.unpack("<B")
    if backend not in (BACKEND_SHA256, BACKEND_FASTMIX):
        raise ContractError(f"unknown PRF backend id {backend}")
    return backend


def deserialize_key(data: bytes) -> PrfKey:
    r = Reader(data, "PRF key")
    backend = _read_backend(r)
    tag = r.blob("<H")
    seed = r.take(SEED_LEN)
    r.done()
    return PrfKey(seed, tag, backend)


def _pack_node(n: NodeId) -> bytes:
    return struct.pack("<H", n.depth) + n.path.to_bytes((n.depth + 7) // 8 or 1, "big")


def _read_node(r: Reader) -> NodeId:
    (depth,) = r.unpack("<H")
    path = int.from_bytes(r.take((depth + 7) // 8 or 1), "big")
    return NodeId(depth, r.fits(path, depth, "node path"))


def serialize_punctured(pk: PuncturedPrfKey) -> bytes:
    """algorithm-id, sorted punctured points, sorted (position, seed) copath."""
    out = [bytes([pk.backend]), struct.pack("<H", len(pk.domain_tag)), pk.domain_tag]
    pts = sorted(pk.punctured, key=NodeId.sort_key)
    out.append(struct.pack("<I", len(pts)))
    out.extend(_pack_node(p) for p in pts)
    cp = sorted(pk.copath, key=lambda t: t[0].sort_key())
    out.append(struct.pack("<I", len(cp)))
    for pos, seed in cp:
        out.append(_pack_node(pos))
        out.append(seed)
    return b"".join(out)


def deserialize_punctured(data: bytes) -> PuncturedPrfKey:
    r = Reader(data, "punctured PRF key")
    backend = _read_backend(r)
    tag = r.blob("<H")
    (npts,) = r.unpack("<I")
    pts = tuple(_read_node(r) for _ in range(npts))
    (ncp,) = r.unpack("<I")
    copath = tuple((_read_node(r), r.take(SEED_LEN)) for _ in range(ncp))
    r.done()
    return PuncturedPrfKey(pts, copath, tag, backend)
