"""Order-preserving pseudorandom merges evaluated through lazy tally trees.

A merge key describes a permutation of [N0+N1] that keeps the relative order
of the first pile [N0] and of the second pile [N1] while pseudorandomly
interleaving them.  The permutation is determined by a tally tree: leaves are
outputs, each leaf holds the pile bit of its preimage, and every internal
node holds the count of 1-leaves below it.  Values are never materialized up
front; the left child of any node is drawn from the hypergeometric induced by
its parent (the paper-facing draw is the exact inverse CDF on 128 PRF bits;
scale keys substitute the gaussian stand-in from ``fastpath``), and the
right child is derived, never sampled.  Under a parent that is all of one
pile (tally 0 or its size) the left tally has a one-point support: on both
key kinds it takes that point and draws no coins.

Key permutation ("swap outputs z and z+1") punctures the tree PRF on the two
root-to-leaf paths and hard-codes the values of the paths and their siblings,
with the c=1 variant adjusting the two disjoint ancestor chains by +-1.
Permuted keys share the honest walk: each carries its own node-value and seed
memos, seeded from the hard-coded table and the punctured key's copath, and
never the honest key or its memos.

Keys are immutable and evaluation is pure.  Exact keys memoize every node
value and seed they reach, at most the 2N - 1 nodes of their tree.  A
fastmix key's node-value memo is bounded: once it holds ``_MEMO_MAX``
tallies, the next draw drops all of them but the top of the tree and the
walk in progress.  The memo dicts are written under the GIL with idempotent
deterministic values, so concurrent readers at worst recompute a node.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from . import fastpath, prng
from .errors import ContractError, InvariantViolation, RangeError, UnsupportedBackend
from .hypergeom import DEFAULT_KAPPA, EXACT_MAX_BITS, HypergeomParams, sample
from .permdecomp import Perm
from .prng import GOLDEN, MASK64, PrfKey, PuncturedPrfKey
from .wire import Reader, u64


@dataclass(frozen=True)
class MergeKey:
    prf_key: PrfKey
    n0: int
    n1: int
    # pre-mixed context word, set iff the PRF backend is fastmix; keys
    # without one draw exactly, keys with one draw the gaussian stand-in
    fast_ctx: Optional[int] = None
    # node values and GGM seeds, keyed by tree node (prng's heap index)
    _values: dict = field(default_factory=dict, compare=False, repr=False)
    _seeds: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0 or self.n0 + self.n1 < 1:
            raise RangeError("need N = n0 + n1 >= 1")

    @property
    def n(self) -> int:
        return self.n0 + self.n1


# The width rule: exact (SHA-256) keys stay feasible up to 2^EXACT_MAX_BITS
# points (hypergeom's cap on an exact draw), and wider domains take fastmix
# keys, which draw the gauss stand-in.


def exact_fits(n: int) -> bool:
    """Whether an exact key over n points is within the width rule."""
    return n <= 1 << EXACT_MAX_BITS


def check_width(backend: int, n: int) -> None:
    """Refuse an exact key over more points than the width rule allows;
    every root key, made or read, passes here."""
    if backend == prng.BACKEND_SHA256 and not exact_fits(n):
        raise ContractError(f"exact keys cover at most 2^{EXACT_MAX_BITS} points, not {n}")


def _root_key(prf_key: PrfKey, n0: int, n1: int) -> MergeKey:
    """The merge key of piles [n0] and [n1] rooted at ``prf_key``."""
    check_width(prf_key.backend, n0 + n1)
    ctx = None
    if prf_key.backend == prng.BACKEND_FASTMIX:
        ctx = prng.mix64(*prf_key.fast_words(), prng.TAG_MERGE)
    return MergeKey(prf_key, n0, n1, ctx)


def make_merge_key(seed: bytes, n0: int, n1: int, backend: int = prng.BACKEND_SHA256) -> MergeKey:
    return _root_key(PrfKey(seed, b"merge", backend), n0, n1)


# -- tree geometry -------------------------------------------------------------

def left_size(s: int) -> int:
    return (s + 1) // 2


def span(n: int, node: int) -> tuple[int, int]:
    """(first leaf, leaf count) of ``node`` in the tree over n leaves."""
    lo, s = 0, n
    for lvl in range(prng.node_depth(node) - 1, -1, -1):
        if s < 2:  # a leaf has no children
            raise RangeError("node outside the tree")
        sl = left_size(s)
        if node >> lvl & 1:
            lo, s = lo + sl, s - sl
        else:
            s = sl
    return lo, s


# -- node values ---------------------------------------------------------------

def _node_seed(k: MergeKey, nodekey: int) -> bytes:
    seed = k._seeds.get(nodekey)
    if seed is None:
        if nodekey == 1:
            if isinstance(k, PermutedMergeKey):
                raise InvariantViolation("punctured, non-hardcoded tally node consulted")
            seed = k.prf_key.root_seed()
        else:
            seed = prng._expand(_node_seed(k, nodekey >> 1), nodekey & 1)
        k._seeds[nodekey] = seed
    return seed


def _prf_r_exact(k: MergeKey, parent_key: int) -> int:
    return int.from_bytes(prng._finalize(_node_seed(k, parent_key), DEFAULT_KAPPA // 8), "big")


def _gauss_r64(k: MergeKey, parent_key: int) -> int:
    depth = parent_key.bit_length() - 1
    path = parent_key - (1 << depth)
    # identical to fastpath._tree_r for paths below 2^64; wider trees fold
    # the overflow bits into the key word
    return prng.mix64(k.fast_ctx ^ (depth * GOLDEN & MASK64),
                      k.prf_key.fast_words()[0] ^ (path >> 64),
                      path & MASK64)


# A fastmix key's tally memo holds at most _MEMO_MAX tallies.  Once it is
# full, the next draw keeps only the top of the tree (node keys below
# _MEMO_TOP: at most 2^10 tallies, which later walks share) and the walk in
# progress, so a round trip's way back still draws nothing.
_MEMO_MAX = 1 << 12
_MEMO_TOP = 1 << 11


def _trim(values: dict, parent_key: int) -> None:
    """Drop the memoized tallies below the top that are off the walk to parent_key."""
    path = {(parent_key >> j) << 1 for j in range(1, parent_key.bit_length())}
    kept = [(ck, v) for ck, v in values.items() if ck < _MEMO_TOP or ck in path]
    values.clear()
    values.update(kept)


def _draw_left(k: MergeKey, parent_key: int, s: int, t: int) -> int:
    """Tally of the left child of a node of size s and tally t."""
    sl = left_size(s)
    if k.fast_ctx is not None and len(k._values) >= _MEMO_MAX:
        _trim(k._values, parent_key)
    lo, hi = max(0, t - (s - sl)), min(sl, t)
    if lo == hi:
        # a one-point support (t = 0 or t = s) draws no coins: the exact
        # sampler and the gauss clamp both return its point whatever the
        # coins, and t = 2^64 fits no u64 lane
        return lo
    if k.fast_ctx is None:
        return sample(HypergeomParams(s, t, sl), _prf_r_exact(k, parent_key))
    r64 = _gauss_r64(k, parent_key)
    if s & (s - 1) == 0 and s <= (1 << 64):
        arr = fastpath.gauss_draw_even(sl, np.array([t], dtype=np.uint64),
                                       np.array([r64], dtype=np.uint64))
        return int(arr[0])
    return fastpath.gauss_draw_general(s, sl, t, r64)


def tally(k: MergeKey, node: int) -> int:
    """The tally-tree value v(node): count of pile-1 leaves below it."""
    s, t = k.n, k.n1
    nodekey = 1
    for lvl in range(prng.node_depth(node) - 1, -1, -1):
        if s < 2:  # a leaf has no children
            raise RangeError("node outside the tree")
        sl = left_size(s)
        ck = nodekey << 1
        vl = k._values.get(ck)
        if vl is None:
            vl = k._values[ck] = _draw_left(k, nodekey, s, t)
        if node >> lvl & 1 == 0:
            nodekey, s, t = ck, sl, vl
        else:
            nodekey, s, t = ck | 1, s - sl, t - vl
    if not 0 <= t <= s:
        raise InvariantViolation("tally outside [0, subtree size]")
    return t


# -- evaluation ----------------------------------------------------------------

def merge_inverse(k: MergeKey, z: int) -> tuple[int, int]:
    """(pile bit b, index x within the pile) of the preimage of output z."""
    if not 0 <= z < k.n:
        raise RangeError(f"output {z} outside [0, {k.n})")
    values = k._values
    s, lo, t = k.n, 0, k.n1
    ones = zeros = 0
    nodekey = 1
    while s > 1:
        sl = (s + 1) >> 1
        ck = nodekey << 1
        vl = values.get(ck)
        if vl is None:
            vl = _draw_left(k, nodekey, s, t)
            values[ck] = vl
        if z < lo + sl:
            nodekey, s, t = ck, sl, vl
        else:
            ones += vl
            zeros += sl - vl
            nodekey, s, t, lo = ck | 1, s - sl, t - vl, lo + sl
    return t, (ones if t else zeros)


def merge_forward(k: MergeKey, b: int, x: int) -> int:
    """Output position of element x of pile b; order-preserving per pile."""
    nb = k.n1 if b else k.n0
    if not 0 <= x < nb:
        raise RangeError(f"index {x} outside pile of size {nb}")
    values = k._values
    s, pos, t = k.n, 0, k.n1
    nodekey = 1
    while s > 1:
        sl = (s + 1) >> 1
        ck = nodekey << 1
        vl = values.get(ck)
        if vl is None:
            vl = _draw_left(k, nodekey, s, t)
            values[ck] = vl
        cnt_left = vl if b else sl - vl
        if x < cnt_left:
            nodekey, s, t = ck, sl, vl
        else:
            x -= cnt_left
            pos += sl
            nodekey, s, t = ck | 1, s - sl, t - vl
    return pos


# -- key permutation -----------------------------------------------------------

@dataclass(frozen=True)
class PermutedMergeKey:
    punctured: PuncturedPrfKey
    hardcoded: dict  # node -> tally, both paths plus all their siblings
    z: int
    c: int
    n0: int
    n1: int
    fast_ctx = None  # a class attribute: permuted keys always draw exactly
    # the honest walk's memos, keyed like MergeKey's; the walk never draws
    # at a punctured node, since both its children are hard-coded
    _values: dict = field(default_factory=dict, compare=False, repr=False)
    _seeds: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._values.update(self.hardcoded)
        self._seeds.update(self.punctured.copath)

    @property
    def n(self) -> int:
        return self.n0 + self.n1


def _path_nodes(n: int, z: int) -> list[int]:
    """Root-to-leaf path of output z in the size-n tree, root first."""
    node = 1
    out = [node]
    s, lo = n, 0
    while s > 1:
        sl = left_size(s)
        if z < lo + sl:
            node, s = node << 1, sl
        else:
            node, s, lo = node << 1 | 1, s - sl, lo + sl
        out.append(node)
    return out


def merge_permute(k: MergeKey, z: int, c: int) -> Optional[PermutedMergeKey]:
    """Swapped key for outputs (z, z+1), or None when the swap is illegal.

    The swap is illegal exactly when both preimages come from the same pile
    (the order-preserving property would be violated).
    """
    if isinstance(k, PermutedMergeKey):
        raise ContractError("key permutation takes an honest key")
    if not 0 <= z < k.n - 1:
        raise RangeError("need 0 <= z < N-1")
    if c not in (0, 1):
        raise RangeError("c is a bit")
    if k.fast_ctx is not None:
        raise UnsupportedBackend("key permutation needs sha256 GGM keys, which draw exactly")
    if merge_inverse(k, z)[0] == merge_inverse(k, z + 1)[0]:
        return None  # both preimages share a pile: the paper's bottom
    hard = hardcoded_values(k.n, z, c, lambda nd: tally(k, nd))
    # the punctured nodes are the two paths above their leaves: exactly the
    # hard-coded nodes whose children are hard-coded
    punct = prng.puncture_nodes(k.prf_key, [nd for nd in hard if nd << 1 in hard])
    return PermutedMergeKey(punct, hard, z, c, k.n0, k.n1)


def hardcoded_values(n: int, z: int, c: int, value: Callable[[int], int]) -> dict:
    """The hard-coded tally table of a legal swap at outputs (z, z+1).

    It holds both root-to-leaf paths plus all their siblings, valued by
    ``value``.  With c = 1 the pile-1 element moves to the other leaf: the
    nodes above only the pile-0 leaf gain 1 and those above only the pile-1
    leaf lose 1.
    """
    path0 = _path_nodes(n, z)
    path1 = _path_nodes(n, z + 1)
    hset = {1} | {nd << 1 | b for nd in path0[:-1] + path1[:-1] for b in (0, 1)}
    hard = {nd: value(nd) for nd in sorted(hset)}
    if c == 1:
        zero_path, one_path = (path0, path1) if hard[path0[-1]] == 0 else (path1, path0)
        for nd in set(zero_path) - set(one_path):
            hard[nd] += 1
        for nd in set(one_path) - set(zero_path):
            hard[nd] -= 1
    return hard


# The c=1 +-1 adjustments keep every hard-coded parent the sum of its
# children, so the honest walk's right = parent - left holds on permuted keys.
# Nothing in the package calls these aliases; perfbench's workloads and
# tracer look them up by name.
permuted_merge_inverse = merge_inverse
permuted_merge_eval = merge_forward


def merge_perm(k: MergeKey | PermutedMergeKey) -> Perm:
    """The merge a key, honest or permuted, defines on [N]: inputs [0, n0)
    are pile 0 and the rest pile 1."""
    n0 = k.n0

    def forward(e: int) -> int:
        return merge_forward(k, 1, e - n0) if e >= n0 else merge_forward(k, 0, e)

    def inverse(z: int) -> int:
        b, x = merge_inverse(k, z)
        return x + n0 if b else x

    return Perm(k.n, forward, inverse)


# -- decomposition into neighbor swaps ------------------------------------------

@dataclass(frozen=True)
class SwapStep(Perm):
    """One neighbor swap (z z+1) in application order, as the flat
    permutation reached after applying it: inputs [0, n0) are pile 0 and the
    rest pile 1."""

    z: int


def _intermediate_step(k: MergeKey, r: int, target: int, mover: int) -> SwapStep:
    """The swap at ``mover`` reaching the stage-(r, mover) intermediate merge.

    Below ``target``, the final place of pile-1 element r-1, it is the final
    merge.  From ``target`` up, element r-1 sits at ``mover``, elements r,
    r+1, ... fill the block [N - (n1 - r), N) and pile 0 fills the other
    places in order.
    """
    final, n, n0, block = merge_perm(k), k.n, k.n0, k.n - (k.n1 - r)
    below = target - (r - 1)  # the pile-0 elements placed below target

    def forward(e: int) -> int:
        if e < below or n0 <= e < n0 + r - 1:
            return final.fwd(e)
        if e < n0:
            return e + r - 1 + (e + r - 1 >= mover)
        return mover if e == n0 + r - 1 else block + (e - n0 - r)

    def inverse(z: int) -> int:
        if z < target:
            return final.inv(z)
        if z == mover:
            return n0 + r - 1
        return n0 + r + (z - block) if z >= block else z - (r - 1) - (z > mover)

    return SwapStep(n, forward, inverse, mover)


def merge_decompose(k: MergeKey) -> Iterator[SwapStep]:
    """Neighbor swaps transforming the identity merge into M(k, .).

    Streamed lazily in application order: folding ``swap z`` onto the current
    permutation (tau_z after it) through the whole schedule reproduces the
    merge exactly.  At most n1 * N steps; each evaluation of a step's
    ``forward`` or ``inverse`` makes at most one tree walk.
    """
    n, n1 = k.n, k.n1
    for r in range(1, n1 + 1):
        target = merge_forward(k, 1, r - 1)
        for q in range(n - n1 + r - 1, target, -1):
            yield _intermediate_step(k, r, target, q - 1)


# -- serialization ---------------------------------------------------------------

def check_kappa(kappa: int) -> None:
    """Refuse a wire kappa field other than the one draw precision,
    ``DEFAULT_KAPPA``: every key draws its tallies from that many PRF bits."""
    if kappa != DEFAULT_KAPPA:
        raise ContractError(f"kappa {kappa} is not {DEFAULT_KAPPA}, the draw precision of every key")


def sampler_key_bytes(prf_key: PrfKey) -> bytes:
    """The u32 kappa field, the sampler mode byte and the PRF key after it,
    which end every serialized root key: mode 1 (gauss) on fastmix, 0
    (exact) on sha256."""
    mode = prf_key.backend == prng.BACKEND_FASTMIX
    return struct.pack("<IB", DEFAULT_KAPPA, mode) + prng.serialize_key(prf_key)


def read_sampler_key(r: Reader) -> PrfKey:
    """The PRF key that ``sampler_key_bytes`` wrote, whose mode byte must
    be the one its backend decides."""
    kappa, mode = r.unpack("<IB")
    check_kappa(kappa)
    if mode not in (0, 1):
        raise ContractError(f"unknown sampler mode {mode}")
    prf_key = prng.deserialize_key(r.rest())
    if mode != (prf_key.backend == prng.BACKEND_FASTMIX):
        raise ContractError(f"{('exact', 'gauss')[mode]} sampler mode on PRF backend {prf_key.backend}")
    return prf_key


def serialize_key(k: MergeKey) -> bytes:
    return struct.pack("<QQ", u64(k.n0, "merge key n0"), u64(k.n1, "merge key n1")) + sampler_key_bytes(k.prf_key)


def deserialize_key(data: bytes) -> MergeKey:
    r = Reader(data, "merge key")
    n0, n1 = r.unpack("<QQ")
    return _root_key(read_sampler_key(r), n0, n1)


def serialize_permuted(pk: PermutedMergeKey) -> bytes:
    """Punctured-PRF blob + sorted (path, value) list, values length-prefixed."""
    blob = prng.serialize_punctured(pk.punctured)
    head = struct.pack("<QQIBQ", pk.n0, pk.n1, DEFAULT_KAPPA, pk.c, pk.z)
    items = sorted(pk.hardcoded.items())
    out = [struct.pack("<I", len(blob)), blob, head, struct.pack("<I", len(items))]
    for node, value in items:
        enc = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        depth = node.bit_length() - 1
        out.append(struct.pack("<HQ", depth, node ^ 1 << depth))
        out.append(struct.pack("<H", len(enc)))
        out.append(enc)
    return b"".join(out)


def deserialize_permuted(data: bytes) -> PermutedMergeKey:
    """The permuted merge key of a blob whose tables are those ``merge_permute``
    builds for its swap; any other table is refused, so every loaded key
    evaluates."""
    r = Reader(data, "permuted merge key")
    punct = prng.deserialize_punctured(r.blob("<I"))
    n0, n1, kappa, c, z = r.unpack("<QQIBQ")
    check_width(prng.BACKEND_SHA256, n0 + n1)  # permuted keys always draw exactly
    check_kappa(kappa)
    (count,) = r.unpack("<I")
    hard = {}
    for _ in range(count):
        depth, path = r.unpack("<HQ")
        node = 1 << depth | r.fits(path, depth, "node path")
        hard[node] = int.from_bytes(r.blob("<H"), "big")
    r.done()
    n = n0 + n1
    if not 0 <= z < n - 1 or c > 1:
        raise ContractError(f"permuted merge key swap z={z}, c={c} outside [0, N-1) x {{0, 1}}")
    spans = hardcoded_values(n, z, 0, lambda nd: span(n, nd)[1])
    inner = {nd for nd in spans if nd << 1 in spans}
    for got, want, what in [(hard.keys(), spans.keys(), "hard-coded nodes"),
                            (set(punct.punctured), inner, "punctured nodes"),
                            ({pos for pos, _ in punct.copath}, spans.keys() - inner, "copath positions")]:
        if got != want:
            raise ContractError(f"permuted merge key {what} are not those of the swap at z={z}")
    for node in inner:
        if hard[node] != hard[node << 1] + hard[node << 1 | 1]:
            raise ContractError(f"hard-coded tally at {prng.node_name(node)} is not the sum of its children")
    for node, value in hard.items():
        if value > spans[node]:
            raise ContractError(f"hard-coded tally {value} at {prng.node_name(node)} outside [0, {spans[node]}]")
    if hard[1] != n1:
        raise ContractError(f"permuted merge key root tally {hard[1]} is not n1 = {n1}")
    if hard[_path_nodes(n, z)[-1]] == hard[_path_nodes(n, z + 1)[-1]]:
        raise ContractError(f"permuted merge key leaves z={z} and z+1 hold the same pile bit")
    return PermutedMergeKey(punct, hard, z, c, n0, n1)
