"""The recursive neighbor-swappable PRP over [N].

Reverse merge-sort: split [N] into piles of floor(N/2) and the rest, permute
each pile with an independent recursive key, then interleave with a merge.
The base cases are N=2 (XOR with a key bit) and N=1 (identity).  Every
permutation the key defines corresponds to exactly one (merge, left perm,
right perm) triple, which is why a random key simulates a random permutation.

``prp_permute`` composes a chosen neighbor swap onto the output: when the two
preimages straddle the piles the merge key is swapped, otherwise the merge's
order preservation makes the preimages adjacent inside one pile and the swap
recurses there.  The result is always a working key, never the merge layer's
illegal bottom.  A permuted key is a pre-seeded key: its cache holds, level
by level down the swap's spine, the honest child and merge keys and, where
the swap lands, the permuted merge key or the c-adjusted N=2 bit, so
``prp_forward``/``prp_inverse`` walk it like any other key.

Large power-of-two domains with fastmix keys ride the vectorized path in
``fastpath``; see there for why exact sampling cannot scale.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import fastpath, merge as merge_mod, prng
from .errors import ContractError, RangeError, UnsupportedBackend
from .hypergeom import DEFAULT_KAPPA
from .merge import MergeKey, PermutedMergeKey, SwapStep
from .permdecomp import Perm, identity_perm, neighbor_swap
from .prng import PrfKey
from .wire import Reader, u64


class _Piles:
    """The split of a level over [n]: piles of floor(n/2) and the rest."""

    @property
    def n0(self) -> int:
        return self.n // 2

    @property
    def n1(self) -> int:
        return self.n - self.n // 2


@dataclass(frozen=True)
class PrpKey(_Piles):
    prf_key: PrfKey
    n: int
    fast_ctx: Optional[int] = None  # as on MergeKey: set iff the backend is fastmix
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise RangeError("domain size must be >= 1")


def _root_key(prf_key: PrfKey, n: int) -> PrpKey:
    """The key over [n] rooted at ``prf_key``."""
    merge_mod.check_width(prf_key.backend, n)
    ctx = None
    if prf_key.backend == prng.BACKEND_FASTMIX:
        ctx = prng.mix64(*prf_key.fast_words(), prng.TAG_ROOT)
    return PrpKey(prf_key, n, ctx)


PRP_TAG = b"prp"  # the PRF domain tag of every make_prp_key key


def make_prp_key(seed: bytes, n: int) -> PrpKey:
    """The exact key over [n]; ``merge.check_width`` refuses one above
    2^EXACT_MAX_BITS points."""
    return _root_key(PrfKey(seed, PRP_TAG), n)


def make_scale_prp_key(seed: bytes, bits: int) -> PrpKey:
    """INSECURE-DEMO key for {0,1}^bits: fastmix PRF, so gauss draws."""
    return _root_key(PrfKey(seed, PRP_TAG, prng.BACKEND_FASTMIX), 1 << bits)


def width_key(prf_key: PrfKey, bits: int) -> PrpKey:
    """The key for {0,1}^bits that the width rule picks: the exact key on
    ``prf_key`` up to 2^EXACT_MAX_BITS points, the scale key of its seed above."""
    if merge_mod.exact_fits(1 << bits):
        return _root_key(prf_key, 1 << bits)
    return make_scale_prp_key(prf_key.seed, bits)


# -- level key derivation --------------------------------------------------------

def _fast_ctx(k: PrpKey, tag: int, b: int = 0) -> int:
    """The context word under ``tag`` that a fastmix key derives from its own."""
    return prng.mix64(k.fast_ctx, k.prf_key.fast_words()[1] ^ b, tag)


def _exact_level(k: PrpKey) -> None:
    """Fill an exact level's child and merge keys from one descent: the
    labels half0 and half1 part at their last bit, merge after five."""
    half0, half1, merge = prng.derive_key(k.prf_key, b"half0", b"half1", b"merge")
    k._cache.update({("child", 0): PrpKey(half0, k.n0), ("child", 1): PrpKey(half1, k.n1),
                     "merge": MergeKey(merge, k.n0, k.n1)})


def _child_key(k: PrpKey, b: int) -> PrpKey:
    cached = k._cache.get(("child", b))
    if cached is not None:
        return cached
    if k.fast_ctx is None:
        _exact_level(k)
        return k._cache[("child", b)]
    child = PrpKey(k.prf_key, k.n1 if b else k.n0, _fast_ctx(k, prng.TAG_CHILD, b))
    k._cache.pop(("child", 1 - b), None)  # a scale key keeps the path it walked last
    k._cache[("child", b)] = child
    return child


def _merge_key(k: PrpKey) -> MergeKey:
    cached = k._cache.get("merge")
    if cached is not None:
        return cached
    if k.fast_ctx is None:
        _exact_level(k)
        return k._cache["merge"]
    mk = k._cache["merge"] = MergeKey(k.prf_key, k.n0, k.n1, _fast_ctx(k, prng.TAG_MERGE))
    return mk


def _xor_bit(k: PrpKey) -> int:
    bit = k._cache.get("xor")  # set only on permuted keys
    if bit is not None:
        return bit
    if k.fast_ctx is not None:
        return _fast_ctx(k, prng.TAG_XOR) & 1
    return prng.prf_eval(k.prf_key, b"\x02xorbit", 1)[0] & 1


def _decode(k: PrpKey, e: int) -> tuple[int, int]:
    return (1, e - k.n0) if e >= k.n0 else (0, e)


# -- evaluation ------------------------------------------------------------------

def prp_forward(k: PrpKey, x: int) -> int:
    """The keyed permutation on [N]."""
    if not 0 <= x < k.n:
        raise RangeError(f"input {x} outside [0, {k.n})")
    if k.n == 1:
        return x
    if k.n == 2:
        return x ^ _xor_bit(k)
    b, sub = _decode(k, x)
    y = prp_forward(_child_key(k, b), sub)
    return merge_mod.merge_forward(_merge_key(k), b, y)


def prp_inverse(k: PrpKey, z: int) -> int:
    """Exact inverse of prp_forward."""
    if not 0 <= z < k.n:
        raise RangeError(f"output {z} outside [0, {k.n})")
    if k.n == 1:
        return z
    if k.n == 2:
        return z ^ _xor_bit(k)
    b, y = merge_mod.merge_inverse(_merge_key(k), z)
    x = prp_inverse(_child_key(k, b), y)
    return x + (k.n0 if b else 0)


def prp_perm(k: PrpKey | PermutedPrpKey) -> Perm:
    """The permutation a PRP key, honest or permuted, defines on [N]."""
    return Perm(k.n, functools.partial(prp_forward, k), functools.partial(prp_inverse, k))


def _batch(k: PrpKey, xs, walk) -> np.ndarray:
    """A fastpath lockstep walk over xs, each point checked as prp_forward checks one."""
    if k.fast_ctx is None or k.n & (k.n - 1):
        raise UnsupportedBackend("batch path needs a fastmix power-of-two key")
    if k.n > 1 << 64:
        raise UnsupportedBackend(f"batch path covers domains up to 2^64, not {k.n}")
    arr = np.asarray(xs)
    if arr.dtype.kind not in "iu":
        raise RangeError(f"batch points must be integers, not {arr.dtype}")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= k.n):
        raise RangeError(f"batch point outside [0, {k.n})")
    lanes = arr.astype(np.uint64).reshape(-1)  # the walks need one lane axis
    if k.n > 1:
        k0w, k1w = k.prf_key.fast_words()
        lanes = walk(k0w, k1w, k.n.bit_length() - 1, lanes)
    return lanes.reshape(arr.shape)


def prp_forward_batch(k: PrpKey, xs: np.ndarray) -> np.ndarray:
    """Lockstep forward sweep; fastmix power-of-two keys only."""
    return _batch(k, xs, fastpath.prp_forward_batch)


def prp_inverse_batch(k: PrpKey, zs: np.ndarray) -> np.ndarray:
    return _batch(k, zs, fastpath.prp_inverse_batch)


# -- key permutation -------------------------------------------------------------

@dataclass(frozen=True)
class PermutedPrpKey(_Piles):
    """A key with the swap (z z+1)^c composed after it, walked by
    ``prp_forward``/``prp_inverse`` through the cache ``prp_permute`` fills."""

    n: int
    z: int
    _cache: dict = field(default_factory=dict, repr=False)
    fast_ctx = None  # a class attribute: permuted keys always draw exactly


def prp_permute(k: PrpKey, z: int, c: int) -> PermutedPrpKey:
    """Key whose evaluation equals (z z+1)^c composed after the permutation.

    Total for every z in [N-1]: a cross-pile pair permutes the merge, a
    same-pile pair is adjacent inside its pile (order preservation) and the
    swap recurses there.
    """
    if isinstance(k, PermutedPrpKey):
        raise ContractError("key permutation takes an honest key")
    if not 0 <= z < k.n - 1:
        raise RangeError("need 0 <= z < N-1")
    if c not in (0, 1):
        raise RangeError("c is a bit")
    if k.fast_ctx is not None:
        raise UnsupportedBackend("key permutation needs sha256 GGM keys, which draw exactly")
    pk = PermutedPrpKey(k.n, z)
    if k.n == 2:  # z == 0: the swap flips the key bit
        pk._cache["xor"] = _xor_bit(k) ^ c
        return pk
    mk = _merge_key(k)
    children = [_child_key(k, 0), _child_key(k, 1)]
    b0, y0 = merge_mod.merge_inverse(mk, z)
    b1, y1 = merge_mod.merge_inverse(mk, z + 1)
    if b0 != b1:
        mk = merge_mod.merge_permute(mk, z, c)
        assert mk is not None  # cross-pile swaps are exactly the legal ones
    else:
        # same pile: order preservation forces y1 == y0 + 1
        assert y1 == y0 + 1, "merge order preservation violated"
        children[b0] = prp_permute(children[b0], y0, c)
    pk._cache.update({("child", 0): children[0], ("child", 1): children[1], "merge": mk})
    return pk


# A permuted key is a pre-seeded key: the honest walk evaluates it.  Nothing
# in the package calls these aliases; perfbench's workloads and tracer look
# them up by name.
permuted_prp_forward = prp_forward
permuted_prp_inverse = prp_inverse


# -- decomposition ----------------------------------------------------------------

def _piles(p0: Perm, p1: Perm) -> Perm:
    """p0 on pile 0, [0, n0), beside p1 on pile 1, the block [n0, N)."""
    n0 = p0.n

    def forward(e: int) -> int:
        return p1.fwd(e - n0) + n0 if e >= n0 else p0.fwd(e)

    def inverse(z: int) -> int:
        return p1.inv(z - n0) + n0 if z >= n0 else p0.inv(z)

    return Perm(n0 + p1.n, forward, inverse)


def _swap_step(z: int, p: Perm) -> SwapStep:
    return SwapStep(p.n, p.fwd, p.inv, z)


def prp_decompose(k: PrpKey) -> Iterator[SwapStep]:
    """Neighbor swaps building the permutation, streamed in application order.

    The two pile permutations are decomposed first (their swaps act inside
    disjoint blocks of [N]), then the merge layer's schedule is composed on
    top; intermediate evaluators stay efficient because each one composes the
    already-built pile evaluators with a partial merge.
    """
    if k.n == 1:
        return
    if k.n == 2:
        if _xor_bit(k):
            yield _swap_step(0, neighbor_swap(2, 0))
        return
    k0, k1 = _child_key(k, 0), _child_key(k, 1)
    built0, built1 = prp_perm(k0), prp_perm(k1)
    merged = _piles(built0, built1)
    for st in prp_decompose(k0):
        yield _swap_step(st.z, _piles(st, identity_perm(k.n1)))
    for st in prp_decompose(k1):
        yield _swap_step(st.z + k.n0, _piles(built0, st))
    for st in merge_mod.merge_decompose(_merge_key(k)):
        yield _swap_step(st.z, merged.then(st))


# -- serialization ------------------------------------------------------------------
# A permuted key file is its magic, its head and one record per spine level:
# kind 0 holds the N=2 bit, kind 1 the two child keys and the permuted merge
# key, kind 2 the pile the swap recurses into, the other child key and the
# honest merge key.  No field names c: a swap's two key files have one length.
PERMUTED_MAGIC = b"PPK1"
PERMUTED_HEAD = "<QIQH"  # N - 1, kappa, z, record count


def serialize_key(k: PrpKey) -> bytes:
    return struct.pack("<Q", u64(k.n - 1, "PRP key N - 1")) + merge_mod.sampler_key_bytes(k.prf_key)


def deserialize_key(data: bytes) -> PrpKey:
    r = Reader(data, "PRP key")
    (n_minus_1,) = r.unpack("<Q")
    return _root_key(merge_mod.read_sampler_key(r), n_minus_1 + 1)


def _spine_records(pk: PermutedPrpKey) -> list[tuple]:
    if pk.n == 2:
        return [(0, pk._cache["xor"], b"", b"", b"")]
    kids, mk = (_child_key(pk, 0), _child_key(pk, 1)), _merge_key(pk)
    if isinstance(mk, PermutedMergeKey):
        return [(1, 0, serialize_key(kids[0]), serialize_key(kids[1]),
                 merge_mod.serialize_permuted(mk))]
    b = int(isinstance(kids[1], PermutedPrpKey))
    rec = (2, b, serialize_key(kids[1 - b]), merge_mod.serialize_key(mk), b"")
    return [rec] + _spine_records(kids[b])


def serialize_permuted_key(pk: PermutedPrpKey) -> bytes:
    records = _spine_records(pk)
    out = [PERMUTED_MAGIC, struct.pack(PERMUTED_HEAD, pk.n - 1, DEFAULT_KAPPA, pk.z, len(records))]
    for kind, flag, b1, b2, b3 in records:
        out.append(struct.pack("<BB", kind, flag))
        for blob in (b1, b2, b3):
            out.append(struct.pack("<I", len(blob)))
            out.append(blob)
    return b"".join(out)


def _check_level(what: str, got: object, want: object) -> None:
    if got != want:
        raise ContractError(f"permuted PRP key: {what} {got} where its level has {want}")


def _exact(k, what: str):
    """k, refused if it draws gauss: ``prp_permute`` permutes only exact keys."""
    if k.fast_ctx is not None:
        raise ContractError(f"permuted PRP key: {what} on a fastmix PRF key; permuted keys draw exactly")
    return k


def _level_key(blob: bytes, n: int) -> PrpKey:
    k = _exact(deserialize_key(blob), "child key")
    _check_level("child key N", k.n, n)
    return k


def deserialize_permuted_key(data: bytes) -> PermutedPrpKey:
    r = Reader(data, "permuted PRP key")
    if r.take(len(PERMUTED_MAGIC)) != PERMUTED_MAGIC:
        raise ContractError("not a permuted PRP key file")
    n_minus_1, kappa, z, count = r.unpack(PERMUTED_HEAD)
    merge_mod.check_kappa(kappa)
    records = [(*r.unpack("<BB"), r.blob("<I"), r.blob("<I"), r.blob("<I")) for _ in range(count)]
    r.done()
    kinds = [rec[0] for rec in records]
    if not kinds or kinds[-1] not in (0, 1) or set(kinds[:-1]) - {2}:
        raise ContractError("permuted PRP key records do not form a spine")
    if not 0 <= z < n_minus_1:
        raise ContractError(f"permuted PRP key swap z={z} outside [0, N-1)")
    top = pk = PermutedPrpKey(n_minus_1 + 1, z)
    for kind, flag, b1, b2, b3 in records:
        if (kind == 0) != (pk.n == 2):
            raise ContractError(f"permuted PRP key has a kind-{kind} record at a level over N={pk.n}")
        # fields a kind does not use are zero or empty
        if flag > 1 or (kind == 1 and flag) or (kind != 1 and b3) or (kind == 0 and b1 + b2):
            raise ContractError(f"malformed kind-{kind} record in permuted PRP key")
        if kind == 0:
            pk._cache["xor"] = flag
            continue
        sizes = (pk.n0, pk.n1)
        mk = _exact(merge_mod.deserialize_permuted(b3) if kind == 1 else merge_mod.deserialize_key(b2),
                    "merge key")
        _check_level("merge key (n0, n1)", (mk.n0, mk.n1), sizes)
        if kind == 1:
            _check_level("merge swap z", mk.z, pk.z)
            kids = [_level_key(b1, sizes[0]), _level_key(b2, sizes[1])]
        else:
            (p0, y0), (p1, _) = merge_mod.merge_inverse(mk, pk.z), merge_mod.merge_inverse(mk, pk.z + 1)
            if p0 != flag or p1 != flag:
                raise ContractError(f"permuted PRP key swap z={pk.z} does not land in pile {flag}")
            kids = [None, None]
            kids[flag] = PermutedPrpKey(sizes[flag], y0)
            kids[1 - flag] = _level_key(b1, sizes[1 - flag])
        pk._cache.update({("child", 0): kids[0], ("child", 1): kids[1], "merge": mk})
        pk = kids[flag]  # the next level; a kind-1 record is the last
    return top
