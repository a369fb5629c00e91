"""Vectorized large-domain evaluation core (INSECURE-DEMO scale path).

Exact big-integer hypergeometric sampling is what makes small-domain keys
bit-portable, but it is infeasible once tally-tree supports stop being
enumerable (the root draw at N = 2^64 would sum ~2^62 terms of ~2^64-bit
integers).  Scale keys therefore use the fastmix PRF backend, whose keys
draw through a deterministic gaussian quantile (``gauss`` mode), and this
module evaluates merges and the recursive PRP for power-of-two domains in
numpy lockstep so 10^4-point sweeps at N = 2^64 take seconds.

Scalar draws on even splits up to 2^64 route through length-1 batches of
the same vector formula.  Uneven splits and sizes above 2^64 (such as the top
16 levels of the paper preset's 2^80 merges) use a second definition,
``merge._gauss_draw_general``, with a different float-op order; folding the
two into one is ROADMAP open item 4.  Tree sizes are uniform per depth for a
power-of-two domain and are carried as per-step scalars; 2^64 itself never
has to fit in a u64 lane.
"""

from __future__ import annotations

import numpy as np

from . import prng
from .errors import RangeError

_ndtri = None


def ndtri(u):
    """scipy.special.ndtri, bound on first use (import cost)."""
    global _ndtri
    if _ndtri is None:
        from scipy.special import ndtri as fn
        _ndtri = fn
    return _ndtri(u)

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)

TAG_ROOT = _U64(0x524F4F54)
TAG_CHILD = _U64(0x4348494C44)
TAG_MERGE = _U64(0x4D45524745)
TAG_XOR = _U64(0x584F52)


def mix64_np(a, b, c):
    """Vector twin of prng.mix64; identical output word for word."""
    with np.errstate(over="ignore"):
        x = (a ^ (b * _GOLDEN) ^ c) & _MASK64
        for _ in range(3):
            x = (x ^ (x >> _U64(30))) * _M1
            x = (x ^ (x >> _U64(27))) * _M2
            x = x ^ (x >> _U64(31))
    return x


def context_word(a: int, b: int, tag) -> int:
    """A scalar key's fastmix context word: the mix64 of two words under a tag."""
    return prng.mix64(a, b, int(tag))


def gauss_draw_even(half: int, t, r64):
    """Deterministic hypergeometric stand-in for an even split.

    Left-child tally for a parent of size m = 2*half and tally t (u64 array),
    from the top 53 bits of r64 through the normal quantile, clamped into the
    exact feasible window [max(0, t-half), min(half, t)].
    """
    half_u = _U64(half)
    lo = np.where(t > half_u, t - half_u, _U64(0))
    hi = np.minimum(half_u, t)
    u = (r64 >> _U64(11)).astype(np.float64) * (2.0 ** -53)
    tf = t.astype(np.float64)
    mf = 2.0 * float(half)
    mu = tf * 0.5
    var = tf * (mf - tf) / (4.0 * max(mf - 1.0, 1.0))
    with np.errstate(invalid="ignore"):
        val = mu + np.sqrt(var) * ndtri(u)
    val = np.where(np.isnan(val), mu, val)
    val = np.rint(np.maximum(val, 0.0))
    val = np.minimum(val, 1.8e19)  # keep the float finite before the cast
    v = val.astype(np.uint64)
    return np.maximum(lo, np.minimum(hi, v))


def _tree_r(mctx, k0, depth: int, path):
    with np.errstate(over="ignore"):
        return mix64_np(mctx ^ (_U64(depth) * _GOLDEN), k0, path)


def merge_inverse_batch(mctx, k0, nbits: int, z):
    """Inverse of the balanced merge of two 2^(nbits-1) piles at outputs z.

    Returns (b, x) arrays.  mctx is the per-lane merge context word.
    """
    t = np.full_like(z, _U64(1) << _U64(nbits - 1))  # root tally = N1 = N/2
    path = np.zeros_like(z)
    ones = np.zeros_like(z)
    zeros = np.zeros_like(z)
    for d in range(nbits):
        half = 1 << (nbits - 1 - d)
        vl = gauss_draw_even(half, t, _tree_r(mctx, k0, d, path))
        bit = (z >> _U64(nbits - 1 - d)) & _U64(1)
        go_right = bit.astype(bool)
        ones = np.where(go_right, ones + vl, ones)
        zeros = np.where(go_right, zeros + (_U64(half) - vl), zeros)
        t = np.where(go_right, t - vl, vl)
        path = (path << _U64(1)) | bit
    b = t  # leaf tally is 0 or 1
    x = np.where(b.astype(bool), ones, zeros)
    return b, x


def merge_forward_batch(mctx, k0, nbits: int, b, x):
    """Position of the x-th element of pile b under the balanced merge."""
    t = np.full_like(x, _U64(1) << _U64(nbits - 1))
    path = np.zeros_like(x)
    x = x.copy()
    is_one = b.astype(bool)
    for d in range(nbits):
        half = 1 << (nbits - 1 - d)
        vl = gauss_draw_even(half, t, _tree_r(mctx, k0, d, path))
        cnt_left = np.where(is_one, vl, _U64(half) - vl)
        go_right = x >= cnt_left
        x = np.where(go_right, x - cnt_left, x)
        t = np.where(go_right, t - vl, vl)
        path = (path << _U64(1)) | go_right.astype(_U64)
    return path


def _level_contexts(k0: int, k1: int, bits: int, xs):
    """Walk the key-derivation spine for each lane; returns per-level data.

    Level i acts on a domain of 2^(bits-i) points; lanes diverge because the
    child context depends on each lane's top bit.  Returns (ctxs, tops, low):
    ctxs[i] is the context array entering level i, tops[i] the bit split off
    there, and low the final 1-bit residue.
    """
    k0 = _U64(k0)
    k1 = _U64(k1)
    ctx = np.full_like(xs, mix64_np(k0, k1, TAG_ROOT))
    ctxs = []
    tops = []
    cur = xs.copy()
    for i in range(bits - 1):
        width = bits - i
        top = (cur >> _U64(width - 1)) & _U64(1)
        ctxs.append(ctx)
        tops.append(top)
        cur = cur & ((_U64(1) << _U64(width - 1)) - _U64(1))
        ctx = mix64_np(ctx, k1 ^ top, TAG_CHILD)
    ctxs.append(ctx)  # context of the final 1-bit (size-2) block
    return ctxs, tops, cur


def prp_forward_batch(k0: int, k1: int, bits: int, xs: np.ndarray) -> np.ndarray:
    """The recursive merge PRP on {0,1}^bits, evaluated in lockstep."""
    if bits < 1:
        raise RangeError("bits must be >= 1")
    xs = np.asarray(xs, dtype=np.uint64)
    k0v = _U64(k0)
    k1v = _U64(k1)
    ctxs, tops, low = _level_contexts(k0, k1, bits, xs)
    y = low ^ (mix64_np(ctxs[-1], k1v, TAG_XOR) & _U64(1))
    for i in range(bits - 2, -1, -1):
        mctx = mix64_np(ctxs[i], k1v, TAG_MERGE)
        y = merge_forward_batch(mctx, k0v, bits - i, tops[i], y)
    return y


def prp_inverse_batch(k0: int, k1: int, bits: int, zs: np.ndarray) -> np.ndarray:
    """Inverse of prp_forward_batch."""
    if bits < 1:
        raise RangeError("bits must be >= 1")
    zs = np.asarray(zs, dtype=np.uint64)
    k0v = _U64(k0)
    k1v = _U64(k1)
    ctx = np.full_like(zs, mix64_np(k0v, k1v, TAG_ROOT))
    out = np.zeros_like(zs)
    cur = zs.copy()
    for i in range(bits - 1):
        width = bits - i
        mctx = mix64_np(ctx, k1v, TAG_MERGE)
        b, y = merge_inverse_batch(mctx, k0v, width, cur)
        out |= b << _U64(width - 1)
        cur = y
        ctx = mix64_np(ctx, k1v ^ b, TAG_CHILD)
    out |= cur ^ (mix64_np(ctx, k1v, TAG_XOR) & _U64(1))
    return out
