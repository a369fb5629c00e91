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
``gauss_draw_general``, a scalar formula with a different float-op order.
Folding the two into one formula would change the output bits of every key
that draws at those nodes, so it needs a versioned fastmix backend.
Scalar draws run a port of Cephes' ndtri: only lockstep batches import scipy.
Tree sizes are uniform per depth for a power-of-two domain and are carried
as per-step scalars; 2^64 itself never has to fit in a u64 lane.

A merge walk step is a short run of in-place ufuncs on per-walk scratch
arrays: the tree word (``_tree_r``), the gaussian draw, and the branch as
``np.where`` selects and 0/1 products (masked ``where=`` ufuncs run several
times slower at these widths).  The inverse walk keeps no path or pile-0
accumulator: the path after d steps is z >> (nbits - d), and as the
right-going halves sum to z, the pile-0 count left of z is z - ones.  No
step enters ``np.errstate``: unsigned array ops wrap without a warning, and
``gauss_draw_even`` floors ndtri(0) so that no float op raises a flag.
"""

from __future__ import annotations

import math

import numpy as np

from . import prng
from .errors import RangeError

# Cephes ndtri (Moshier, 1989); leading zeros and p1evl's implied 1.0 pad every table to 9 terms
_EXPM2, _S2PI = 0.13533528323661269189, 2.50662827463100050242  # exp(-2), sqrt(2 pi)
_P0 = (0.0, 0.0, 0.0, 0.0, -5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef) -> float:
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coef
    return (((((((c0 * x + c1) * x + c2) * x + c3) * x + c4) * x + c5) * x + c6) * x + c7) * x + c8


def _ndtri_port(y: float) -> float:
    """Cephes ndtri on one float: scipy's IEEE operations in scipy's order."""
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    neg = y <= 1.0 - _EXPM2
    y = y if neg else 1.0 - y
    if y > _EXPM2:  # central branch: |u - 1/2| < 1/2 - exp(-2)
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)  # x < 8: u > exp(-32)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q)
    return -x if neg else x


_ndtri = None


def ndtri(u, out=None):
    """The normal quantile: the port on floats and one-lane arrays, scipy's lazy ufunc on wider."""
    if isinstance(u, float):
        return _ndtri_port(u)
    if u.size == 1:
        out = np.empty_like(u) if out is None else out
        out[0] = _ndtri_port(u.item())
        return out
    global _ndtri
    if _ndtri is None:
        from scipy.special import ndtri as fn
        _ndtri = fn
    return _ndtri(u, out=out)

_U64 = np.uint64
_GOLDEN, _M1, _M2 = _U64(prng.GOLDEN), _U64(prng.MIX_M1), _U64(prng.MIX_M2)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)
# prng's context tags as lane words
_TAG_ROOT, _TAG_CHILD, _TAG_MERGE, _TAG_XOR = map(
    _U64, (prng.TAG_ROOT, prng.TAG_CHILD, prng.TAG_MERGE, prng.TAG_XOR))


def _mix_rounds(x, tmp):
    """mix64's three rounds, in place on the u64 array x (tmp: scratch)."""
    for _ in range(3):
        np.right_shift(x, _S30, out=tmp)
        x ^= tmp
        x *= _M1
        np.right_shift(x, _S27, out=tmp)
        x ^= tmp
        x *= _M2
        np.right_shift(x, _S31, out=tmp)
        x ^= tmp
    return x


def mix64_np(a, b, c):
    """Vector twin of prng.mix64; identical output word for word (0-d for scalars)."""
    x = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c)), dtype=np.uint64)
    np.multiply(b, _GOLDEN, out=x)
    x ^= a
    x ^= c
    return _mix_rounds(x, np.empty_like(x))


def gauss_draw_even(half: int, t, r64):
    """Deterministic hypergeometric stand-in for an even split.

    Left-child tally for a parent of size m = 2*half and tally t (u64 array),
    from the top 53 bits of r64 through the normal quantile, clamped into the
    exact feasible window [max(0, t-half), min(half, t)].  The float ops run
    in the order mu + sqrt(t*(m-t)/(4*max(m-1, 1)))*ndtri(u), in place.

    ndtri(0) = -inf is floored at -1e30.  Where var = 0 this makes
    sqrt(var)*q = -0 instead of NaN, so val = mu; elsewhere it changes
    nothing: a positive var is about 1/4 or more, so sqrt(var)*-1e30 still
    sends val below 0, and |sqrt(var)*q| <= 2^30 * 1e30 cannot overflow.
    So no float op raises a flag for 0 <= t <= 2*half, and callers need no
    errstate.  val < mu + 8.3*2^30 <= 2^63 + 2^34, so the u64 cast is exact.
    """
    hi = np.minimum(t, half)
    lo = np.subtract(t, hi)  # max(0, t - half), since lo + hi = t
    q = np.right_shift(r64, _S11).astype(np.float64)
    q *= 2.0 ** -53
    q = ndtri(q, out=q)
    np.maximum(q, -1e30, out=q)
    tf = t.astype(np.float64)
    mf = 2.0 * float(half)
    val = np.subtract(mf, tf)
    val *= tf
    val /= 4.0 * max(mf - 1.0, 1.0)
    np.sqrt(val, out=val)
    val *= q
    tf *= 0.5  # mu
    val += tf
    np.maximum(val, 0.0, out=val)
    np.rint(val, out=val)
    v = val.astype(np.uint64)
    np.minimum(v, hi, out=v)
    return np.maximum(v, lo, out=v)


def gauss_draw_general(s: int, sl: int, t: int, r64: int) -> int:
    """Gaussian stand-in draw for any split, on Python ints.

    Left-child tally of size sl under a parent of size s and tally t: the
    normal quantile of the top 53 bits of r64 scaled by the hypergeometric
    mean and variance, clamped into [max(0, t-(s-sl)), min(sl, t)].
    """
    lo = max(0, t - (s - sl))
    hi = min(sl, t)
    u = (r64 >> 11) * (2.0 ** -53)
    mu = sl * t / s
    var = sl * t * (s - t) * (s - sl) / (s * s * max(s - 1, 1))
    val = mu + (var ** 0.5) * float(ndtri(u))
    if val != val:  # nan from 0 * inf
        val = mu
    v = round(max(val, 0.0))  # half to even, as np.rint
    return max(lo, min(hi, v))


def _tree_r(mctx, kg: int, depth: int, path, out, tmp):
    """mix64(mctx ^ depth*golden, k0, path) per lane, into out.

    kg is k0*golden: mix64 xors its inputs first, so the per-step words fold
    into one Python int.
    """
    np.bitwise_xor(mctx, path, out=out)
    out ^= _U64((depth * prng.GOLDEN ^ kg) & prng.MASK64)
    return _mix_rounds(out, tmp)


def merge_inverse_batch(mctx, k0, nbits: int, z):
    """Inverse of the balanced merge of two 2^(nbits-1) piles at outputs z.

    Returns (b, x) arrays.  mctx is the per-lane merge context word, k0 the
    key word.
    """
    t = np.full_like(z, _U64(1) << _U64(nbits - 1))  # root tally = N1 = N/2
    ones = np.zeros_like(z)
    path = np.zeros_like(z)
    kg = int(k0) * prng.GOLDEN
    r = np.empty_like(z)
    tmp = np.empty_like(z)
    go = np.empty(z.shape, dtype=bool)
    for d in range(nbits):
        shift = nbits - 1 - d
        half = 1 << shift
        vl = gauss_draw_even(half, t, _tree_r(mctx, kg, d, path, r, tmp))
        np.right_shift(z, _U64(shift), out=path)
        np.bitwise_and(path, _U64(1), out=tmp)  # z's bit here: 1 goes right
        np.not_equal(tmp, 0, out=go)
        tmp *= vl
        ones += tmp
        np.subtract(t, vl, out=tmp)
        t = np.where(go, tmp, vl)
    b = t  # leaf tally is 0 or 1
    x = np.where(b.astype(bool), ones, z - ones)
    return b, x


def merge_forward_batch(mctx, k0, nbits: int, b, x):
    """Position of the x-th element of pile b under the balanced merge."""
    t = np.full_like(x, _U64(1) << _U64(nbits - 1))
    path = np.zeros_like(x)
    x = x.copy()
    is_one = b.astype(bool)
    kg = int(k0) * prng.GOLDEN
    r = np.empty_like(x)
    tmp = np.empty_like(x)
    go = np.empty(x.shape, dtype=bool)
    for d in range(nbits):
        half = 1 << (nbits - 1 - d)
        vl = gauss_draw_even(half, t, _tree_r(mctx, kg, d, path, r, tmp))
        np.subtract(_U64(half), vl, out=tmp)
        cnt_left = np.where(is_one, vl, tmp)
        np.greater_equal(x, cnt_left, out=go)
        cnt_left *= go  # x -= cnt_left where going right
        x -= cnt_left
        np.subtract(t, vl, out=tmp)
        t = np.where(go, tmp, vl)
        path <<= _U64(1)
        path |= go
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
    ctx = np.full_like(xs, mix64_np(k0, k1, _TAG_ROOT))
    ctxs = []
    tops = []
    cur = xs.copy()
    for i in range(bits - 1):
        width = bits - i
        top = (cur >> _U64(width - 1)) & _U64(1)
        ctxs.append(ctx)
        tops.append(top)
        cur = cur & ((_U64(1) << _U64(width - 1)) - _U64(1))
        ctx = mix64_np(ctx, k1 ^ top, _TAG_CHILD)
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
    y = low ^ (mix64_np(ctxs[-1], k1v, _TAG_XOR) & _U64(1))
    for i in range(bits - 2, -1, -1):
        mctx = mix64_np(ctxs[i], k1v, _TAG_MERGE)
        y = merge_forward_batch(mctx, k0v, bits - i, tops[i], y)
    return y


def prp_inverse_batch(k0: int, k1: int, bits: int, zs: np.ndarray) -> np.ndarray:
    """Inverse of prp_forward_batch."""
    if bits < 1:
        raise RangeError("bits must be >= 1")
    zs = np.asarray(zs, dtype=np.uint64)
    k0v = _U64(k0)
    k1v = _U64(k1)
    ctx = np.full_like(zs, mix64_np(k0v, k1v, _TAG_ROOT))
    out = np.zeros_like(zs)
    cur = zs.copy()
    for i in range(bits - 1):
        width = bits - i
        mctx = mix64_np(ctx, k1v, _TAG_MERGE)
        b, y = merge_inverse_batch(mctx, k0v, width, cur)
        out |= b << _U64(width - 1)
        cur = y
        ctx = mix64_np(ctx, k1v ^ b, _TAG_CHILD)
    out |= cur ^ (mix64_np(ctx, k1v, _TAG_XOR) & _U64(1))
    return out
