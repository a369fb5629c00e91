"""Permutations as forward/inverse pairs (`Perm`, the package's one pair
type), and decomposable permutations: a `Perm` plus a neighbor-swap
decomposition with efficiently evaluable prefixes.

A schedule of length T lists swaps z_1..z_T with prefix permutations
Gamma_0 = identity, Gamma_i = Gamma_{i-1} o tau_{z_i} (tau composed on the
input side), Gamma_T = forward.  Listing a composite therefore starts with
the OUTER factor: for "g1 then g2" the listing is sched(g2) ++ sched(g1),
because the last-listed swap is applied first.  All cycle identities below
were re-derived and unit-tested under this convention ("Gamma1 then Gamma2"
always means apply Gamma1 first).

Schedules are random-access (index -> step) rather than materialized, since T
may be exponential.  Composite constructors (involutions, compositions,
controlled families, conjugations) share one staged walk, `_staged`, whose
cumulative stage-offset table caps them at _STAGE_CAP stages.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import gf2
from .errors import ContractError, DimensionError, RangeError

_STAGE_CAP = 1 << 20  # offset tables beyond this are refused, not guessed


@dataclass(frozen=True)
class Perm:
    """A permutation of [n] as a forward/inverse pair of evaluators."""

    n: int
    forward: Callable[[int], int]
    inverse: Callable[[int], int]

    def then(self, after: Perm) -> Perm:
        """self first, then ``after``; the inverse undoes ``after`` first."""
        if self.n != after.n:
            raise DimensionError("composed permutations must share a domain")
        f, g, f_inv, g_inv = self.forward, after.forward, self.inverse, after.inverse
        return Perm(self.n, lambda x: g(f(x)), lambda z: f_inv(g_inv(z)))

    def table(self) -> list[int]:
        return [self.forward(x) for x in range(self.n)]


@dataclass(frozen=True)
class DecomposablePermutation(Perm):
    """A permutation of [N] with a neighbor-swap decomposition schedule."""

    length: int
    step: Callable[[int], Optional[int]]  # 1-indexed; None = skip step
    gamma: Callable[[int, int], int]  # (i, x) -> Gamma_i(x), 0 <= i <= length
    gamma_inv: Callable[[int, int], int]

    def prefix(self, i: int) -> Perm:
        """Gamma_i, the permutation after the first i swaps."""
        if not 0 <= i <= self.length:
            raise RangeError(f"prefix index {i} outside [0, {self.length}]")
        return Perm(self.n, functools.partial(self.gamma, i), functools.partial(self.gamma_inv, i))


def _tau(n: int, z: int, x: int) -> int:
    zp = (z + 1) % n
    if x == z:
        return zp
    if x == zp:
        return z
    return x


def identity_perm(n: int) -> DecomposablePermutation:
    return DecomposablePermutation(
        n=n, length=0,
        forward=lambda x: x, inverse=lambda x: x,
        step=lambda i: _bad_index(i),
        gamma=lambda i, x: x, gamma_inv=lambda i, x: x,
    )


def _bad_index(i):
    raise RangeError(f"schedule index {i} out of range")


def neighbor_swap(n: int, z: int) -> DecomposablePermutation:
    """The swap of z and z+1 mod n (z = n-1 wraps around); schedule length 1."""
    if not 0 <= z < n:
        raise RangeError(f"{z} outside [0, {n})")
    f = lambda x: _tau(n, z, x)
    return DecomposablePermutation(
        n=n, length=1, forward=f, inverse=f,
        step=lambda i: z if i == 1 else _bad_index(i),
        gamma=lambda i, x: x if i == 0 else f(x),
        gamma_inv=lambda i, x: x if i == 0 else f(x),
    )


def _cycle(j: int, l: int, x: int) -> int:
    # linear cycle: j -> l, everything in (j, l] slides down one
    if x == j:
        return l
    if j < x <= l:
        return x - 1
    return x


def _cycle_inv(j: int, l: int, x: int) -> int:
    if x == l:
        return j
    if j <= x < l:
        return x + 1
    return x


def linear_cycle(n: int, j: int, l: int) -> DecomposablePermutation:
    """j goes to position l; everything else in (j, l] is shifted down by 1.

    Schedule [l-1, l-2, ..., j]; the prefix after i swaps is the shorter
    cycle on [l-i, l], so every intermediate needs only range arithmetic.
    """
    if not 0 <= j <= l < n:
        raise RangeError("need 0 <= j <= l < n")
    T = l - j
    return DecomposablePermutation(
        n=n, length=T,
        forward=lambda x: _cycle(j, l, x),
        inverse=lambda x: _cycle_inv(j, l, x),
        step=lambda i: (l - i) if 1 <= i <= T else _bad_index(i),
        gamma=lambda i, x: _cycle(l - i, l, x),
        gamma_inv=lambda i, x: _cycle_inv(l - i, l, x),
    )


def transposition(n: int, j: int, l: int) -> DecomposablePermutation:
    """The swap (j l) via the cycle-conjugation identity: the cycle on [j, l]
    followed by the inverse of the cycle on [j, l-1]; 2(l-j)-1 swaps."""
    if not 0 <= j < l < n:
        raise RangeError("need 0 <= j < l < n")
    rise = l - 1 - j  # listing: [j .. l-2] (outer inverse-cycle part)
    fall = l - j      # then [l-1 down to j] (inner cycle part)
    T = rise + fall

    def fwd(x: int) -> int:
        if x == j:
            return l
        if x == l:
            return j
        return x

    def step(i: int) -> int:
        if not 1 <= i <= T:
            _bad_index(i)
        return (j + i - 1) if i <= rise else (l - 1 - (i - rise - 1))

    def gamma(i: int, x: int) -> int:
        if i <= rise:
            return _cycle_inv(j, j + i, x)
        t = i - rise
        return _cycle_inv(j, l - 1, _cycle(l - t, l, x))

    def gamma_inv(i: int, x: int) -> int:
        if i <= rise:
            return _cycle(j, j + i, x)
        t = i - rise
        return _cycle_inv(l - t, l, _cycle(j, l - 1, x))

    return DecomposablePermutation(
        n=n, length=T, forward=fwd, inverse=fwd,
        step=step, gamma=gamma, gamma_inv=gamma_inv,
    )


def scalar_add(n: int, s: int) -> DecomposablePermutation:
    """x -> x + s mod n via a chain of window rotations.

    Stage m (of n-s) appends the cycle on [m, m+s], after which the prefix is
    exactly "rotate the window [0, m+s] up by s": the bottom elements move s
    forward and the top s wrap to the bottom in an order-preserving way.
    """
    if n < 1:
        raise RangeError(f"domain size {n} must be >= 1")
    s %= n
    if s == 0:
        return identity_perm(n)
    stages = n - s
    T = stages * s

    def fwd(x: int) -> int:
        return (x + s) % n

    def inv(x: int) -> int:
        return (x - s) % n

    def rot_window(m: int, x: int) -> int:
        # rotation by s of [0, m+s-1]; identity above
        hi = m + s - 1
        return x if x > hi else (x + s) % (m + s)

    def rot_window_inv(m: int, x: int) -> int:
        hi = m + s - 1
        return x if x > hi else (x - s) % (m + s)

    def step(i: int) -> int:
        if not 1 <= i <= T:
            _bad_index(i)
        m, t = divmod(i - 1, s)
        return m + s - 1 - t

    def gamma(i: int, x: int) -> int:
        m, t = divmod(i, s)
        if t == 0:
            return rot_window(m, x)
        return rot_window(m, _cycle(m + s - t, m + s, x))

    def gamma_inv(i: int, x: int) -> int:
        m, t = divmod(i, s)
        if t == 0:
            return rot_window_inv(m, x)
        return _cycle_inv(m + s - t, m + s, rot_window_inv(m, x))

    return DecomposablePermutation(
        n=n, length=T, forward=fwd, inverse=inv,
        step=step, gamma=gamma, gamma_inv=gamma_inv,
    )


def _staged(whole: Perm, stages: int, stage: Callable[[int], Optional[DecomposablePermutation]],
            milestone: Callable[[int, int], int],
            milestone_inv: Callable[[int, int], int]) -> DecomposablePermutation:
    """Run `stages` sub-schedules back to back; together they build `whole`.

    stage(s) is stage s as a permutation of [whole.n] (None when it has no swaps);
    milestone(s, x) and milestone_inv(s, x) are the prefix after stages
    0..s-1 and its inverse.  Gamma at local index t of stage s is
    milestone(s) o stage(s).Gamma_t.
    """
    if stages > _STAGE_CAP:
        raise RangeError("schedule offset table above the stage cap")
    # walks visit one stage many times in a row; keep the last one built
    stage = functools.lru_cache(maxsize=1)(stage)
    offsets = [0]
    for s in range(stages):
        g = stage(s)
        offsets.append(offsets[-1] + (0 if g is None else g.length))
    total = offsets[-1]

    def locate(i: int) -> int:
        # the stage holding swap i; i - offsets[s] is its 1-indexed place there
        if not 1 <= i <= total:
            _bad_index(i)
        return bisect.bisect_left(offsets, i) - 1

    def step(i: int) -> Optional[int]:
        s = locate(i)
        return stage(s).step(i - offsets[s])

    def gamma(i: int, x: int) -> int:
        if i == 0:
            return x
        s = locate(i)
        return milestone(s, stage(s).gamma(i - offsets[s], x))

    def gamma_inv(i: int, x: int) -> int:
        if i == 0:
            return x
        s = locate(i)
        return stage(s).gamma_inv(i - offsets[s], milestone_inv(s, x))

    return DecomposablePermutation(
        n=whole.n, length=total, forward=whole.forward, inverse=whole.inverse,
        step=step, gamma=gamma, gamma_inv=gamma_inv,
    )


def involution(n: int, fwd: Callable[[int], int]) -> DecomposablePermutation:
    """Decompose an involution by activating its disjoint transpositions one
    endpoint at a time: stage i contributes (fwd(i) i) exactly when
    fwd(i) < i.  Verified to be an involution by sampling 64 points
    (exhaustively when n <= 2^16)."""
    if n <= (1 << 16):
        probe = range(n)
    else:
        probe = [(x * 0x9E3779B97F4A7C15) % n for x in range(64)]
    for x in probe:
        y = fwd(x)
        if not 0 <= y < n or fwd(y) != x:
            raise ContractError("supplied evaluator is not an involution")

    def stage(i: int) -> Optional[DecomposablePermutation]:
        j = fwd(i)
        return transposition(n, j, i) if j < i else None

    def prefix(s: int, x: int) -> int:
        # transpositions with both endpoints below s are active; each prefix
        # is an involution, so it is its own inverse
        y = fwd(x)
        return y if x < s and y < s else x

    return _staged(Perm(n, fwd, fwd), n, stage, prefix, prefix)


def compose(g1: DecomposablePermutation, g2: DecomposablePermutation) -> DecomposablePermutation:
    """Apply g1 first, then g2; schedules concatenate outer-factor-first."""
    return _staged(
        g1.then(g2), 2, (g2, g1).__getitem__,
        lambda s, x: g2.forward(x) if s else x,
        lambda s, x: g2.inverse(x) if s else x,
    )


def compose_all(gs: Sequence[DecomposablePermutation]) -> DecomposablePermutation:
    """Apply gs[0] first, then gs[1], and so on."""
    if not gs:
        raise DimensionError("nothing to compose")
    out = gs[0]
    for g in gs[1:]:
        out = compose(out, g)
    return out


def _in_block(g: DecomposablePermutation, v: int, n: int) -> DecomposablePermutation:
    """g acting on block v of [n], the elements v*g.n .. v*g.n + g.n - 1."""
    n0, base = g.n, v * g.n

    def lift(f: Callable[[int, int], int]) -> Callable[[int, int], int]:
        return lambda i, e: base + f(i, e - base) if base <= e < base + n0 else e

    def step(i: int) -> Optional[int]:
        z = g.step(i)
        if z == n0 - 1:
            raise ContractError("wraparound sub-swap cannot embed in a block")
        return None if z is None else base + z

    gamma, gamma_inv = lift(g.gamma), lift(g.gamma_inv)
    return DecomposablePermutation(
        n=n, length=g.length,
        forward=lambda e: gamma(g.length, e),
        inverse=lambda e: gamma_inv(g.length, e),
        step=step, gamma=gamma, gamma_inv=gamma_inv,
    )


def controlled(n0: int, gammas: Callable[[int], DecomposablePermutation],
               n1: int) -> DecomposablePermutation:
    """(v, a) -> (v, Gamma_v(a)) on [n1 * n0], encoded as v*n0 + a.

    The acted-on component sits in the low position so every block swap is a
    neighbor swap of the full domain.  Blocks are disjoint, so the schedule
    is the per-value schedules back to back.
    """
    fams = [gammas(v) for v in range(n1)]
    for g in fams:
        if g.n != n0:
            raise DimensionError("family member domain != n0")
    n = n0 * n1
    blocks = [_in_block(g, v, n) for v, g in enumerate(fams)]

    def fwd(e: int) -> int:
        v, a = divmod(e, n0)
        return v * n0 + fams[v].forward(a)

    def inv(e: int) -> int:
        v, a = divmod(e, n0)
        return v * n0 + fams[v].inverse(a)

    # after whole stages 0..s-1, exactly the blocks below s are permuted
    return _staged(Perm(n, fwd, inv), n1, blocks.__getitem__,
                   lambda s, e: fwd(e) if e < s * n0 else e,
                   lambda s, e: inv(e) if e < s * n0 else e)


def conditional(n0: int, g: DecomposablePermutation, target: int,
                n1: int) -> DecomposablePermutation:
    """Apply g to the low component only when the high component == target."""
    ident = identity_perm(n0)
    return controlled(n0, lambda v: g if v == target else ident, n1)


def conjugate(lam: Callable[[int], int], lam_inv: Callable[[int], int],
              g: DecomposablePermutation) -> DecomposablePermutation:
    """lam_inv o g o lam for an efficient (not necessarily decomposable) lam.

    Each base swap tau_z conjugates to the transposition of lam_inv(z) and
    lam_inv(z+1), which is then expanded to neighbor swaps; the milestone
    after base stage i is lam_inv o Gamma_i o lam, so every prefix keeps a
    small circuit.  The neighbor-swap schedule is longer than the base one by
    the expanded transposition lengths.
    """
    n = g.n

    def stage(i: int) -> Optional[DecomposablePermutation]:
        z = g.step(i + 1)
        if z is None:
            return None
        a, b = lam_inv(z), lam_inv((z + 1) % n)
        return transposition(n, min(a, b), max(a, b))

    return _staged(
        Perm(n, lam, lam_inv).then(g).then(Perm(n, lam_inv, lam)), g.length, stage,
        lambda i, x: lam_inv(g.gamma(i, lam(x))),
        lambda i, x: lam_inv(g.gamma_inv(i, lam(x))),
    )


def product(n0: int, g_high: DecomposablePermutation, n1: int,
            g_low: DecomposablePermutation) -> DecomposablePermutation:
    """(x, y) -> (g_high(x), g_low(y)) on [n0 * n1], encoded x*n1 + y."""
    if g_high.n != n0 or g_low.n != n1:
        raise DimensionError("component domains do not match")
    low_part = controlled(n1, lambda _v: g_low, n0)
    sigma = lambda e: (e % n1) * n0 + e // n1      # (x,y) -> (y,x)
    sigma_inv = lambda e: (e % n0) * n1 + e // n0
    high_part = conjugate(sigma, sigma_inv, controlled(n0, lambda _v: g_high, n1))
    return compose(low_part, high_part)


def affine_gf2(nbits: int, a: gf2.BitMatrix, v: gf2.BitVector) -> DecomposablePermutation:
    """x -> A.x + v over Z2^nbits as a permutation of [2^nbits].

    A is decomposed into elementary row operations (each an involution on the
    packed vectors), followed by the XOR translation, itself an involution.
    """
    if a.rows != nbits or a.ncols != nbits or v.dim != nbits:
        raise DimensionError("matrix/vector sizes must equal nbits")
    if not gf2.is_invertible(a):
        raise ContractError("matrix is singular")
    n = 1 << nbits
    factors = gf2.elementary_factors(a)
    parts = [involution(n, (lambda x, op=op: gf2.apply_row_op(op, x)))
             for op in factors]
    if v.bits:
        parts.append(involution(n, lambda x: x ^ v.bits))
    if not parts:
        return identity_perm(n)
    return compose_all(parts)


def with_ancilla(n: int, gamma_fwd: Callable[[int], int],
                 gamma_inv: Callable[[int], int]) -> DecomposablePermutation:
    """Lift an efficiently invertible injective map on [n] to a decomposable
    permutation of [n*n] acting as (x, 0) -> (gamma(x), 0) on the zero-ancilla
    plane, via two controlled modular additions and the component swap.

    gamma_inv must be total on [n] (its value off the image is arbitrary).
    """
    g1 = controlled(n, lambda x: scalar_add(n, gamma_fwd(x) % n), n)
    sigma = lambda e: (e % n) * n + e // n
    c2 = controlled(n, lambda y: scalar_add(n, (-gamma_inv(y)) % n), n)
    g2 = conjugate(sigma, sigma, c2)
    g3 = involution(n * n, sigma)
    return compose_all([g1, g2, g3])


# -- verification oracle -----------------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool = True
    checked_steps: int = 0
    checked_points: int = 0
    failures: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        if len(self.failures) < 32:
            self.failures.append(msg)


def verify_decomposition(g: DecomposablePermutation, budget: int = 1 << 20) -> VerifyReport:
    """Check the decomposition contract and report the first violations.

    Exhaustive over points and steps while (steps+2) * n stays within budget;
    otherwise steps and points are subsampled deterministically.
    """
    rep = VerifyReport()
    n, T = g.n, g.length
    exhaustive = (T + 2) * n <= budget
    if exhaustive:
        points = list(range(n))
        steps: Iterable[int] = range(1, T + 1)
    else:
        npts = max(2, min(n, budget // (4 * max(T, 1)) or 2))
        points = sorted({(x * 0x9E3779B97F4A7C15) % n for x in range(npts)})
        nsteps = max(1, budget // (4 * max(len(points), 1)))
        steps = sorted({1 + (i * 0x5851F42D4C957F2D) % T for i in range(nsteps)}) if T else []

    for x in points:
        if g.gamma(0, x) != x:
            rep.fail(f"Gamma_0({x}) != {x}")
        if g.gamma(T, x) != g.forward(x):
            rep.fail(f"Gamma_T({x}) != forward({x})")
        if g.inverse(g.forward(x)) != x:
            rep.fail(f"inverse(forward({x})) != {x}")
        rep.checked_points += 1

    for i in steps:
        zi = g.step(i)
        cur = [g.gamma(i, x) for x in points]
        if exhaustive and sorted(cur) != list(range(n)):
            rep.fail(f"Gamma_{i} is not a bijection")
        for x, gx in zip(points, cur):
            # Gamma_i must equal Gamma_{i-1} o tau_{z_i} (or Gamma_{i-1} on skips)
            ref = g.gamma(i - 1, x if zi is None else _tau(n, zi, x))
            if gx != ref:
                rep.fail(f"step {i} (z={zi}) is not the declared neighbor swap at {x}")
            if g.gamma_inv(i, gx) != x:
                rep.fail(f"Gamma_{i}^-1(Gamma_{i}({x})) != {x}")
        rep.checked_steps += 1
        if not rep.ok and len(rep.failures) >= 32:
            break
    return rep


# -- textual description language ---------------------------------------------------

_PERM_ARITY = {"swap": 2, "transp": 3, "cycle": 3, "add": 2, "affine": 3}


def parse_perm(desc: str) -> DecomposablePermutation:
    """Parse the CLI permutation language.

    Statements separated by ';' compose left to right (leftmost applied
    first): ``swap N z`` | ``transp N j l`` | ``cycle N j l`` | ``add N s`` |
    ``affine n <hexA> <hexv>`` (A row-major, bit i*n+j of the hex integer).
    """
    parts = [p.strip() for p in desc.split(";") if p.strip()]
    if not parts:
        raise ContractError("empty permutation description")
    gs = []
    for p in parts:
        toks = p.split()
        op = toks[0]
        if op in _PERM_ARITY and len(toks) != 1 + _PERM_ARITY[op]:
            raise ContractError(f"{op!r} takes {_PERM_ARITY[op]} arguments, got {len(toks) - 1}")
        if op == "swap":
            gs.append(neighbor_swap(int(toks[1]), int(toks[2])))
        elif op == "transp":
            gs.append(transposition(int(toks[1]), int(toks[2]), int(toks[3])))
        elif op == "cycle":
            gs.append(linear_cycle(int(toks[1]), int(toks[2]), int(toks[3])))
        elif op == "add":
            gs.append(scalar_add(int(toks[1]), int(toks[2])))
        elif op == "affine":
            nbits = int(toks[1])
            aval = int(toks[2], 16)
            vval = int(toks[3], 16)
            rows = [[(aval >> (i * nbits + j)) & 1 for j in range(nbits)] for i in range(nbits)]
            gs.append(affine_gf2(nbits, gf2.BitMatrix.from_rows(rows), gf2.BitVector(vval, nbits)))
        else:
            raise ContractError(f"unknown permutation op {op!r}")
    if len({g.n for g in gs}) != 1:
        raise DimensionError("composed statements must share one domain size")
    return compose_all(gs)
