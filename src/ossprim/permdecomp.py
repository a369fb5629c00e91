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

Schedules are random-access (index -> step, index -> prefix `Perm`) rather
than materialized, since T may be exponential; `step(i)` and `prefix(i)`
are the one place an index is range-checked.  Every prefix is built from
`Perm`s with `then` and `inverted`, so no prefix inverse is written by hand.
Composite constructors (involutions, compositions, controlled families,
conjugations) share one staged walk, `_staged`, whose cumulative
stage-offset table caps them at _STAGE_CAP stages.
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
    """A permutation of [n] as a forward/inverse pair of evaluators.

    ``forward`` and ``inverse`` are the one domain check: each refuses a
    point outside [0, n) with `RangeError`.  The fields ``fwd`` and ``inv``
    assume a point in range; `then`, `inverted` and `table` build on them,
    so a composite or a table pays one check per call, not one per factor.
    """

    n: int
    fwd: Callable[[int], int]
    inv: Callable[[int], int]

    def forward(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise RangeError(f"point {x} outside [0, {self.n})")
        return self.fwd(x)

    def inverse(self, z: int) -> int:
        if not 0 <= z < self.n:
            raise RangeError(f"point {z} outside [0, {self.n})")
        return self.inv(z)

    def then(self, after: Perm) -> Perm:
        """self first, then ``after``; the inverse undoes ``after`` first."""
        if self.n != after.n:
            raise DimensionError("composed permutations must share a domain")
        f, g, f_inv, g_inv = self.fwd, after.fwd, self.inv, after.inv
        return Perm(self.n, lambda x: g(f(x)), lambda z: f_inv(g_inv(z)))

    def inverted(self) -> Perm:
        return Perm(self.n, self.inv, self.fwd)

    def table(self) -> list[int]:
        return list(map(self.fwd, range(self.n)))


@dataclass(frozen=True)
class DecomposablePermutation(Perm):
    """A permutation of [N] with a neighbor-swap decomposition schedule.

    `swaps` and `prefixes` assume an index in range; read them through
    `step` and `prefix`, which check it.
    """

    length: int
    swaps: Callable[[int], Optional[int]]  # i -> z_i; None = skip step
    prefixes: Callable[[int], Perm]  # i -> Gamma_i

    def step(self, i: int) -> Optional[int]:
        """z_i, the i-th swap (1-indexed)."""
        if not 1 <= i <= self.length:
            raise RangeError(f"step index {i} outside [1, {self.length}]")
        return self.swaps(i)

    def prefix(self, i: int) -> Perm:
        """Gamma_i, the permutation after the first i swaps."""
        if not 0 <= i <= self.length:
            raise RangeError(f"prefix index {i} outside [0, {self.length}]")
        return self.prefixes(i)


def _schedule(whole: Perm, length: int, swaps: Callable[[int], Optional[int]],
              prefixes: Callable[[int], Perm]) -> DecomposablePermutation:
    return DecomposablePermutation(whole.n, whole.fwd, whole.inv, length, swaps, prefixes)


def _tau(n: int, z: int, x: int) -> int:
    zp = (z + 1) % n
    if x == z:
        return zp
    if x == zp:
        return z
    return x


def identity_perm(n: int) -> DecomposablePermutation:
    ident = Perm(n, lambda x: x, lambda x: x)
    return _schedule(ident, 0, lambda i: None, lambda i: ident)  # no index reaches swaps


def neighbor_swap(n: int, z: int) -> DecomposablePermutation:
    """The swap of z and z+1 mod n (z = n-1 wraps around); schedule length 1."""
    if not 0 <= z < n:
        raise RangeError(f"{z} outside [0, {n})")
    f = functools.partial(_tau, n, z)
    swap = Perm(n, f, f)
    return _schedule(swap, 1, lambda i: z, (identity_perm(n), swap).__getitem__)


def _cycle(n: int, j: int, l: int) -> Perm:
    """The linear cycle: j goes to position l, everything in (j, l] slides
    down one; the identity when j == l."""
    return Perm(n, lambda x: l if x == j else x - 1 if j < x <= l else x,
                lambda x: j if x == l else x + 1 if j <= x < l else x)


def linear_cycle(n: int, j: int, l: int) -> DecomposablePermutation:
    """j goes to position l; everything else in (j, l] is shifted down by 1.

    Schedule [l-1, l-2, ..., j]; the prefix after i swaps is the shorter
    cycle on [l-i, l], so every intermediate needs only range arithmetic.
    """
    if not 0 <= j <= l < n:
        raise RangeError("need 0 <= j <= l < n")
    return _schedule(_cycle(n, j, l), l - j, lambda i: l - i, lambda i: _cycle(n, l - i, l))


def transposition(n: int, j: int, l: int) -> DecomposablePermutation:
    """The swap (j l) via the cycle-conjugation identity: the cycle on [j, l]
    followed by the inverse of the cycle on [j, l-1]; 2(l-j)-1 swaps."""
    if not 0 <= j < l < n:
        raise RangeError("need 0 <= j < l < n")
    rise = l - 1 - j  # listing: [j .. l-2] (outer inverse-cycle part)
    fall = l - j      # then [l-1 down to j] (inner cycle part)
    back = _cycle(n, j, l - 1).inverted()

    def fwd(x: int) -> int:
        if x == j:
            return l
        if x == l:
            return j
        return x

    def prefix(i: int) -> Perm:
        if i <= rise:
            return _cycle(n, j, j + i).inverted()
        return _cycle(n, l - (i - rise), l).then(back)

    return _schedule(Perm(n, fwd, fwd), rise + fall,
                     lambda i: (j + i - 1) if i <= rise else (l - 1 - (i - rise - 1)), prefix)


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

    def rotation(w: int) -> Perm:
        # rotation by s of the window [0, w-1]; identity above
        return Perm(n, lambda x: x if x >= w else (x + s) % w,
                    lambda x: x if x >= w else (x - s) % w)

    def prefix(i: int) -> Perm:
        m, t = divmod(i, s)
        return _cycle(n, m + s - t, m + s).then(rotation(m + s))

    def step(i: int) -> int:
        m, t = divmod(i - 1, s)
        return m + s - 1 - t

    whole = Perm(n, lambda x: (x + s) % n, lambda x: (x - s) % n)
    return _schedule(whole, (n - s) * s, step, prefix)


def _staged(whole: Perm, stages: int, stage: Callable[[int], Optional[DecomposablePermutation]],
            milestone: Callable[[int], Perm]) -> DecomposablePermutation:
    """Run `stages` sub-schedules back to back; together they build `whole`.

    stage(s) is stage s as a permutation of [whole.n] (None when it has no
    swaps); milestone(s) is the prefix after stages 0..s-1.  Gamma at local
    index t of stage s is stage(s).prefix(t), then milestone(s).
    """
    if stages > _STAGE_CAP:
        raise RangeError("schedule offset table above the stage cap")
    # walks visit one stage many times in a row; keep the last one built
    stage = functools.lru_cache(maxsize=1)(stage)
    ident = identity_perm(whole.n)
    offsets = [0]
    for s in range(stages):
        g = stage(s)
        offsets.append(offsets[-1] + (0 if g is None else g.length))

    def locate(i: int) -> int:
        # the stage holding swap i; i - offsets[s] is its 1-indexed place there
        return bisect.bisect_left(offsets, i) - 1

    def swap(i: int) -> Optional[int]:
        s = locate(i)
        return stage(s).step(i - offsets[s])

    def prefix(i: int) -> Perm:
        if i == 0:
            return ident
        s = locate(i)
        return stage(s).prefix(i - offsets[s]).then(milestone(s))

    return _schedule(whole, offsets[-1], swap, prefix)


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

    def milestone(s: int) -> Perm:
        # transpositions with both endpoints below s are active; each prefix
        # is an involution, so it is its own inverse
        def f(x: int) -> int:
            y = fwd(x)
            return y if x < s and y < s else x
        return Perm(n, f, f)

    return _staged(Perm(n, fwd, fwd), n, stage, milestone)


def compose(g1: DecomposablePermutation, g2: DecomposablePermutation) -> DecomposablePermutation:
    """Apply g1 first, then g2; schedules concatenate outer-factor-first."""
    return _staged(g1.then(g2), 2, (g2, g1).__getitem__, (identity_perm(g1.n), g2).__getitem__)


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

    def lift(p: Perm) -> Perm:
        def at(f: Callable[[int], int]) -> Callable[[int], int]:
            return lambda e: base + f(e - base) if base <= e < base + n0 else e
        return Perm(n, at(p.fwd), at(p.inv))

    def swap(i: int) -> Optional[int]:
        z = g.step(i)
        if z == n0 - 1:
            raise ContractError("wraparound sub-swap cannot embed in a block")
        return None if z is None else base + z

    return _schedule(lift(g), g.length, swap, lambda i: lift(g.prefix(i)))


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
        return v * n0 + fams[v].fwd(a)

    def inv(e: int) -> int:
        v, a = divmod(e, n0)
        return v * n0 + fams[v].inv(a)

    def milestone(s: int) -> Perm:
        # after whole stages 0..s-1, exactly the blocks below s are permuted
        cut = s * n0
        return Perm(n, lambda e: fwd(e) if e < cut else e, lambda e: inv(e) if e < cut else e)

    return _staged(Perm(n, fwd, inv), n1, blocks.__getitem__, milestone)


def conditional(n0: int, g: DecomposablePermutation, target: int,
                n1: int) -> DecomposablePermutation:
    """Apply g to the low component only when the high component == target."""
    ident = identity_perm(n0)
    return controlled(n0, lambda v: g if v == target else ident, n1)


def conjugate(lam: Perm, g: DecomposablePermutation) -> DecomposablePermutation:
    """lam, then g, then lam^-1, for an efficient (not necessarily
    decomposable) lam.

    Each base swap tau_z conjugates to the transposition of lam^-1(z) and
    lam^-1(z+1), which is then expanded to neighbor swaps; the milestone
    after base stage i is lam, then Gamma_i, then lam^-1, so every prefix
    keeps a small circuit.  The neighbor-swap schedule is longer than the
    base one by the expanded transposition lengths.
    """
    n, back = g.n, lam.inverted()

    def stage(i: int) -> Optional[DecomposablePermutation]:
        z = g.step(i + 1)
        if z is None:
            return None
        a, b = lam.inverse(z), lam.inverse((z + 1) % n)
        return transposition(n, min(a, b), max(a, b))

    return _staged(lam.then(g).then(back), g.length, stage,
                   lambda i: lam.then(g.prefix(i)).then(back))


def product(n0: int, g_high: DecomposablePermutation, n1: int,
            g_low: DecomposablePermutation) -> DecomposablePermutation:
    """(x, y) -> (g_high(x), g_low(y)) on [n0 * n1], encoded x*n1 + y."""
    if g_high.n != n0 or g_low.n != n1:
        raise DimensionError("component domains do not match")
    low_part = controlled(n1, lambda _v: g_low, n0)
    sigma = Perm(n0 * n1, lambda e: (e % n1) * n0 + e // n1,  # (x,y) -> (y,x)
                 lambda e: (e % n0) * n1 + e // n0)
    high_part = conjugate(sigma, controlled(n0, lambda _v: g_high, n1))
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


def with_ancilla(gamma: Perm) -> DecomposablePermutation:
    """Lift an efficiently invertible injective map gamma on [n] to a
    decomposable permutation of [n*n] acting as (x, 0) -> (gamma(x), 0) on the
    zero-ancilla plane, via two controlled modular additions and the
    component swap.

    gamma.inverse must be total on [n] (its value off the image is arbitrary).
    """
    n = gamma.n
    g1 = controlled(n, lambda x: scalar_add(n, gamma.forward(x) % n), n)
    sigma = lambda e: (e % n) * n + e // n
    c2 = controlled(n, lambda y: scalar_add(n, (-gamma.inverse(y)) % n), n)
    g2 = conjugate(Perm(n * n, sigma, sigma), c2)
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

    first, last = g.prefix(0), g.prefix(T)
    for x in points:
        if first.forward(x) != x:
            rep.fail(f"Gamma_0({x}) != {x}")
        if last.forward(x) != g.forward(x):
            rep.fail(f"Gamma_T({x}) != forward({x})")
        if g.inverse(g.forward(x)) != x:
            rep.fail(f"inverse(forward({x})) != {x}")
        rep.checked_points += 1

    for i in steps:
        try:
            zi = g.step(i)
        except ContractError as e:  # a step with no neighbor swap of [n] to name
            rep.fail(f"step {i}: {e}")
            continue
        here, before = g.prefix(i), g.prefix(i - 1)
        cur = [here.forward(x) for x in points]
        if exhaustive and sorted(cur) != list(range(n)):
            rep.fail(f"Gamma_{i} is not a bijection")
        for x, gx in zip(points, cur):
            # Gamma_i must equal Gamma_{i-1} o tau_{z_i} (or Gamma_{i-1} on skips)
            ref = before.forward(x if zi is None else _tau(n, zi, x))
            if gx != ref:
                rep.fail(f"step {i} (z={zi}) is not the declared neighbor swap at {x}")
            if here.inverse(gx) != x:
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
