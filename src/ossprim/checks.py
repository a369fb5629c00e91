"""Desk-scale invariant suites behind the acceptance criteria and verify-all.

Each check returns a CheckResult; the full level runs the acceptance
parameters, the quick level a reduced but structurally identical sweep.
Everything is seeded and deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Callable, Optional

import numpy as np
from scipy.stats import chi2

from . import gf2, hypergeom, lwehash, merge as merge_mod, nsprp, opprp, oss as oss_mod, permdecomp as pd, prng, qsim
from .oss import OssParams


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    budget: Optional[float] = None

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        budget = f" / budget {self.budget:.0f}s" if self.budget else ""
        return f"{self.name}: {status} ({self.detail}) [{self.seconds:.1f}s{budget}]"


# every suite in definition order, with the kwargs of its quick level
_SUITES: list[tuple[Callable[..., CheckResult], dict]] = []


def _timed(name: str, budget: Optional[float] = None, quick: Optional[dict] = None):
    """Register ``fn`` as the suite ``name``, run under ``budget`` seconds and,
    at the quick level, with the reduced kwargs ``quick``."""
    def wrap(fn):
        def run(*args, **kwargs) -> CheckResult:
            t0 = time.monotonic()
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as e:  # a crash is a failure, not an abort
                ok, detail = False, f"exception: {type(e).__name__}: {e}"
            dt = time.monotonic() - t0
            if ok and budget is not None and dt > budget:
                ok, detail = False, detail + f"; exceeded budget {budget}s"
            return CheckResult(name, ok, detail, dt, budget)
        _SUITES.append((run, quick or {}))
        return run
    return wrap


def _seed(i: int) -> bytes:
    return prng.prf_eval(prng.PrfKey(b"\x5a" * 32, b"checks"), i.to_bytes(8, "big"), 32)


# -- criterion 1 --------------------------------------------------------------------

@_timed("CRIT-01 merge correctness", budget=60, quick=dict(n_max=64, keys_per_n=5))
def crit01_merge_correctness(n_max: int = 256, keys_per_n: int = 50) -> tuple[bool, str]:
    """Order preservation per pile, bijectivity, and round trip on every
    point, for every N <= n_max with seeded random splits."""
    split_stream = prng.bit_stream(prng.PrfKey(b"\x5b" * 32, b"splits"), b"c1")
    checked = 0
    for n in range(1, n_max + 1):
        for i in range(keys_per_n):
            n0 = split_stream.randbelow(n + 1)
            perm = merge_mod.merge_perm(merge_mod.make_merge_key(_seed(n * 1000 + i), n0, n - n0))
            img = perm.table()
            for b, pile in enumerate((img[:n0], img[n0:])):
                if pile != sorted(pile):
                    return False, f"order violated at N={n} key {i} pile {b}"
            if sorted(img) != list(range(n)):
                return False, f"not a bijection at N={n} key {i}"
            for z in range(n):
                if img[perm.inverse(z)] != z:
                    return False, f"round trip failed at N={n} key {i} z={z}"
            checked += 1
    return True, f"{checked} keys, N ≤ {n_max}, every point"


# -- criterion 2 --------------------------------------------------------------------

def _chi2_uniform(counts: np.ndarray) -> tuple[float, float]:
    """Pearson's statistic of ``counts`` against the uniform law, and the
    0.999 quantile of its chi-square law (a 0.001 false-alarm rate)."""
    expected = counts.sum() / len(counts)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return stat, float(chi2.ppf(0.999, len(counts) - 1))


@_timed("CRIT-02 merge uniformity", budget=120, quick=dict(keys=7_000))
def crit02_merge_uniformity(keys: int = 70_000) -> tuple[bool, str]:
    """Chi-square over the 70 possible (4,4)-merges."""
    combos = {c: i for i, c in enumerate(itertools.combinations(range(8), 4))}
    counts = np.zeros(len(combos), dtype=np.int64)
    for i in range(keys):
        k = merge_mod.make_merge_key(_seed(i), 4, 4)
        ones = tuple(merge_mod.merge_forward(k, 1, x) for x in range(4))
        counts[combos[ones]] += 1
    stat, threshold = _chi2_uniform(counts)
    ok = stat < threshold
    return ok, f"chi2={stat:.1f} < {threshold:.1f} over {len(combos)} merges, {keys} keys"


# -- criterion 3 --------------------------------------------------------------------

def _permuted_key_failure(perm: pd.Perm, base: list[int], z: int, c: int) -> Optional[str]:
    """Why ``perm``, a key permuted at (z, c), is not the table ``base``
    followed by tau_z^c with an inverse that round-trips; None if it is."""
    got = perm.table()
    if got != ([pd._tau(z, w) for w in base] if c else base):
        return f"permuted eval wrong at N={perm.n} z={z} c={c}"
    if any(got[perm.inverse(zz)] != zz for zz in range(perm.n)):
        return f"permuted inverse wrong at N={perm.n} z={z} c={c}"
    return None


@_timed("CRIT-03 neighbor-swap correctness", budget=60, quick=dict(n_max=24))
def crit03_merge_neighbor_swap(n_max: int = 64) -> tuple[bool, str]:
    split_stream = prng.bit_stream(prng.PrfKey(b"\x5b" * 32, b"splits"), b"c3")
    checked = 0
    for n in range(2, n_max + 1):
        n0 = split_stream.randbelow(n + 1)
        k = merge_mod.make_merge_key(_seed(30_000 + n), n0, n - n0)
        base = merge_mod.merge_perm(k).table()
        for z in range(n - 1):
            same_pile = merge_mod.merge_inverse(k, z)[0] == merge_mod.merge_inverse(k, z + 1)[0]
            for c in (0, 1):
                pmk = merge_mod.merge_permute(k, z, c)
                if (pmk is None) != same_pile:
                    return False, f"legality wrong at N={n} z={z}"
                if pmk is None:
                    continue
                failure = _permuted_key_failure(merge_mod.merge_perm(pmk), base, z, c)
                if failure:
                    return False, failure
                checked += 1
    return True, f"{checked} legal (z, c) pairs, every point, N ≤ {n_max}"


# -- criterion 4 --------------------------------------------------------------------

@_timed("CRIT-04 puncture statistics", quick=dict(n_max=6))
def crit04_puncture_statistics(n_max: int = 8) -> tuple[bool, str]:
    """With true randomness (uniform leaf sequences), the joint distributions
    of hard-coded values under c=0 and c=1 are identical rational tables."""
    cases = 0
    for n in range(2, n_max + 1):
        for n1 in range(0, n + 1):
            for z in range(n - 1):
                dist0: dict = {}
                dist1: dict = {}
                legal = 0
                for ones in itertools.combinations(range(n), n1):
                    leaves = tuple(1 if i in ones else 0 for i in range(n))
                    if leaves[z] == leaves[z + 1]:
                        continue
                    legal += 1

                    def value(nd):
                        lo, size = merge_mod.span(n, nd)
                        return sum(leaves[lo : lo + size])

                    t0, t1 = (tuple(merge_mod.hardcoded_values(n, z, c, value).items()) for c in (0, 1))
                    dist0[t0] = dist0.get(t0, 0) + 1
                    dist1[t1] = dist1.get(t1, 0) + 1
                if legal == 0:
                    continue
                total = Fraction(1, legal)
                p0 = {t: c * total for t, c in dist0.items()}
                p1 = {t: c * total for t, c in dist1.items()}
                if p0 != p1:
                    return False, f"distributions differ at N={n} n1={n1} z={z}"
                cases += 1
    return True, f"{cases} (N, n1, z) cases, exact rational equality"


# -- criterion 5 --------------------------------------------------------------------

@_timed("CRIT-05 neighbor-swap PRP", budget=180,
        quick=dict(round_max=64, chi_keys=2_400, permute_max=20))
def crit05_prp(round_max: int = 256, chi_keys: int = 24_000, permute_max: int = 64) -> tuple[bool, str]:
    for n in range(1, round_max + 1):
        k = nsprp.make_prp_key(_seed(40_000 + n), n)
        img = nsprp.prp_perm(k).table()
        if sorted(img) != list(range(n)):
            return False, f"not a bijection at N={n}"
        for x in range(n):
            if nsprp.prp_inverse(k, img[x]) != x:
                return False, f"round trip failed at N={n}"
    perms = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
    counts = np.zeros(24, dtype=np.int64)
    for i in range(chi_keys):
        k = nsprp.make_prp_key(_seed(50_000 + i), 4)
        counts[perms[tuple(nsprp.prp_perm(k).table())]] += 1
    stat, threshold = _chi2_uniform(counts)
    if stat >= threshold:
        return False, f"chi2={stat:.1f} >= {threshold:.1f}"
    pairs = 0
    for n in range(2, permute_max + 1):
        k = nsprp.make_prp_key(_seed(60_000 + n), n)
        base = nsprp.prp_perm(k).table()
        for z in range(n - 1):
            for c in (0, 1):
                perm = nsprp.prp_perm(nsprp.prp_permute(k, z, c))  # totality: must never fail
                failure = _permuted_key_failure(perm, base, z, c)
                if failure:
                    return False, failure
                pairs += 1
    return True, f"round trips N ≤ {round_max}; chi2={stat:.1f} < {threshold:.1f}; {pairs} permuted keys total"


# -- criterion 6 --------------------------------------------------------------------

def _fig5_constructors(n_cap: int) -> list[tuple[str, pd.DecomposablePermutation]]:
    """One exhaustive-verification target per Fig.-5 family, sized to the cap."""
    c = n_cap
    out: list[tuple[str, pd.DecomposablePermutation]] = []
    for n in sorted({2, 3, 8, min(17, c), c}):
        out.append((f"swap({n},0)", pd.neighbor_swap(n, 0)))
        if n > 2:
            out.append((f"swap({n},{n-1})-wrap", pd.parse_perm(f"swap {n} {n - 1}")))
    for (n, j, l) in [(3, 0, 2), (8, 2, 7), (c, 0, c - 1), (c, 5, c - 1), (c, 0, 1)]:
        out.append((f"transp({n},{j},{l})", pd.transposition(n, j, l)))
        out.append((f"cycle({n},{j},{l})", pd.linear_cycle(n, j, l)))
    for (n, s) in [(5, 2), (c, 7 % c), (c, 1), (c, c - 1), (7, 0)]:
        out.append((f"add({n},{s})", pd.scalar_add(n, s)))
    for n in sorted({8, c}):
        out.append((f"involution-revbits({n})", pd.involution(n, lambda x, n=n: n - 1 - x)))
        out.append((f"involution-endswap({n})", pd.involution(n, lambda x, n=n: {0: n - 1, n - 1: 0}.get(x, x))))
    out.append(("involution-identity(16)", pd.involution(16, lambda x: x)))
    stream = prng.bit_stream(prng.PrfKey(b"\x5c" * 32, b"affine"), b"A")
    for nbits in range(2, c.bit_length()):
        a = gf2.random_invertible(nbits, stream)
        v = gf2.random_vector(nbits, stream)
        out.append((f"affine_gf2({nbits})", pd.affine_gf2(nbits, a, v)))
    out.append(("affine-identity(3)", pd.affine_gf2(3, gf2.identity(3), gf2.BitVector(0, 3))))
    out.append(("compose(id,transp)", pd.compose(pd.identity_perm(12), pd.transposition(12, 3, 9))))
    out.append(("compose(add,cycle)", pd.compose(pd.scalar_add(12, 5), pd.linear_cycle(12, 1, 10))))
    out.append(("controlled(4x4)", pd.controlled(4, lambda v: pd.scalar_add(4, v), 4)))
    out.append(("conditional(4@2x3)", pd.conditional(4, pd.transposition(4, 0, 3), 2, 3)))
    lam = pd.Perm(c, lambda x: (5 * x + 3) % c, lambda y: (pow(5, -1, c) * (y - 3)) % c)
    out.append((f"conjugate(affine,add mod {c})", pd.conjugate(lam, pd.scalar_add(c, 3))))
    out.append(("product(3x8)", pd.product(3, pd.linear_cycle(3, 0, 2), 8, pd.scalar_add(8, 3))))
    out.append(("ancilla(+1 mod 5)", pd.with_ancilla(pd.Perm(5, lambda x: (x + 1) % 5, lambda y: (y - 1) % 5))))
    out.append(("ancilla(bitflip 4)", pd.with_ancilla(pd.Perm(4, lambda x: x ^ 3, lambda y: y ^ 3))))
    return [(name, g) for name, g in out if g.n <= c]


@_timed("CRIT-06 decomposition oracle", budget=240, quick=dict(n_cap=16))
def crit06_decomposition(n_cap: int = 32) -> tuple[bool, str]:
    total_steps = 0
    for name, g in _fig5_constructors(n_cap):
        rep = pd.verify_decomposition(g)
        if not rep.ok:
            return False, f"{name}: {rep.failures[0]}"
        total_steps += rep.checked_steps
    # negative controls: corrupted schedules must fail
    bad = replace(pd.transposition(8, 1, 5), swaps=lambda i: 0)
    if pd.verify_decomposition(bad).ok:
        return False, "corrupted schedule passed"
    empty_bad = replace(pd.identity_perm(8), fwd=lambda x: x ^ 1, inv=lambda x: x ^ 1)
    if pd.verify_decomposition(empty_bad).ok:
        return False, "empty schedule with non-identity forward passed"
    return True, f"every family exhaustive at N ≤ {n_cap}; {total_steps} steps; negatives rejected"


# -- criterion 7 --------------------------------------------------------------------

@_timed("CRIT-07 OP-PRP and OWP", budget=120, quick=dict(owp_bits=10, scale_points=2_000))
def crit07_opprp_owp(hybrid_n: int = 16, owp_bits: int = 12,
                     scale_bits: int = 64, scale_points: int = 10_000,
                     scale_budget: float = 5.0) -> tuple[bool, str]:
    for n in (4, hybrid_n):
        k = nsprp.make_prp_key(_seed(70_000 + n), n)
        g = pd.transposition(n, 0, n - 1)
        for c in (0, 1):
            pk = opprp.op_permute(k, g, c)
            img = pk.table()
            if img != nsprp.prp_perm(k).then(g.prefix(g.length if c else 0)).table():
                return False, f"endpoint mismatch at N={n} c={c}"
            if any(pk.inverse(img[x]) != x for x in range(n)):
                return False, f"sealed inverse wrong at N={n} c={c}"
        if sorted(img) != list(range(n)):
            return False, f"permuted image != [N] at N={n}"
    keys = opprp.owp_gen(_seed(71_000), owp_bits)
    img = keys.pk.table()
    if sorted(img) != list(range(1 << owp_bits)):
        return False, "owp not a bijection"
    if any(nsprp.prp_inverse(keys.sk, img[x]) != x for x in range(1 << owp_bits)):
        return False, "owp inversion failed"
    if opprp.MOCK_LABEL not in opprp.serialize_owp_public(keys):
        return False, "public key missing the mock warning label"
    # scale: 10^4 random points at n = 64 under the stated wall budget
    keys64 = opprp.owp_gen(_seed(72_000), scale_bits)
    rng = np.random.default_rng(12345)
    xs = rng.integers(0, 1 << 63, size=scale_points, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    nsprp.prp_forward_batch(keys64.sk, xs[:4])  # warm numpy dispatch
    t0 = time.monotonic()
    ys = nsprp.prp_forward_batch(keys64.sk, xs)
    back = nsprp.prp_inverse_batch(keys64.sk, ys)
    dt = time.monotonic() - t0
    if not (back == xs).all():
        return False, "scale round trip failed"
    # the batch path must agree with the scalar owp evaluator
    for i in range(8):
        if keys64.pk.forward(int(xs[i])) != int(ys[i]):
            return False, "batch/scalar disagreement"
    if dt > scale_budget:
        return False, f"scale round trips took {dt:.2f}s > {scale_budget}s"
    return True, f"endpoints match; owp exhaustive at n={owp_bits}; 10^4 round trips at n={scale_bits} in {dt:.2f}s"


# -- criterion 8 --------------------------------------------------------------------

@_timed("CRIT-08 sparse trigger template")
def crit08_trigger(n: int = 10, t_bits: int = 4) -> tuple[bool, str]:
    wid = opprp.TriggerWidths(in_bits=n, k0_bits=n, w1_bits=0, t_bits=t_bits,
                              k1_bits=n, w4_bits=n)
    k0 = nsprp.make_prp_key(_seed(80_000), 1 << n)
    k1 = nsprp.make_prp_key(_seed(80_001), 1 << n)
    p0 = lambda x: (x, 0)
    p1 = lambda w1, w2: (w2, w2)
    p1_alt = lambda w1, w2: (w2 ^ ((1 << (n - t_bits)) - 1), w2)
    p2 = lambda x3, w4: x3
    prog = lambda iv: opprp.triggered_program(k0, k1, wid, p0, p1, p1_alt, p2, iv)
    base = [prog((0, 0))(x) for x in range(1 << n)]
    untrig = opprp.triggered_program(k0, k1, wid, p0, p1, p1, p2, (0, 0))
    if base != [untrig(x) for x in range(1 << n)]:
        return False, "empty interval changed the program"
    full = prog((0, 1 << t_bits))
    allalt = opprp.triggered_program(k0, k1, wid, p0, p1_alt, p1_alt, p2, (0, 0))
    if [full(x) for x in range(1 << n)] != [allalt(x) for x in range(1 << n)]:
        return False, "full interval != always-fired variant"
    a = 5
    one = prog((a, a + 1))
    diverge = sum(1 for x in range(1 << n) if one(x) != base[x])
    want = opprp.trigger_preimage_count(wid, (a, a + 1))
    if diverge != want:
        return False, f"diverging count {diverge} != preimage count {want}"
    return True, f"empty/full/width-1 intervals exact on all 2^{n} inputs"


# -- criterion 9 --------------------------------------------------------------------

@_timed("CRIT-09 hypergeometric", quick=dict(n_max=24))
def crit09_hypergeom(n_max: int = 64, kappa: int = 16) -> tuple[bool, str]:
    for n in range(0, n_max + 1):
        for s in range(0, n + 1):
            want = comb(n, s)
            for t in range(0, n + 1):
                p = hypergeom.HypergeomParams(n, t, s)
                total = sum(hypergeom.pmf_weight(p, x)[0] for x in p.support())
                if total != want:
                    return False, f"weights sum {total} != C({n},{s})"
    cases = [(4, 2, 2), (2, 1, 1), (12, 5, 7), (20, 10, 4)]
    worst = 0.0
    for (n, t, s) in cases:
        p = hypergeom.HypergeomParams(n, t, s)
        denom = comb(n, s)
        counts: dict[int, int] = {}
        prev = -1
        for r in range(1 << kappa):
            x = hypergeom.sample(p, r, kappa)
            if x < prev:
                return False, f"sampler not monotone at {(n, t, s)} r={r}"
            prev = x
            counts[x] = counts.get(x, 0) + 1
        tv = sum(abs(Fraction(counts.get(x, 0), 1 << kappa) - Fraction(*hypergeom.pmf_weight(p, x)))
                 for x in p.support()) / 2
        bound = Fraction(len(list(p.support())), 1 << kappa)
        worst = max(worst, float(tv))
        if tv > bound:
            return False, f"TV {float(tv):.2e} over bound at {(n, t, s)}"
        thresh = {x: c for (x, c) in hypergeom.sampler_thresholds(p, kappa)}
        if thresh != counts:
            return False, f"threshold table mismatch at {(n, t, s)}"
    return True, f"sums exact, N ≤ {n_max}; exhaustive-r TV ≤ bound (worst {worst:.1e})"


# -- criterion 10 --------------------------------------------------------------------

def _triple_checks(p_fn, p_inv_fn, d_fn, n: int, k: int,
                   coset_of: Callable[[int], gf2.AffineCoset]) -> Optional[str]:
    seen: dict = {}
    per_y: dict = {}
    for x in range(1 << n):
        y, u = p_fn(x)
        if (y, u.bits) in seen:
            return "P not injective"
        seen[(y, u.bits)] = x
        per_y.setdefault(y, set()).add(u.bits)
        if p_inv_fn(y, u) != x:
            return f"P^-1(P({x})) != {x}"
    for y, us in per_y.items():
        coset = coset_of(y)
        if us != {pt.bits for pt in coset.points()}:
            return f"image set at y={y} is not the declared coset"
        for ub in range(1 << k):
            if (ub in us) != (p_inv_fn(y, gf2.BitVector(ub, k)) is not None):
                return f"bottom/image boundary wrong at y={y}"
        if d_fn is not None:
            a = coset.basis
            kb = gf2.kernel_basis(a)
            span = {0}
            for j in range(kb.ncols):
                span |= {sp ^ kb.cols[j] for sp in span}
            accept = {vb for vb in range(1 << k) if d_fn(y, gf2.BitVector(vb, k))}
            if accept != span:
                return f"D acceptance != kernel at y={y}"
    return None


@_timed("CRIT-10 OSS oracle triple", budget=120)
def crit10_oss_triple() -> tuple[bool, str]:
    params = OssParams.tiny(8, 4, 8)
    inst = oss_mod.oss_gen(params, _seed(90_000))
    err = _triple_checks(lambda x: oss_mod.oss_p(inst, x),
                         lambda y, u: oss_mod.oss_p_inv(inst, y, u),
                         lambda y, v: oss_mod.oss_d(inst, y, v),
                         8, 8, inst.coset)
    if err:
        return False, "base: " + err
    sr = oss_mod.self_reduce(inst, _seed(90_001))
    err = _triple_checks(lambda x: oss_mod.oss_p(sr.instance, x),
                         lambda y, u: oss_mod.oss_p_inv(sr.instance, y, u),
                         lambda y, v: oss_mod.oss_d(sr.instance, y, v),
                         8, 8, sr.instance.coset)
    if err:
        return False, "self-reduced: " + err
    # planted collision back-maps
    y0 = oss_mod.oss_hash(sr.instance, 3)
    x1 = next(x for x in range(256) if x != 3 and oss_mod.oss_hash(sr.instance, x) == y0)
    if oss_mod.oss_hash(inst, sr.back_map(3)) != oss_mod.oss_hash(inst, sr.back_map(x1)):
        return False, "collision back-map failed"
    prev_counts = None
    for s in (0, 1, 2, 4):
        dp = oss_mod.bloat_dual(inst, s)
        counts = []
        for y in range(16):
            acc_d = [v for v in range(256) if oss_mod.oss_d(inst, y, gf2.BitVector(v, 8))]
            acc_dp = {v for v in range(256) if dp(y, gf2.BitVector(v, 8))}
            if not set(acc_d) <= acc_dp:
                return False, f"bloat not a superset at s={s} y={y}"
            if len(acc_dp) != len(acc_d) << s:
                return False, f"bloat ratio != 2^{s} at y={y}"
            counts.append(acc_dp)
        if prev_counts is not None:
            for y in range(16):
                if not prev_counts[y] <= counts[y]:
                    return False, f"bloat nesting violated at y={y}"
        prev_counts = counts
    return True, "exhaustive at (8,4,8): injectivity, cosets, kernel, self-reduction, nested bloat"


# -- criterion 11 --------------------------------------------------------------------

@_timed("CRIT-11 CPF embedding", budget=60)
def crit11_cpf_embedding() -> tuple[bool, str]:
    stream = prng.bit_stream(prng.PrfKey(_seed(91_000), b"2to1"), b"h")
    h = oss_mod.random_two_to_one(4, stream)
    q = oss_mod.cpf_from_two_to_one(h, 4, 2)
    emb = oss_mod.embed_cpf(q, 8, _seed(91_001))  # refuses a q that is no CPF
    real = oss_mod.realize_embedded(emb)
    err = _triple_checks(emb.p, emb.p_inv, None, 8, 8, real.coset)
    if err:
        return False, err
    for x in range(256):
        if oss_mod.oss_p(real, x) != emb.p(x):
            return False, "realized instance disagrees with the embedded pair"
    w0 = 9
    yq = q.evaluate(w0)
    w1 = next(w for w in range(256) if w != w0 and q.evaluate(w) == yq)
    x0, x1 = emb.gamma.inverse(w0), emb.gamma.inverse(w1)
    if emb.p(x0)[0] != emb.p(x1)[0]:
        return False, "planted collision does not collide in the embedding"
    if (emb.back_map(x0), emb.back_map(x1)) != (w0, w1):
        return False, "collision back-map through Gamma failed"
    return True, "random 2-to-1 at n=8, l=2 embeds validly; planted collisions round-trip"


# -- criterion 12 --------------------------------------------------------------------

@_timed("CRIT-12 LWE toy hash", budget=240, quick=dict(samples=500))
def crit12_lwe(samples: int = 10_000) -> tuple[bool, str]:
    """Inversion is complete and sound, claws reveal s, and the sampled
    2-to-1 fraction is within 4.5 binomial sigma of the trapdoor partner
    fraction prod_i (1 - |e_i|/(2B)) (lwehash.partner_fraction, checked on
    INSECURE_DEMO keys only)."""
    p = lwehash.INSECURE_DEMO
    key_stream = prng.bit_stream(prng.PrfKey(_seed(92_000), b"lwe"), b"kg")
    qk, qtd = lwehash.hashq_keygen(p, 2, key_stream)
    pk, td = qk.pks[0], qtd.tds[0]
    pts = prng.bit_stream(prng.PrfKey(_seed(92_001), b"lwe"), b"pts")
    for i in range(200):
        x = pts.bits(p.domain_bits)
        t, f, b = lwehash.unpack_domain(p, x)
        y = lwehash.hashl_eval(pk, t, f, b)
        pre = lwehash.hashl_invert(pk, y)
        if not any((pt == t).all() and (pf == f).all() and pb == b for pt, pf, pb in pre):
            return False, f"inversion missed a constructed preimage (#{i})"
        for pt, pf, pb in pre:
            if not (lwehash.hashl_eval(pk, pt, pf, pb) == y).all():
                return False, "inversion returned a non-preimage"
    # claw extraction through a constructed hashQ collision
    sl0, sl1 = [], []
    for i in range(qk.slices):
        ti = np.array([pts.bits(p.lq) for _ in range(p.u)], dtype=np.int64)
        fi = qtd.tds[i].e.copy()
        sl0.append(lwehash.pack_domain(p, ti, fi, 0))
        sl1.append(lwehash.pack_domain(p, (ti - qtd.tds[i].s) % p.q,
                                       lwehash.centered_mod(fi - qtd.tds[i].e, 2 * p.B), 1))
    w0, w1 = lwehash._join_input(qk, sl0), lwehash._join_input(qk, sl1)
    if w0 == w1 or lwehash.hashq_eval(qk, w0) != lwehash.hashq_eval(qk, w1):
        return False, "constructed collision does not collide"
    for i in range(qk.slices):
        t0v, _, _ = lwehash.unpack_domain(p, sl0[i])
        t1v, _, _ = lwehash.unpack_domain(p, sl1[i])
        if not ((t0v - t1v) % p.q == qtd.tds[i].s % p.q).all():
            return False, f"claw extraction missed s_{i}"
    frac = lwehash.measure_two_to_one_fraction(pk, samples,
                                               prng.bit_stream(prng.PrfKey(_seed(92_002), b"lwe"), b"fr"))
    exact = lwehash.partner_fraction(p, td)
    tol = 4.5 * math.sqrt(exact * (1 - exact) / samples)
    if abs(frac - exact) > tol:
        return False, f"2-to-1 fraction {frac:.3f} is {abs(frac - exact):.4f} from {exact:.4f} (> 4.5σ = {tol:.4f})"
    return True, (f"inversion complete; claws reveal s_i; fraction {frac:.3f} within 4.5σ of "
                  f"{exact:.4f} ({samples} samples)")


# -- criterion 13 --------------------------------------------------------------------

@_timed("CRIT-13 non-collapsing gap", budget=30)
def crit13_noncollapsing() -> tuple[bool, str]:
    inst = oss_mod.oss_gen(OssParams.tiny(6, 3, 6), _seed(93_000))
    partial = qsim.noncollapsing_experiment(inst, "partial")
    full = qsim.noncollapsing_experiment(inst, "full")
    if abs(partial - 1.0) > 1e-9:
        return False, f"partial branch {partial!r} != 1.0"
    if abs(full - 0.125) > 1e-12:
        return False, f"full branch {full!r} != 0.125"
    gap = partial - full
    if abs(gap - (1 - 2.0 ** -3)) > 1e-9:
        return False, f"gap {gap!r} != 1 - 2^-3"
    return True, f"partial={partial:.12f}, full={full:.12f} at (6,3,6), exact mode"


# -- criterion 14 --------------------------------------------------------------------

@_timed("CRIT-14 sign/verify demo", budget=120, quick=dict(trials=100))
def crit14_sign_verify(trials: int = 1000) -> tuple[bool, str]:
    inst = oss_mod.oss_gen(OssParams.tiny(8, 4, 8), _seed(94_000))
    rng = np.random.default_rng(424242)
    for i in range(trials):
        m = i & 1
        sig = qsim.oss_sign_demo(inst, m, rng)
        if not qsim.oss_verify_demo(inst, sig.y, m, sig.x):
            return False, f"honest signature rejected (#{i})"
        if qsim.oss_verify_demo(inst, sig.y, 1 - m, sig.x):
            return False, f"wrong-bit forgery accepted (#{i})"
        bad_x = sig.x ^ 1
        if qsim.oss_verify_demo(inst, sig.y, m, bad_x) and oss_mod.oss_hash(inst, bad_x) != sig.y:
            return False, f"wrong-hash forgery accepted (#{i})"
    return True, f"{trials} honest signatures verify; forgeries reject"


# -- criterion 15 lives in the CLI test (subprocess byte comparison) -------------------

def run_all(level: str = "full") -> list[CheckResult]:
    return [run(**(quick if level == "quick" else {})) for run, quick in _SUITES]
