"""The five closed-loop workloads: one client, one op at a time, no threads.

Every input is generated here from ``(workload, seed, op index)``, so op ``i``
at a given seed is the same whatever ran before it; the library receives only
the generated keys, points and vectors.  Domain sizes are the one input
that is not seeded: they follow a fixed golden-ratio schedule over their
range, so every run covers the range evenly in the same order.  The cost of
an op grows steeply with N (a cold 2^16 key costs a hundred 2^12 ones), so a
seeded size mix would make a 20 s run measure the seed's luck, not the
program.  The seed picks every key, point, swap position and vector.

Each op returns ``(evals, ok, payload)``: point evaluations completed (a
forward eval, an inverse eval and one oracle query each count as one), the
result of the op's structural checks, and the bytes its golden digest covers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ossprim import gf2, nsprp, oss

_PHI = (5 ** 0.5 - 1) / 2


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def _spread(i: int) -> float:
    """Point i in [0, 1) of the golden-ratio (low-discrepancy) sequence."""
    return (i * _PHI) % 1.0


def _payload(*parts) -> bytes:
    return repr(parts).encode()


def _tau(z: int, w: int) -> int:
    """The neighbor swap (z z+1) applied to w."""
    return z + 1 if w == z else z if w == z + 1 else w


# -- prp-exact-small ------------------------------------------------------------

@dataclass
class SmallState:
    seed: int


def small_setup(seed: int) -> SmallState:
    k = nsprp.make_prp_key(_rng("prp-exact-small", seed, "warm").randbytes(32), 8)
    nsprp.prp_inverse(k, nsprp.prp_forward(k, 3))
    return SmallState(seed)


def small_op(st: SmallState, i: int):
    n = 2 + int(255 * _spread(i))
    k = nsprp.make_prp_key(_rng("prp-exact-small", st.seed, i).randbytes(32), n)
    img = [nsprp.prp_forward(k, x) for x in range(n)]
    inv = [nsprp.prp_inverse(k, z) for z in range(n)]
    ok = sorted(img) == list(range(n)) and all(inv[img[x]] == x for x in range(n))
    return 2 * n, ok, _payload(n, img, inv)


# -- prp-exact-large ------------------------------------------------------------

LARGE_GROUP = 16  # ops per key: the first of each group pays the root draw


@dataclass
class LargeState:
    seed: int
    group: int = -1
    key: object = None


def large_setup(seed: int) -> LargeState:
    return LargeState(seed)


def large_op(st: LargeState, i: int):
    g = i // LARGE_GROUP
    if g != st.group:
        n = int(2 ** (12 + 4 * _spread(g)))
        seed = _rng("prp-exact-large", st.seed, f"key{g}").randbytes(32)
        st.group, st.key = g, nsprp.make_prp_key(seed, n)
    k = st.key
    x = _rng("prp-exact-large", st.seed, i).randrange(k.n)
    y = nsprp.prp_forward(k, x)
    back = nsprp.prp_inverse(k, y)
    return 2, 0 <= y < k.n and back == x, _payload(k.n, x, y, back)


# -- prp-permuted ---------------------------------------------------------------

PERMUTED_POOL = 16


@dataclass
class PermutedState:
    seed: int
    keys: list  # (key, honest forward table)


def permuted_setup(seed: int) -> PermutedState:
    keys = []
    for j in range(PERMUTED_POOL):
        n = 4 + int(125 * _spread(j))
        k = nsprp.make_prp_key(_rng("prp-permuted", seed, f"key{j}").randbytes(32), n)
        keys.append((k, [nsprp.prp_forward(k, x) for x in range(n)]))
    return PermutedState(seed, keys)


def permuted_op(st: PermutedState, i: int):
    k, base = st.keys[i % PERMUTED_POOL]
    n = k.n
    r = _rng("prp-permuted", st.seed, i)
    z, c = r.randrange(n - 1), r.randrange(2)
    pk = nsprp.prp_permute(k, z, c)
    got = [nsprp.permuted_prp_forward(pk, x) for x in range(n)]
    back = [nsprp.permuted_prp_inverse(pk, w) for w in range(n)]
    want = [_tau(z, w) for w in base] if c else base
    ok = got == want and all(back[got[x]] == x for x in range(n))
    return 2 * n, ok, _payload(n, z, c, got, back)


# -- scale-batch ----------------------------------------------------------------

SCALE_LANES = 1024
SCALE_BITS = 64


@dataclass
class ScaleState:
    seed: int
    key: object


def scale_setup(seed: int) -> ScaleState:
    k = nsprp.make_scale_prp_key(_rng("scale-batch", seed, "key").randbytes(32), SCALE_BITS)
    nsprp.prp_forward_batch(k, np.arange(4, dtype=np.uint64))  # numpy dispatch warm-up
    return ScaleState(seed, k)


def scale_op(st: ScaleState, i: int):
    raw = _rng("scale-batch", st.seed, i).randbytes(8 * SCALE_LANES)
    xs = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
    ys = nsprp.prp_forward_batch(st.key, xs)
    back = nsprp.prp_inverse_batch(st.key, ys)
    ok = bool(np.array_equal(back, xs)) and len(np.unique(ys)) == len(np.unique(xs))
    return 2 * SCALE_LANES, ok, ys.astype("<u8").tobytes() + back.astype("<u8").tobytes()


# -- oss-paper ------------------------------------------------------------------

@dataclass
class OssState:
    seed: int
    inst: object


def oss_setup(seed: int) -> OssState:
    r = _rng("oss-paper", seed, "instance")
    inst = oss.oss_gen(oss.OssParams.paper_preset(2), r.randbytes(32))
    oss.oss_p(inst, r.getrandbits(inst.n))  # lazy scipy import and top-level memo
    return OssState(seed, inst)


def _dual_vector(a, r: random.Random) -> gf2.BitVector:
    """A seeded nonzero v with v^T a = 0 (a combination of kernel columns)."""
    ker = gf2.kernel_basis(a).cols
    pick = r.getrandbits(len(ker)) or 1
    bits = 0
    for j, col in enumerate(ker):
        if pick >> j & 1:
            bits ^= col
    return gf2.BitVector(bits, a.rows)


def oss_op(st: OssState, i: int):
    inst = st.inst
    r = _rng("oss-paper", st.seed, i)
    x = r.getrandbits(inst.n)
    y, u = oss.oss_p(inst, x)
    back = oss.oss_p_inv(inst, y, u)
    a, _ = inst.coset_source(y)
    d_dual = oss.oss_d(inst, y, _dual_vector(a, r))
    d_rand = oss.oss_d(inst, y, gf2.BitVector(r.getrandbits(inst.k), inst.k))
    ok = back == x and d_dual == 1
    return 4, ok, _payload(x, y, u.bits, back, d_dual, d_rand)


# -- the table ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    layer: str  # the layer meant to carry the largest self-time share
    # op_tail_ms percentile: the highest of 50/75/90/95/98/99 with at least
    # fifteen ops beyond it (ten plus margin) in the slowest of ten 20 s runs
    # at the baseline; scale-batch's 17-30 ops support only the median
    tail_pct: float
    golden_ops: int  # ops covered by golden digests at DEFAULT_SEED
    setup: Callable[[int], object]
    op: Callable[[object, int], tuple]


DEFAULT_SEED = 1

WORKLOADS = {w.name: w for w in (
    Workload("prp-exact-small", "prng", 90, 800, small_setup, small_op),
    Workload("prp-exact-large", "hypergeom", 95, 1600, large_setup, large_op),
    Workload("prp-permuted", "prng", 95, 2400, permuted_setup, permuted_op),
    Workload("scale-batch", "fastpath", 50, 80, scale_setup, scale_op),
    Workload("oss-paper", "fastpath", 75, 480, oss_setup, oss_op),
)}
