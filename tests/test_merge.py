import numpy as np
import pytest

from ossprim import merge, permdecomp as pd, prng
from ossprim.errors import ContractError, DimensionError, InvariantViolation, RangeError, UnsupportedBackend


def key(n0, n1, tag=0, **kw):
    return merge.make_merge_key(bytes([tag % 256]) * 32, n0, n1, **kw)


def materialize_leaves(k):
    return [merge.merge_inverse(k, z)[0] for z in range(k.n)]


def test_root_tally_is_n1():
    for (n0, n1) in [(4, 4), (3, 5), (7, 0), (0, 2)]:
        assert merge.tally(key(n0, n1), 1) == n1


def test_no_right_pile_is_identity():
    k = key(6, 0)
    for node_z in range(6):
        assert merge.merge_inverse(k, node_z) == (0, node_z)
        assert merge.merge_forward(k, 0, node_z) == node_z
    assert all(merge.tally(k, 0b10 | b) == 0 for b in (0, 1))


def test_no_left_pile_is_identity_on_right():
    k = key(0, 5)
    for z in range(5):
        assert merge.merge_inverse(k, z) == (1, z)
        assert merge.merge_forward(k, 1, z) == z


def test_two_leaf_enumeration():
    # one PRF draw decides between the two possible (1,1)-merges
    seen = set()
    for tag in range(40):
        k = key(1, 1, tag)
        leaves = (merge.tally(k, 0b10), merge.tally(k, 0b11))
        assert leaves in {(0, 1), (1, 0)}
        seen.add(leaves)
    assert seen == {(0, 1), (1, 0)}


def test_inverse_matches_bruteforce_reconstruction():
    for tag in range(5):
        k = key(4, 4, tag)
        leaves = materialize_leaves(k)
        assert sum(leaves) == 4
        for z in range(8):
            b = leaves[z]
            rank = sum(1 for zz in range(z) if leaves[zz] == b)
            assert merge.merge_inverse(k, z) == (b, rank)


def test_round_trip_and_order_sweep():
    for n in range(1, 65):
        k = key(n // 3, n - n // 3, tag=n)
        perm = merge.merge_perm(k)
        table = perm.table()
        assert sorted(table) == list(range(n))
        piles = [table[: k.n0], table[k.n0 :]]
        for pile in piles:
            assert pile == sorted(pile)
        for z in range(n):
            assert table[perm.inverse(z)] == z


def merge_forward_bsearch(k, b, x):
    """Forward evaluation by binary search over the inverse (cross-check)."""
    lo, hi = 0, k.n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        bm, xm = merge.merge_inverse(k, mid)
        # count of pile-b elements at outputs <= mid
        cnt = xm + 1 if bm == b else mid - xm
        if cnt > x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_forward_matches_binary_search():
    k = key(9, 7, tag=3)
    for b in (0, 1):
        for x in range(k.n1 if b else k.n0):
            assert merge.merge_forward(k, b, x) == merge_forward_bsearch(k, b, x)


def test_range_errors():
    k = key(3, 3)
    with pytest.raises(RangeError):
        merge.merge_inverse(k, 6)
    with pytest.raises(RangeError):
        merge.merge_forward(k, 0, 3)


def test_a_node_below_a_leaf_is_outside_the_tree():
    # a leaf has no children, not even the left one, which has its leaf count
    k = key(1, 1)
    for node in (0b100, 0b101, 0b110, 0b111, 0b100000):
        with pytest.raises(RangeError, match="node outside the tree"):
            merge.span(2, node)
        with pytest.raises(RangeError, match="node outside the tree"):
            merge.tally(k, node)
    assert set(k._values) <= {0b10, 0b11}


@pytest.mark.parametrize("node", [0, -1, -6])
def test_an_int_below_one_is_no_tally_node(node):
    # node 0 would otherwise read as the root: span(6, 0) would be (0, 6)
    for refused in [lambda: merge.tally(key(3, 3), node), lambda: merge.span(6, node)]:
        with pytest.raises(DimensionError, match=f"tree node {node} is not a heap index"):
            refused()


def test_parent_consistency_exact():
    k = key(9, 11, tag=5)
    for depth in range(1, 4):
        for path in range(1 << (depth - 1)):
            parent = 1 << (depth - 1) | path
            try:
                merge.span(k.n, parent << 1)
            except RangeError:
                continue
            assert merge.tally(k, parent) == (
                merge.tally(k, parent << 1) + merge.tally(k, parent << 1 | 1))


# -- key permutation ------------------------------------------------------------

def test_permute_legality_matches_piles():
    for tag in range(4):
        k = key(5, 6, tag)
        for z in range(k.n - 1):
            same = merge.merge_inverse(k, z)[0] == merge.merge_inverse(k, z + 1)[0]
            assert (merge.merge_permute(k, z, 0) is None) == same


def test_permuted_eval_c0_and_c1_exhaustive():
    for tag in range(3):
        for (n0, n1) in [(4, 4), (3, 5), (6, 2)]:
            k = key(n0, n1, tag + 9)
            base = merge.merge_perm(k).table()
            for z in range(k.n - 1):
                for c in (0, 1):
                    pmk = merge.merge_permute(k, z, c)
                    if pmk is None:
                        continue
                    perm = merge.merge_perm(pmk)
                    got = perm.table()
                    want = [pd._tau(k.n, z, w) for w in base] if c else base
                    assert got == want
                    for zz in range(k.n):
                        assert got[perm.inverse(zz)] == zz


def test_hardcoded_set_is_paths_plus_siblings():
    k = key(8, 8, tag=2)
    z = next(z for z in range(15)
             if merge.merge_inverse(k, z)[0] != merge.merge_inverse(k, z + 1)[0])
    pmk = merge.merge_permute(k, z, 0)
    path_nodes = set(merge._path_nodes(16, z)) | set(merge._path_nodes(16, z + 1))
    expected = set(path_nodes)
    for nd in path_nodes:
        if nd > 1:
            expected.add(nd ^ 1)
    assert set(pmk.hardcoded) == expected
    punctured = set(pmk.punctured.punctured)
    leaves = {merge._path_nodes(16, z)[-1], merge._path_nodes(16, z + 1)[-1]}
    assert punctured == path_nodes - leaves


def test_c_flip_changes_exactly_leaves_and_disjoint_chains():
    k = key(8, 8, tag=4)
    z = next(z for z in range(15)
             if merge.merge_inverse(k, z)[0] != merge.merge_inverse(k, z + 1)[0])
    p0 = merge.merge_permute(k, z, 0)
    p1 = merge.merge_permute(k, z, 1)
    changed = {nd for nd in p0.hardcoded if p0.hardcoded[nd] != p1.hardcoded[nd]}
    leaf0 = merge._path_nodes(16, z)[-1]
    leaf1 = merge._path_nodes(16, z + 1)[-1]
    assert leaf0 in changed and leaf1 in changed
    # the changed set splits into the two disjoint ancestor chains below the
    # common ancestor; each chain's values move by exactly +-1
    for nd in changed:
        assert (leaf0 >> (leaf0.bit_length() - nd.bit_length()) == nd) != (
            leaf1 >> (leaf1.bit_length() - nd.bit_length()) == nd)
        assert abs(p0.hardcoded[nd] - p1.hardcoded[nd]) == 1


def test_permuted_parent_consistency():
    k = key(8, 8, tag=6)
    z = next(z for z in range(15)
             if merge.merge_inverse(k, z)[0] != merge.merge_inverse(k, z + 1)[0])
    for c in (0, 1):
        pmk = merge.merge_permute(k, z, c)
        hard = pmk.hardcoded
        for nd, v in hard.items():
            c0, c1 = nd << 1, nd << 1 | 1
            if c0 in hard and c1 in hard:
                assert v == hard[c0] + hard[c1]


def test_permuted_key_never_consults_punctured_nodes():
    k = key(8, 8, tag=7)
    z = next(z for z in range(15)
             if merge.merge_inverse(k, z)[0] != merge.merge_inverse(k, z + 1)[0])
    pmk = merge.merge_permute(k, z, 1)
    for zz in range(16):
        merge.permuted_merge_inverse(pmk, zz)  # must not raise
    # corrupting the hard-coded table exposes the invariant violation
    broken = dict(pmk.hardcoded)
    victim = next(nd for nd in broken if nd.bit_length() == 2)
    del broken[victim]
    bad = merge.PermutedMergeKey(pmk.punctured, broken, pmk.z, pmk.c, pmk.n0, pmk.n1)
    with pytest.raises(InvariantViolation):
        for zz in range(16):
            merge.permuted_merge_inverse(bad, zz)


def test_permuted_serialization_round_trip():
    # a deserialized key rebuilds its memos from the parsed table and copath
    for tag, (n0, n1) in enumerate([(4, 4), (3, 4), (5, 6)], start=8):
        k = key(n0, n1, tag)
        base = merge.merge_perm(k).table()
        for z in range(k.n - 1):
            for c in (0, 1):
                pmk = merge.merge_permute(k, z, c)
                if pmk is None:
                    continue
                perm = merge.merge_perm(pmk)
                back = merge.merge_perm(merge.deserialize_permuted(merge.serialize_permuted(pmk)))
                want = [pd._tau(k.n, z, w) for w in base] if c else base
                assert back.table() == perm.table() == want
                for zz in range(k.n):
                    assert want[back.inverse(zz)] == zz == want[perm.inverse(zz)]


def test_permute_refuses_a_permuted_key():
    k = key(4, 4, tag=9)
    z = next(z for z in range(7) if merge.merge_inverse(k, z)[0] != merge.merge_inverse(k, z + 1)[0])
    with pytest.raises(ContractError, match="honest key"):
        merge.merge_permute(merge.merge_permute(k, z, 1), z, 1)


def test_permute_requires_exact_sampler():
    k = merge.make_merge_key(b"\x01" * 32, 8, 8, backend=prng.BACKEND_FASTMIX)
    with pytest.raises(UnsupportedBackend):
        merge.merge_permute(k, 0, 0)


# -- decomposition ----------------------------------------------------------------

def test_decompose_identity_when_no_right_pile():
    assert list(merge.merge_decompose(key(5, 0))) == []


def _decompose_keys():
    """Honest keys of several shapes, and a permuted key."""
    shapes = [(2, 2), (4, 4), (3, 5), (5, 3), (1, 6), (6, 1), (1, 1), (7, 9)]
    keys = [key(n0, n1, tag + 20) for tag, (n0, n1) in enumerate(shapes)]
    k = keys[-1]
    z = next(z for z in range(k.n - 1) if merge.merge_inverse(k, z)[0] != merge.merge_inverse(k, z + 1)[0])
    return keys + [merge.merge_permute(k, z, 1)]


def test_decompose_composes_and_intermediates_order_preserving():
    for k in _decompose_keys():
        n0, n1, n = k.n0, k.n1, k.n
        cur = list(range(n))
        steps = 0
        for st in merge.merge_decompose(k):
            cur = [pd._tau(n, st.z, v) for v in cur]
            steps += 1
            got = [st.forward(e) for e in range(n)]
            assert got == cur
            for zz in range(n):
                assert cur[st.inverse(zz)] == zz
            for f in (st.forward, st.inverse):
                for v in (-1, n):
                    with pytest.raises(RangeError):
                        f(v)
            # order preservation of the intermediate within each pile
            assert got[:n0] == sorted(got[:n0])
            assert got[n0:] == sorted(got[n0:])
        assert cur == merge.merge_perm(k).table()
        assert steps <= n1 * n


def test_step_evaluation_walks_the_tree_at_most_once(monkeypatch):
    walks = []
    for name in ("merge_forward", "merge_inverse"):
        real = getattr(merge, name)
        monkeypatch.setattr(merge, name, lambda *a, real=real: walks.append(a) or real(*a))
    for k in _decompose_keys():
        for st in merge.merge_decompose(k):
            for f in (st.forward, st.inverse):
                for v in range(k.n):
                    walks.clear()
                    f(v)
                    assert len(walks) <= 1, (k.n0, k.n1, st.z, v)


def test_decompose_small_schedule_bound():
    k = key(2, 2, tag=30)
    assert sum(1 for _ in merge.merge_decompose(k)) <= 4


# -- gauss scale path ----------------------------------------------------------------

def test_merge_key_serialization_round_trip():
    k = key(9, 7, tag=31)
    back = merge.deserialize_key(merge.serialize_key(k))
    assert [merge.merge_inverse(back, z) for z in range(16)] == \
        [merge.merge_inverse(k, z) for z in range(16)]


@pytest.mark.parametrize("n0, n1", [(1 << 64, 3), (3, 1 << 64)])
def test_key_serialization_refuses_a_pile_above_64_bits(n0, n1):
    k = merge.make_merge_key(b"\x01" * 32, n0, n1, backend=prng.BACKEND_FASTMIX)
    with pytest.raises(RangeError, match="64-bit"):
        merge.serialize_key(k)


def test_one_point_supports_draw_no_coins(monkeypatch):
    # full tables of exact keys and of a permuted key: a tally whose support
    # is one point takes it without sampling, and each sample hashes its
    # coins once
    samples, coins = [], []
    real_sample, real_coins = merge.sample, merge._prf_r_exact

    def spy_sample(p, r, *args):
        samples.append(p)
        return real_sample(p, r, *args)

    def spy_coins(k, parent_key):
        coins.append(parent_key)
        return real_coins(k, parent_key)

    monkeypatch.setattr(merge, "sample", spy_sample)
    monkeypatch.setattr(merge, "_prf_r_exact", spy_coins)
    keys = [key(n0, n1, tag=60 + i) for i, (n0, n1) in enumerate([(4, 4), (3, 5), (6, 2), (1, 7), (0, 5), (9, 14)])]
    z = next(z for z in range(22) if merge.merge_inverse(keys[-1], z)[0] != merge.merge_inverse(keys[-1], z + 1)[0])
    keys.append(merge.merge_permute(keys[-1], z, 1))
    for k in keys:
        perm = merge.merge_perm(k)
        table = perm.table()
        assert sorted(table) == list(range(k.n))
        for e, out in enumerate(table):
            assert perm.inverse(out) == e
    assert samples and len(coins) == len(samples)
    assert all(p.support_max > p.support_min for p in samples)


def test_gauss_scalar_agrees_with_batch_merge():
    import numpy as np

    from ossprim import fastpath

    k = merge.make_merge_key(b"\x23" * 32, 1 << 15, 1 << 15,
                             backend=prng.BACKEND_FASTMIX)
    k0w = k.prf_key.fast_words()[0]
    zs = np.array([0, 1, 12345, 65535, 40000], dtype=np.uint64)
    mctx = np.full_like(zs, np.uint64(k.fast_ctx))
    bs, xs = fastpath.merge_inverse_batch(mctx, np.uint64(k0w), 16, zs)
    for i, z in enumerate(zs):
        assert merge.merge_inverse(k, int(z)) == (int(bs[i]), int(xs[i]))


_GOLD = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _zero_r_ctx(k0, depth, path):
    # mix64 of an all-zero input is 0, so this context word gives r64 = 0 at
    # tree node (depth, path): ndtri(0) = -inf there
    return (depth * _GOLD ^ k0 * _GOLD ^ path) & _MASK


def _count_nan_prone(monkeypatch):
    """Count draws with var = 0 and u = 0 (t in {0, 2*half}, r64 < 2^11)."""
    from ossprim import fastpath

    seen = [0]
    draw = fastpath.gauss_draw_even

    def spy(half, t, r64):
        seen[0] += int((((t == 0) | (t == 2 * half)) & (r64 < 2048)).sum())
        return draw(half, t, r64)

    monkeypatch.setattr(fastpath, "gauss_draw_even", spy)
    return seen


def test_gauss_draws_raise_no_float_flags(monkeypatch):
    import warnings

    from ossprim import fastpath, nsprp

    nbits, k0 = 8, 0x0123456789ABCDEF
    zs = np.arange(1 << nbits, dtype=np.uint64)
    # each lane's last draw (depth nbits-1, path z >> 1) reads r64 = 0
    mctx = np.array([_zero_r_ctx(k0, nbits - 1, z >> 1) for z in range(1 << nbits)],
                    dtype=np.uint64)
    mk = key(1 << (nbits - 1), 1 << (nbits - 1), tag=40, backend=prng.BACKEND_FASTMIX)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        seen = _count_nan_prone(monkeypatch)
        b, x = fastpath.merge_inverse_batch(mctx, np.uint64(k0), nbits, zs)
        assert seen[0] > 0
        seen[0] = 0
        assert (fastpath.merge_forward_batch(mctx, np.uint64(k0), nbits, b, x) == zs).all()
        assert seen[0] > 0
        seen[0] = 0
        # the scalar route: a key whose context zeroes r64 at one leaf pair;
        # there t in {0, 2*half} leaves one feasible point, which _draw_left
        # returns before any float op
        kw = mk.prf_key.fast_words()[0]
        for p in range(1 << (nbits - 1)):
            pk = merge.MergeKey(mk.prf_key, mk.n0, mk.n1, _zero_r_ctx(kw, nbits - 1, p))
            for z in (2 * p, 2 * p + 1):
                assert merge.merge_forward(pk, *merge.merge_inverse(pk, z)) == z
        assert seen[0] == 0
        # PRP contexts are hashes of the key, so these walks run on ordinary lanes
        for bits in (1, 2, 8, 64):
            k = nsprp.make_scale_prp_key(b"\x44" * 32, bits)
            xs = np.arange(min(1 << bits, 256), dtype=np.uint64)
            assert (nsprp.prp_inverse_batch(k, nsprp.prp_forward_batch(k, xs)) == xs).all()
        # var = 0 and u = 0: t = 0 or t = 2*half leave one feasible point, lo
        for half in (1, 2, 3, 7, 1 << 10, 1 << 40):
            ts = np.array([0, 2 * half] * 3, dtype=np.uint64)
            rs = np.array([0, 0, 1, 1, 2047, 2047], dtype=np.uint64)
            lo = np.array([0, half] * 3, dtype=np.uint64)
            assert (fastpath.gauss_draw_even(half, ts, rs) == lo).all()
        # 2^64 - 1 rounds to m = 2^64 as a float, so var = 0 there too; the
        # draw is mu = 2^63, the window's top
        ts = np.array([0, _MASK], dtype=np.uint64)
        got = fastpath.gauss_draw_even(1 << 63, ts, np.zeros(2, dtype=np.uint64))
        assert got.tolist() == [0, 1 << 63]


def test_gauss_single_point_window_at_2_64():
    # n0 = 0: every tally is the whole node, and the root's t = 2^64 fits no u64
    k = key(0, 1 << 64, tag=43, backend=prng.BACKEND_FASTMIX)
    assert merge.merge_inverse(k, 5) == (1, 5)
    assert merge.merge_forward(k, 1, 5) == 5


def _old_gauss_draw_general(s, sl, t, r64):
    """The general stand-in as merge defined it, scipy imported per call."""
    from scipy.special import ndtri

    lo = max(0, t - (s - sl))
    hi = min(sl, t)
    if lo == hi:
        return lo
    u = (r64 >> 11) * (2.0 ** -53)
    mu = sl * t / s
    var = sl * t * (s - t) * (s - sl) / (s * s * max(s - 1, 1))
    val = mu + (var ** 0.5) * float(ndtri(u))
    if val != val:
        val = mu
    v = int(np.rint(max(val, 0.0)))
    return max(lo, min(hi, v))


def test_gauss_draw_general_matches_old_formula():
    from ossprim import fastpath

    rng = np.random.default_rng(13)
    sizes = [2, 3, 5, 7, 1001, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 80) + 12345, 1 << 80]
    sizes += [int(v) for v in rng.integers(2, 1 << 62, size=20)]
    sizes += [(int(v) << 20) | 1 for v in rng.integers(1 << 40, 1 << 62, size=20)]
    cases = 0
    for s in sizes:
        sl = merge.left_size(s)
        ts = {0, s, 1, s - 1, s // 2, int(rng.integers(0, 1 << 62)) % (s + 1)}
        for t in ts:
            randoms = [int(v) for v in rng.integers(0, 1 << 63, size=24, dtype=np.uint64) * 2 + 1]
            for r64 in [0, 1, 2047, 2048, _MASK] + randoms:
                assert fastpath.gauss_draw_general(s, sl, t, r64) == _old_gauss_draw_general(s, sl, t, r64)
                cases += 1
    assert cases > 5000


def _ndtri_inputs():
    """Seeded quantile inputs in [0, 1], each an exact float built from integers."""
    rng = np.random.default_rng(19)
    u = rng.integers(0, 1 << 53, size=100_000, dtype=np.uint64) * 2.0 ** -53
    ends = np.array([0.0, 1.0, 0.5, 2.0 ** -53, 1 - 2.0 ** -53, 2.0 ** -1022, 5e-324])
    # exp(-2) splits the central branch from the tails, exp(-32) the two tail
    # approximations; 3,000 ulp steps either side of each
    splits = np.array([0.1353352832366127, 1 - 0.1353352832366127,
                       1.2664165549094176e-14, 1 - 1.2664165549094176e-14])
    steps = (splits.view(np.int64)[:, None] + np.arange(-3000, 3001)).ravel().view(np.float64)
    m = 1 + rng.integers(0, 1 << 52, size=20_000, dtype=np.uint64) * 2.0 ** -52
    tails = np.ldexp(m, -rng.integers(3, 1075, size=20_000))  # down to subnormals
    upper = 1 - np.ldexp(m[:5000], -rng.integers(3, 54, size=5000))
    return np.concatenate([u, ends, steps[steps <= 1.0], tails, upper])


def _f64_digest(values):
    import hashlib

    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


# sha256 of scipy.special.ndtri (scipy 1.17.1) over _ndtri_inputs(), recorded
# while fastpath.ndtri was still that ufunc
NDTRI_SHA256 = "cd5c05dcc174b5ddae7d5ff246bba9c226158ad20c05bf9f69b8e437d014d481"


def test_ndtri_matches_scipy_bit_for_bit():
    from scipy.special import ndtri as scipy_ndtri

    from ossprim import fastpath

    xs = _ndtri_inputs()
    want = scipy_ndtri(xs)
    assert _f64_digest(want) == NDTRI_SHA256
    got = np.array([fastpath.ndtri(v) for v in xs.tolist()])
    assert _f64_digest(got) == NDTRI_SHA256
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gauss_draw_one_lane_matches_batch():
    from ossprim import fastpath

    rng = np.random.default_rng(20)
    for half in (1, 2, 1 << 20, 1 << 62, 1 << 63):
        top = min(2 * half, _MASK)  # 2^64 fits no u64 lane
        ts = [0, top, 0, top, half, 1, top - 1] + [int(v) % (top + 1) for v in
                                                   rng.integers(0, 1 << 63, size=40, dtype=np.uint64)]
        # r64 < 2^11 makes u = 0, where ndtri gives -inf and the -1e30 floor applies
        rs = [0, 0, 2047, 2047, 0, 1, 2048] + [int(v) for v in
                                              rng.integers(0, 1 << 63, size=40, dtype=np.uint64) * 2 + 1]
        t = np.array(ts, dtype=np.uint64)
        r = np.array(rs, dtype=np.uint64)
        batch = fastpath.gauss_draw_even(half, t, r)
        for i in range(len(t)):
            assert fastpath.gauss_draw_even(half, t[i:i + 1], r[i:i + 1])[0] == batch[i]


def test_gauss_large_domain_batch_throughput():
    # 10^4 merge round trips at N = 2^64 against the 1s-per-10^3 budget
    import time

    import numpy as np

    from ossprim import fastpath

    k = merge.make_merge_key(b"\x24" * 32, 1 << 63, 1 << 63,
                             backend=prng.BACKEND_FASTMIX)
    k0w = np.uint64(k.prf_key.fast_words()[0])
    rng = np.random.default_rng(8)
    zs = rng.integers(0, 1 << 63, size=10_000, dtype=np.uint64)
    mctx = np.full_like(zs, np.uint64(k.fast_ctx))
    fastpath.merge_inverse_batch(mctx[:4], k0w, 64, zs[:4])  # warm dispatch
    t0 = time.monotonic()
    bs, xs = fastpath.merge_inverse_batch(mctx, k0w, 64, zs)
    back = fastpath.merge_forward_batch(mctx, k0w, 64, bs, xs)
    dt = time.monotonic() - t0
    assert (back == zs).all()
    assert dt < 10.0  # < 1 s per 10^3 points
    # spot agreement with the scalar key route
    for i in (0, 17, 6000):
        assert merge.merge_inverse(k, int(zs[i])) == (int(bs[i]), int(xs[i]))


def test_gauss_round_trip_large_domain():
    k = merge.make_merge_key(b"\x21" * 32, 1 << 39, 1 << 39,
                             backend=prng.BACKEND_FASTMIX)
    rng = np.random.default_rng(5)
    for z in rng.integers(0, 1 << 40, size=50):
        b, x = merge.merge_inverse(k, int(z))
        assert merge.merge_forward(k, b, x) == int(z)


def test_gauss_parent_consistency_at_2_40():
    k = merge.make_merge_key(b"\x22" * 32, 1 << 39, 1 << 39,
                             backend=prng.BACKEND_FASTMIX)
    rng = np.random.default_rng(6)
    for _ in range(25):
        depth = int(rng.integers(0, 39))
        path = int(rng.integers(0, 1 << depth)) if depth else 0
        parent = 1 << depth | path
        v = merge.tally(k, parent)
        assert v == merge.tally(k, parent << 1) + merge.tally(k, parent << 1 | 1)
        assert 0 <= v <= merge.span(k.n, parent)[1]


def test_exact_merge_keys_stop_at_2_20_points():
    assert key(1 << 19, 1 << 19).n == 1 << 20
    with pytest.raises(ContractError, match=r"exact keys cover at most 2\^20 points, not 1048577"):
        key(1 << 20, 1)
    assert key(1 << 20, 1, backend=prng.BACKEND_FASTMIX).fast_ctx is not None
