import hashlib
import random
import struct

import numpy as np
import pytest

from ossprim import merge, nsprp, permdecomp as pd, prng
from ossprim.errors import ContractError, RangeError, UnsupportedBackend
from ossprim.prng import PrfKey


def key(n, tag=0):
    return nsprp.make_prp_key(bytes([tag % 256]) * 32, n)


def table(k):
    return [nsprp.prp_forward(k, x) for x in range(k.n)]


def test_singleton_is_identity():
    assert nsprp.prp_forward(key(1), 0) == 0
    assert nsprp.prp_inverse(key(1), 0) == 0


def test_base_case_is_xor_with_key_bit():
    seen = set()
    for tag in range(24):
        k = key(2, tag)
        bit = nsprp.prp_forward(k, 0)
        assert nsprp.prp_forward(k, 1) == 1 - bit
        assert nsprp.prp_inverse(k, bit) == 0
        seen.add(bit)
    assert seen == {0, 1}


def test_bijection_exhaustive():
    for n in range(1, 65):
        t = table(key(n, n))
        assert sorted(t) == list(range(n))


def test_inverse_round_trip_sweep():
    for n in (1, 2, 3, 7, 31, 64, 100):
        k = key(n, n + 1)
        for x in range(n):
            assert nsprp.prp_inverse(k, nsprp.prp_forward(k, x)) == x


def test_range_errors():
    with pytest.raises(RangeError):
        nsprp.prp_forward(key(5), 5)
    with pytest.raises(RangeError):
        nsprp.prp_inverse(key(5), -1)


def test_permute_totality_and_correctness():
    for n in range(2, 33):
        k = key(n, n + 50)
        base = table(k)
        for z in range(n - 1):
            for c in (0, 1):
                pk = nsprp.prp_permute(k, z, c)  # never illegal
                got = [nsprp.permuted_prp_forward(pk, x) for x in range(n)]
                want = [pd._tau(z, w) for w in base] if c else base
                assert got == want
                for zz in range(n):
                    assert got[nsprp.permuted_prp_inverse(pk, zz)] == zz


def test_permute_base_case_flips_key_bit():
    k = key(2, 3)
    bit = nsprp.prp_forward(k, 0)
    pk = nsprp.prp_permute(k, 0, 1)
    assert nsprp.permuted_prp_forward(pk, 0) == 1 - bit


def test_decompose_composes_exhaustively():
    for n in (1, 2, 3, 4, 5, 8):
        k = key(n, n + 80)
        cur = list(range(n))
        for st in nsprp.prp_decompose(k):
            cur = [pd._tau(st.z, v) for v in cur]
            got = [st.forward(e) for e in range(n)]
            assert got == cur
            assert sorted(got) == list(range(n))  # every prefix is a bijection
            assert [st.inverse(z) for z in got] == list(range(n))
        assert cur == table(k)


def test_node_touches_polylog_bound():
    # visited tally nodes per evaluation, counted through the per-key caches
    bits = 10
    k = nsprp.make_prp_key(b"\x2b" * 32, 1 << bits)
    nsprp.prp_forward(k, 777)

    def count_nodes(pk) -> int:
        total = 0
        mk = pk._cache.get("merge")
        if mk is not None:
            total += len(mk._values)
        for b in (0, 1):
            child = pk._cache.get(("child", b))
            if child is not None:
                total += count_nodes(child)
        return total

    touches = count_nodes(k)
    assert touches <= 4 * bits * bits


def test_scale_key_round_trip_2_64():
    k = nsprp.make_scale_prp_key(b"\x2c" * 32, 64)
    rng = np.random.default_rng(11)
    xs = rng.integers(0, 1 << 62, size=1000, dtype=np.uint64)
    ys = nsprp.prp_forward_batch(k, xs)
    assert (nsprp.prp_inverse_batch(k, ys) == xs).all()


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name with a call counter; returns the one-item count list."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _cached_keys(k):
    """Every key reachable through the child caches, k first."""
    out = [k]
    for b in (0, 1):
        child = k._cache.get(("child", b))
        if child is not None:
            out += _cached_keys(child)
    return out


def test_scale_key_memos_stay_bounded(monkeypatch):
    # a small bound, so that 120 round trips fill the top merges many times
    monkeypatch.setattr(merge, "_MEMO_MAX", 1 << 8)
    monkeypatch.setattr(merge, "_MEMO_TOP", 1 << 6)
    k = nsprp.make_scale_prp_key(b"\x2e" * 32, 40)
    draws = _count_calls(monkeypatch, merge, "_draw_left")
    trims = _count_calls(monkeypatch, merge, "_trim")
    rng = np.random.default_rng(12)
    xs = [int(x) for x in rng.integers(0, 1 << 40, size=120, dtype=np.uint64)]
    ys = []
    for x in xs:
        ys.append(nsprp.prp_forward(k, x))
        before = draws[0]
        assert nsprp.prp_inverse(k, ys[-1]) == x
        assert draws[0] == before  # the way back reuses the forward walk's tallies
    assert trims[0] > 10
    for pk in _cached_keys(k):
        assert sum(("child", b) in pk._cache for b in (0, 1)) <= 1
        mk = pk._cache.get("merge")
        assert mk is None or len(mk._values) <= merge._MEMO_MAX
    fresh = nsprp.make_scale_prp_key(b"\x2e" * 32, 40)
    for x, y in list(zip(xs, ys))[:6]:
        assert nsprp.prp_forward(fresh, x) == nsprp.prp_forward(k, x) == y
        assert nsprp.prp_inverse(k, y) == x


def test_paper_width_round_trip_draws_once(monkeypatch):
    k = nsprp.make_scale_prp_key(b"\x2f" * 32, 80)
    draws = _count_calls(monkeypatch, merge, "_draw_left")
    x = 0x5DEECE66D_0123456789
    y = nsprp.prp_forward(k, x)
    assert draws[0] > 0
    draws[0] = 0
    assert nsprp.prp_inverse(k, y) == x
    assert draws[0] == 0


def test_scale_batch_matches_scalar():
    for bits, points in ((1, (0, 1)), (2, range(4)), (12, (0, 1, 77, 4095, 2048))):
        k = nsprp.make_scale_prp_key(b"\x2d" * 32, bits)
        xs = np.arange(1 << bits, dtype=np.uint64)
        ys = nsprp.prp_forward_batch(k, xs)
        assert sorted(ys.tolist()) == list(range(1 << bits))
        assert (nsprp.prp_inverse_batch(k, ys) == xs).all()
        for x in points:
            assert nsprp.prp_forward(k, x) == int(ys[x])
            assert nsprp.prp_inverse(k, int(ys[x])) == x


def test_batch_requires_fast_power_of_two():
    with pytest.raises(UnsupportedBackend):
        nsprp.prp_forward_batch(key(16), np.arange(4, dtype=np.uint64))


def scale_key16():
    return nsprp.make_scale_prp_key(b"\x41" * 32, 4)


def test_batch_rejects_point_above_domain():
    for batch in (nsprp.prp_forward_batch, nsprp.prp_inverse_batch):
        with pytest.raises(RangeError):
            batch(scale_key16(), np.array([3, 17], dtype=np.uint64))
        with pytest.raises(RangeError):
            batch(scale_key16(), [16])


def test_batch_rejects_negative_point():
    k = scale_key16()
    for batch in (nsprp.prp_forward_batch, nsprp.prp_inverse_batch):
        with pytest.raises(RangeError):
            batch(k, np.array([0, -1], dtype=np.int64))
    # signed lanes inside the domain are the same points as unsigned ones
    xs = np.arange(16, dtype=np.uint64)
    ys = nsprp.prp_forward_batch(k, xs)
    assert (nsprp.prp_forward_batch(k, xs.astype(np.int64)) == ys).all()
    assert (nsprp.prp_inverse_batch(k, ys.astype(np.int32)) == xs).all()


def test_batch_rejects_non_integer_points():
    for batch in (nsprp.prp_forward_batch, nsprp.prp_inverse_batch):
        with pytest.raises(RangeError):
            batch(scale_key16(), np.array([1.7]))
        with pytest.raises(RangeError):
            batch(scale_key16(), np.array([True]))


@pytest.mark.parametrize("bits", [65, 80])
def test_batch_rejects_domain_above_2_64(bits):
    k = nsprp.make_scale_prp_key(b"\x42" * 32, bits)
    for batch in (nsprp.prp_forward_batch, nsprp.prp_inverse_batch):
        with pytest.raises(UnsupportedBackend):
            batch(k, np.arange(4, dtype=np.uint64))


def test_batch_singleton_domain_is_identity():
    k = nsprp.make_scale_prp_key(b"\x43" * 32, 0)
    for batch in (nsprp.prp_forward_batch, nsprp.prp_inverse_batch):
        out = batch(k, np.zeros(3, dtype=np.int64))
        assert out.dtype == np.uint64 and out.tolist() == [0, 0, 0]
        with pytest.raises(RangeError):
            batch(k, [1])
    assert nsprp.prp_forward(k, 0) == nsprp.prp_inverse(k, 0) == 0


def test_batch_keeps_input_shape():
    k = scale_key16()
    ys = nsprp.prp_forward_batch(k, np.arange(16, dtype=np.uint64))
    block = nsprp.prp_forward_batch(k, np.arange(16).reshape(4, 4))
    assert block.shape == (4, 4) and (block.ravel() == ys).all()
    one = nsprp.prp_forward_batch(k, 5)
    assert one.shape == () and int(one) == int(ys[5])
    assert int(nsprp.prp_inverse_batch(k, one)) == 5


def test_permute_rejects_fastmix_key():
    # permuted keys are serialized without fastmix contexts, so every swap
    # of a fastmix key is rejected, same-pile swaps down to N = 2 included
    k = nsprp.make_scale_prp_key(b"\x41" * 32, 4)
    for z in range(k.n - 1):
        for c in (0, 1):
            with pytest.raises(UnsupportedBackend):
                nsprp.prp_permute(k, z, c)


def test_permute_refuses_a_permuted_key():
    # a permuted key's z and c name one swap, and its file holds one swap
    pk = nsprp.prp_permute(key(12, 7), 4, 1)
    with pytest.raises(ContractError, match="honest key"):
        nsprp.prp_permute(pk, 4, 1)


@pytest.mark.parametrize("bits", [65, 80])
def test_key_serialization_refuses_n_minus_1_above_64_bits(bits):
    with pytest.raises(RangeError, match="64-bit"):
        nsprp.serialize_key(nsprp.make_scale_prp_key(b"\x2f" * 32, bits))


def test_key_serialization_round_trip():
    for k in (key(20, 5), nsprp.make_scale_prp_key(b"\x2f" * 32, 16)):
        k2 = nsprp.deserialize_key(nsprp.serialize_key(k))
        for x in (0, 1, 7, k.n - 1):
            assert nsprp.prp_forward(k2, x) == nsprp.prp_forward(k, x)


def test_permuted_key_serialization_round_trip():
    cases = [(key(2, 6), 0, c) for c in (0, 1)] + [(key(3, 6), z, c) for z in (0, 1) for c in (0, 1)]
    cases += [(key(20, 6), z, c) for z in range(19) for c in (0, 1)]
    for k, z, c in cases:
        pk = nsprp.prp_permute(k, z, c)
        blob = nsprp.serialize_permuted_key(pk)
        back = nsprp.deserialize_permuted_key(blob)
        assert nsprp.serialize_permuted_key(back) == blob
        for x in range(k.n):
            assert nsprp.permuted_prp_forward(back, x) == nsprp.permuted_prp_forward(pk, x)
            assert nsprp.permuted_prp_inverse(back, x) == nsprp.permuted_prp_inverse(pk, x)


# sha256 over every permuted key's blob and tables for N = 2..40, re-pinned
# when the permuted-key files dropped c, node lists and length prefixes
PERMUTED_SHA256 = "18341162081eaf81bc035ca010c9d582c044482ffcc338d59f7e2049b390296b"


def test_permuted_keys_pinned_digest():
    h = hashlib.sha256()
    for n in range(2, 41):
        k = nsprp.make_prp_key(bytes([n]) * 32, n)
        for z in range(n - 1):
            for c in (0, 1):
                pk = nsprp.prp_permute(k, z, c)
                h.update(nsprp.serialize_permuted_key(pk))
                h.update(bytes(nsprp.permuted_prp_forward(pk, x) for x in range(n)))
                h.update(bytes(nsprp.permuted_prp_inverse(pk, x) for x in range(n)))
    assert h.hexdigest() == PERMUTED_SHA256


# sha256 over forward and inverse batches at eight widths, direct merge walks
# at nbits 16 and 64, and gaussian draws on edge (half, t, r64) triples,
# recorded before the lockstep step was rewritten in place
BATCH_SHA256 = "63cbe4771d8aa2de5a2e5ba853e8461c993e1673b411af0d19bc105018b9ea69"


def _permuted_key_bytes_bound(n):
    """The most bytes serialize_permuted_key writes for a key over n points,
    read off its wire format.

    The spine has at most d = ceil(log2 n) levels.  The derived keys at level
    i carry PRF tags of len(PRP_TAG) + 6(i + 1) bytes, one 6-byte "/label"
    per level.  Each level holds the honest child and merge keys; where the
    swap lands, the level holds the other child key and the permuted merge
    key instead.  Its tally tree over at most n points has depth <= d, so at
    most 2d copath seeds and 4d hard-coded tallies, each at most as wide as n.
    """
    d = (n - 1).bit_length()
    prf = lambda tag: 1 + 2 + tag + prng.SEED_LEN  # backend, u16 tag length, tag, seed
    sampler = 4 + 1  # u32 kappa, mode byte
    prp_key = lambda tag: 8 + sampler + prf(tag)  # u64 N-1
    merge_key = lambda tag: 16 + sampler + prf(tag)  # u64 n0, u64 n1
    head = lambda fmt: len(fmt.PERMUTED_MAGIC) + struct.calcsize(fmt.PERMUTED_HEAD)
    record = 2 + 3 * 4  # kind, flag and three u32 blob lengths
    tags = [len(nsprp.PRP_TAG) + 6 * (i + 1) for i in range(d)]
    spine = sum(record + prp_key(tag) + merge_key(tag) for tag in tags)
    permuted_merge = head(merge) + 2 * d * prng.SEED_LEN + 4 * d * ((n.bit_length() + 7) // 8)
    return head(nsprp) + spine + prp_key(tags[-1]) + permuted_merge


_widths = random.Random("permuted-widths")
# exact widths sampled log-uniformly from 2^7 to 2^16, with both ends, and 2^18
PERMUTED_WIDTHS = sorted({int(2 ** _widths.uniform(7, 16)) for _ in range(9)} | {1 << 7, 1 << 16, 1 << 18})


def test_permuted_keys_at_wide_exact_widths():
    # cold keys at each width: the permuted key walks its deep spine and N-bit hard-coded tallies
    rng = random.Random("permuted-wide")
    for i, n in enumerate(PERMUTED_WIDTHS):
        seed = rng.randbytes(32)
        k = nsprp.make_prp_key(seed, n)
        z = (0, n - 2)[i] if i < 2 else rng.randrange(n - 1)
        c = 1 if i < 2 else rng.randrange(2)
        pk = nsprp.prp_permute(nsprp.make_prp_key(seed, n), z, c)
        blob = nsprp.serialize_permuted_key(pk)
        assert len(blob) <= _permuted_key_bytes_bound(n), (n, len(blob))
        back = nsprp.deserialize_permuted_key(blob)
        xs = {nsprp.prp_inverse(k, z), nsprp.prp_inverse(k, z + 1), 0, n - 1}
        xs.update(rng.randrange(n) for _ in range(16))
        for x in xs:
            y = nsprp.prp_forward(k, x)
            want = pd._tau(z, y) if c else y
            assert nsprp.permuted_prp_forward(pk, x) == want, (n, z, c, x)
            assert nsprp.permuted_prp_inverse(pk, want) == x, (n, z, c, x)
            assert nsprp.permuted_prp_forward(back, x) == want
            assert nsprp.permuted_prp_inverse(back, want) == x


def _tally_section(n, z):
    """The length of the tally section that ends a permuted merge key file."""
    spans = merge.hardcoded_values(n, z, 0, lambda nd: merge.span(n, nd)[1])
    return sum((s.bit_length() + 7) // 8 for s in spans.values())


def _assert_c_hidden(blobs, tail):
    """The c = 0 and c = 1 blobs of one swap have one length and agree
    outside their last ``tail`` bytes."""
    b0, b1 = blobs
    assert len(b0) == len(b1) and b0[:-tail] == b1[:-tail]


def _swap_level(pk):
    """The level of a permuted PRP key where its swap lands: N = 2 or a permuted merge."""
    while pk.n > 2 and not isinstance(nsprp._merge_key(pk), merge.PermutedMergeKey):
        pk = next(ch for ch in (nsprp._child_key(pk, 0), nsprp._child_key(pk, 1))
                  if isinstance(ch, nsprp.PermutedPrpKey))
    return pk


def _assert_prp_c_hidden(k, z):
    pks = [nsprp.prp_permute(k, z, c) for c in (0, 1)]
    level = _swap_level(pks[0])
    # the last record is kind 0, whose flag and three empty blob lengths end
    # the file, or kind 1, whose permuted merge key ends it, tallies last
    tail = 13 if level.n == 2 else _tally_section(level.n, nsprp._merge_key(level).z)
    _assert_c_hidden([nsprp.serialize_permuted_key(pk) for pk in pks], tail)


def _assert_merge_c_hidden(k, z):
    pmks = [merge.merge_permute(k, z, c) for c in (0, 1)]
    if pmks[0] is not None:
        _assert_c_hidden([merge.serialize_permuted(pmk) for pmk in pmks], _tally_section(k.n, z))


def test_permuted_key_length_does_not_show_c():
    # the two keys of a swap stand for neighbouring hybrids; a reader must not
    # tell them apart by length or by any byte but their tallies and N=2 bit
    for n in range(2, 65):
        k = key(n, 0x40)
        for z in range(n - 1):
            _assert_prp_c_hidden(k, z)
    rng = random.Random("permuted-equal-length")
    for n in PERMUTED_WIDTHS[-4:]:
        _assert_prp_c_hidden(nsprp.make_prp_key(rng.randbytes(32), n), rng.randrange(n - 1))
    for n0 in range(17):
        for n1 in range(17):
            if n0 + n1 >= 2:
                k = merge.make_merge_key(bytes([n0, n1]) * 16, n0, n1)
                for z in range(k.n - 1):
                    _assert_merge_c_hidden(k, z)
    # tallies crossing a byte boundary: 512 = 0x200
    for s in range(36):
        _assert_merge_c_hidden(merge.make_merge_key(bytes([s]) * 32, 512, 512), 511)


def test_batch_outputs_pinned_digest():
    from ossprim import fastpath

    h = hashlib.sha256()
    rng = np.random.default_rng(1414)
    for bits in (1, 2, 3, 5, 12, 33, 63, 64):
        k = nsprp.make_scale_prp_key(bytes([0x60 + bits]) * 32, bits)
        top = (1 << bits) - 1
        xs = rng.integers(0, top, size=1024, dtype=np.uint64, endpoint=True)
        xs = np.concatenate([xs, np.array([0, top], dtype=np.uint64)])
        h.update(nsprp.prp_forward_batch(k, xs).tobytes())
        h.update(nsprp.prp_inverse_batch(k, xs).tobytes())
    for nbits in (16, 64):
        mctx = rng.integers(0, 1 << 64, size=512, dtype=np.uint64, endpoint=False)
        k0 = np.uint64(0x0123456789ABCDEF)
        top = (1 << nbits) - 1
        zs = rng.integers(0, top, size=512, dtype=np.uint64, endpoint=True)
        zs[:2] = (0, top)
        b, x = fastpath.merge_inverse_batch(mctx, k0, nbits, zs)
        h.update(b.tobytes() + x.tobytes())
        bs = rng.integers(0, 2, size=512, dtype=np.uint64)
        xs = rng.integers(0, 1 << (nbits - 1), size=512, dtype=np.uint64)
        h.update(fastpath.merge_forward_batch(mctx, k0, nbits, bs, xs).tobytes())
    for half in (1, 2, 3, 7, 1 << 10, 1 << 40, 1 << 63):
        m = min(2 * half, (1 << 64) - 1)
        ts = [0, 1, half - 1, half, half + 1, m - 1, m]
        ts += rng.integers(0, m, size=64, dtype=np.uint64, endpoint=True).tolist()
        rs = [0, 2047, 2048, (1 << 64) - 1]
        rs += rng.integers(0, 1 << 64, size=12, dtype=np.uint64).tolist()
        t, r = np.meshgrid(np.array(ts, dtype=np.uint64), np.array(rs, dtype=np.uint64))
        h.update(fastpath.gauss_draw_even(half, t.ravel(), r.ravel()).tobytes())
    assert h.hexdigest() == BATCH_SHA256


# sha256 over scalar forward and inverse walks at 32 points each of 2^24,
# 2^64 and 2^80 scale keys and of a standalone 2^40 + 2^40 fastmix merge key
# (the merge root context), recorded before the fastmix words moved to prng
SCALE_WORDS_SHA256 = "58a2f08f2af6713398e176cfa0d479ff99d9b43071079a3f5c0643683fb712bf"


def _spread_points(n, salt):
    return [(i * 0x9E3779B97F4A7C15 + salt) % n for i in range(32)]


def test_scale_keys_pinned_digest():
    h = hashlib.sha256()
    for bits in (24, 64, 80):
        k = nsprp.make_scale_prp_key(bytes([0x30 + bits]) * 32, bits)
        h.update(repr([nsprp.prp_forward(k, x) for x in _spread_points(k.n, 1)]).encode())
        h.update(repr([nsprp.prp_inverse(k, z) for z in _spread_points(k.n, 2)]).encode())
    mk = merge._root_key(PrfKey(b"\x3c" * 32, b"merge", prng.BACKEND_FASTMIX), 1 << 40, 1 << 40)
    h.update(repr([merge.merge_forward(mk, x & 1, x >> 1) for x in _spread_points(mk.n, 3)]).encode())
    h.update(repr([merge.merge_inverse(mk, z) for z in _spread_points(mk.n, 4)]).encode())
    assert h.hexdigest() == SCALE_WORDS_SHA256


# sha256 over both decompositions (each swap's z and its intermediate's
# forward and flat inverse tables) and over every merge swap's permuted blob,
# re-pinned when the permuted-key files dropped c, node lists and length prefixes
DECOMP_SHA256 = "24b64f9cf535a221d428fc8d02dca155c663f7cec52995f7a49d42dcb245ec65"
DECOMP_MERGE_SHAPES = [(5, 0), (0, 4), (2, 2), (4, 4), (3, 5), (5, 3), (6, 7)]


def _step_digest(h, st, n):
    h.update(repr((st.z, [st.forward(e) for e in range(n)], [st.inverse(z) for z in range(n)])).encode())


def test_decompositions_pinned_digest():
    h = hashlib.sha256()
    for i, (n0, n1) in enumerate(DECOMP_MERGE_SHAPES):
        k = merge.make_merge_key(bytes([0x70 + i]) * 32, n0, n1)
        for st in merge.merge_decompose(k):
            _step_digest(h, st, k.n)
        for z in range(k.n - 1):
            for c in (0, 1):
                pmk = merge.merge_permute(k, z, c)
                h.update(b"illegal" if pmk is None else merge.serialize_permuted(pmk))
    for n in (1, 2, 3, 4, 5, 8, 13):
        for st in nsprp.prp_decompose(key(n, 0x90 + n)):
            _step_digest(h, st, n)
    assert h.hexdigest() == DECOMP_SHA256


# sha256 over the forward and inverse tables alone, no serialized bytes, of
# every permuted PRP key PERMUTED_SHA256 covers and every permuted merge key
# DECOMP_SHA256 covers, recorded before the permuted-key formats change
PERMUTED_EVALS_SHA256 = "9d361babe4f5b30651045801d6ab24bbffc39211e9622f23796495d4b14ebdd5"


def test_permuted_key_evaluations_pinned_digest():
    h = hashlib.sha256()
    for n in range(2, 41):
        k = nsprp.make_prp_key(bytes([n]) * 32, n)
        for z in range(n - 1):
            for c in (0, 1):
                p = nsprp.prp_perm(nsprp.prp_permute(k, z, c))
                h.update(repr((p.table(), [p.inverse(w) for w in range(n)])).encode())
    for i, (n0, n1) in enumerate(DECOMP_MERGE_SHAPES):
        k = merge.make_merge_key(bytes([0x70 + i]) * 32, n0, n1)
        for z in range(k.n - 1):
            for c in (0, 1):
                pmk = merge.merge_permute(k, z, c)
                if pmk is None:
                    h.update(b"illegal")
                    continue
                p = merge.merge_perm(pmk)
                h.update(repr((p.table(), [p.inverse(w) for w in range(k.n)])).encode())
    assert h.hexdigest() == PERMUTED_EVALS_SHA256


def test_exact_prp_keys_stop_at_2_20_points():
    # the width rule: exact keys cover at most 2^20 points
    assert nsprp.make_prp_key(b"\x2a" * 32, 1 << 20).n == 1 << 20
    with pytest.raises(ContractError, match=r"exact keys cover at most 2\^20 points, not 1048577"):
        nsprp.make_prp_key(b"\x2a" * 32, (1 << 20) + 1)


def test_width_key_is_exact_up_to_20_bits_and_scale_above():
    root = PrfKey(b"\x2a" * 32, nsprp.PRP_TAG)
    assert nsprp.width_key(root, 20) == nsprp.make_prp_key(b"\x2a" * 32, 1 << 20)
    assert nsprp.width_key(root, 21) == nsprp.make_scale_prp_key(b"\x2a" * 32, 21)
    # a derived tag keeps its exact keys, and only the seed reaches the scale key
    derived = PrfKey(b"\x2a" * 32, b"other")
    assert nsprp.width_key(derived, 8).prf_key == derived
    assert nsprp.width_key(derived, 21) == nsprp.make_scale_prp_key(b"\x2a" * 32, 21)
