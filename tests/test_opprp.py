import hashlib

import pytest

from ossprim import checks, nsprp, opprp, oss, permdecomp as pd
from ossprim.errors import ContractError, DimensionError, RangeError


def key(n, tag=0):
    return nsprp.make_prp_key(bytes([(40 + tag) % 256]) * 32, n)


def test_op_permute_c0_is_plain_prp():
    for n in (8, 16, 64):
        k = key(n)
        g = pd.transposition(n, 0, min(3, n - 1))
        pk = opprp.op_permute(k, g, 0)
        assert [pk.forward(x) for x in range(n)] == [nsprp.prp_forward(k, x) for x in range(n)]


def test_op_permute_c1_swaps_declared_outputs():
    n = 16
    k = key(n, 1)
    g = pd.transposition(n, 0, 3)
    pk = opprp.op_permute(k, g, 1)
    base = [nsprp.prp_forward(k, x) for x in range(n)]
    got = [pk.forward(x) for x in range(n)]
    diff = [x for x in range(n) if got[x] != base[x]]
    assert sorted(base[x] for x in diff) == [0, 3]
    assert got == [g.forward(w) for w in base]


def test_op_permute_round_trip_both_c():
    n = 32
    k = key(n, 2)
    g = pd.scalar_add(n, 7)
    for c in (0, 1):
        pk = opprp.op_permute(k, g, c)
        for x in range(n):
            assert pk.inverse(pk.forward(x)) == x
        assert sorted(pk.forward(x) for x in range(n)) == list(range(n))


def test_op_permute_domain_mismatch():
    with pytest.raises(DimensionError):
        opprp.op_permute(key(8), pd.neighbor_swap(16, 0), 0)


def test_op_permute_refuses_a_permuted_key():
    pk = nsprp.prp_permute(key(8), 2, 1)
    with pytest.raises(ContractError, match="honest key"):
        opprp.op_permute(pk, pd.neighbor_swap(8, 0), 1)


def test_sealed_domains_above_64_bits_are_refused():
    # the paper preset's P/P^-1 covers 2^80 points, and N - 1 is a u64 field
    sealed, _ = oss.seal_instance(oss.oss_gen(oss.OssParams.paper_preset(2), b"\x07" * 32))
    with pytest.raises(RangeError, match="64-bit"):
        sealed.serialize()
    k = nsprp.make_scale_prp_key(b"\x07" * 32, 65)
    with pytest.raises(RangeError, match="64-bit"):
        opprp.op_permute(k, pd.identity_perm(k.n), 0)


def test_hybrid_walk_endpoints_and_steps():
    n = 16
    k = key(n, 3)
    g = pd.transposition(n, 2, 9)
    hybrid = lambda t: nsprp.prp_perm(k).then(g.prefix(t))  # Gamma_t o Pi
    h0, hT = hybrid(0), hybrid(g.length)
    pk0 = opprp.op_permute(k, g, 0)
    pk1 = opprp.op_permute(k, g, 1)
    for x in range(n):
        assert h0.forward(x) == pk0.forward(x)
        assert hT.forward(x) == pk1.forward(x)
    for t in range(1, g.length + 1):
        ha, hb = hybrid(t - 1), hybrid(t)
        diff = [x for x in range(n) if ha.forward(x) != hb.forward(x)]
        assert len(diff) <= 2
        imgs = [hb.forward(x) for x in range(n)]
        assert sorted(imgs) == list(range(n))
        assert [hb.inverse(z) for z in imgs] == list(range(n))
    with pytest.raises(RangeError):
        hybrid(g.length + 1)


def test_hybrid_chain_steps_are_permuted_keys():
    # hybrid i is "Pi, then Gamma_i"; hybrids i-1 and i are one program: the
    # key permuted at (z_i, c), then Gamma_{i-1}, at c = 0 and c = 1
    pairs = 0
    for name, g in checks._fig5_constructors(8):
        k = key(g.n, g.n)
        for i in range(1, g.length + 1):
            z = g.step(i)
            for c in (0, 1):
                got = nsprp.prp_perm(nsprp.prp_permute(k, z, c)).then(g.prefix(i - 1))
                want = nsprp.prp_perm(k).then(g.prefix(i - 1 + c))
                assert got.table() == want.table(), (name, i, c)
                assert got.inverted().table() == want.inverted().table(), (name, i, c)
                pairs += 1
    assert pairs == 588


def test_owp_bijection_and_inversion_exhaustive():
    keys = opprp.owp_gen(b"\x41" * 32, 10)
    img = keys.pk.table()
    assert sorted(img) == list(range(1 << 10))
    for x in range(0, 1 << 10, 7):
        assert nsprp.prp_inverse(keys.sk, img[x]) == x


def test_owp_deterministic_across_reloads():
    keys = opprp.owp_gen(b"\x42" * 32, 8)
    blob_pk = opprp.serialize_owp_public(keys)
    blob_sk = opprp.serialize_owp_secret(keys)
    pk2 = opprp.deserialize_owp_public(blob_pk)
    sk2 = opprp.deserialize_owp_secret(blob_sk)
    for x in (0, 1, 100, 255):
        y = keys.pk.forward(x)
        assert pk2.forward(x) == y
        assert nsprp.prp_inverse(sk2.sk, y) == x


def test_owp_public_blob_carries_warning_label():
    keys = opprp.owp_gen(b"\x43" * 32, 8)
    blob = opprp.serialize_owp_public(keys)
    assert opprp.MOCK_LABEL in blob
    corrupted = blob.replace(opprp.MOCK_LABEL, b"X" * len(opprp.MOCK_LABEL))
    with pytest.raises(ContractError):
        opprp.deserialize_owp_public(corrupted)


def test_mock_obfuscation_serialize_contains_label_and_key_material():
    k = key(8, 4)
    pk = opprp.op_permute(k, pd.neighbor_swap(8, 0), 0)
    blob = pk.serialize()
    assert opprp.MOCK_LABEL in blob
    assert k.prf_key.seed in blob  # mock: functionality only, nothing hidden


# -- trigger template ---------------------------------------------------------------

def _template(n=6, t_bits=3, tag=0):
    wid = opprp.TriggerWidths(in_bits=n, k0_bits=n, w1_bits=0, t_bits=t_bits,
                              k1_bits=n, w4_bits=n)
    k0 = key(1 << n, 10 + tag)
    k1 = key(1 << n, 11 + tag)
    p0 = lambda x: (x, 0)
    p1 = lambda w1, w2: (w2, w2)
    p1_alt = lambda w1, w2: (w2 ^ 1, w2)
    p2 = lambda x3, w4: x3
    return wid, k0, k1, p0, p1, p1_alt, p2


def test_trigger_empty_interval_matches_untriggered():
    wid, k0, k1, p0, p1, p1a, p2 = _template()
    trig = opprp.triggered_program(k0, k1, wid, p0, p1, p1a, p2, (2, 2))
    plain = opprp.triggered_program(k0, k1, wid, p0, p1, p1, p2, (0, 0))
    assert [trig(x) for x in range(64)] == [plain(x) for x in range(64)]


def test_trigger_full_interval_is_alt_everywhere():
    wid, k0, k1, p0, p1, p1a, p2 = _template(tag=1)
    trig = opprp.triggered_program(k0, k1, wid, p0, p1, p1a, p2, (0, 8))
    allalt = opprp.triggered_program(k0, k1, wid, p0, p1a, p1a, p2, (0, 0))
    assert [trig(x) for x in range(64)] == [allalt(x) for x in range(64)]


def test_trigger_width_one_diverges_exactly_on_preimages():
    wid, k0, k1, p0, p1, p1a, p2 = _template(tag=2)
    base = opprp.triggered_program(k0, k1, wid, p0, p1, p1a, p2, (0, 0))
    one = opprp.triggered_program(k0, k1, wid, p0, p1, p1a, p2, (5, 6))
    diverge = sum(1 for x in range(64) if one(x) != base(x))
    assert diverge == opprp.trigger_preimage_count(wid, (5, 6)) == 8


def test_trigger_malformed_widths():
    with pytest.raises(DimensionError):
        opprp.TriggerWidths(in_bits=6, k0_bits=6, w1_bits=0, t_bits=7,
                            k1_bits=6, w4_bits=0).validate()
    wid, k0, k1, p0, p1, p1a, p2 = _template(tag=3)
    bad_p1 = lambda w1, w2: (1 << 10, w2)  # w3 wider than declared
    prog = opprp.triggered_program(k0, k1, wid, p0, bad_p1, p1a, p2, (0, 0))
    with pytest.raises(DimensionError):
        prog(0)


# -- pinned pair tables ----------------------------------------------------------------

def _pair_tables(fwd, inv, n, out_n=None):
    """Both tables of a forward/inverse pair: fwd over [n], inv over [out_n]."""
    return repr(([fwd(x) for x in range(n)], [inv(z) for z in range(n if out_n is None else out_n)])).encode()


def _spread(n, salt):
    return [(i * 0x9E3779B97F4A7C15 + salt) % n for i in range(64)]


# sha256 over the pairs no other digest covers: op_permute at c = 0 and 1 for a
# transposition and a composite g, the 8-bit OWP public pair and its reload, the
# pi of self_reduce and of a realized simulation on tiny instances, a PRP-backed
# pi and its self-reduction at spread points, and seal_instance's injection with
# its off-image None values; recorded before the pairs became one type
PAIRS_SHA256 = "f6b30677b10c303dd63785cb3d472378f0f79982610b3ab7f94daf485fb3b539"


def test_pairs_pinned_digest():
    h = hashlib.sha256()
    for n in (4, 16):
        k = key(n, 20 + n)
        for g in (pd.transposition(n, 0, n - 1), pd.parse_perm(f"transp {n} 1 {n - 2}; add {n} 3")):
            for c in (0, 1):
                pk = opprp.op_permute(k, g, c)
                h.update(_pair_tables(pk.forward, pk.inverse, n))
    keys = opprp.owp_gen(b"\x44" * 32, 8)
    for pk in (keys.pk, opprp.deserialize_owp_public(opprp.serialize_owp_public(keys))):
        h.update(_pair_tables(pk.forward, pk.inverse, 256))
    tiny = oss.oss_gen(oss.OssParams.tiny(6, 3, 6), b"\x45" * 32)
    std = oss.oss_gen(oss.OssParams.tiny(6, 3, 6, mode=oss.MODE_STANDARD, d=8), b"\x46" * 32)
    small = oss.oss_gen(oss.OssParams.tiny(4, 2, 4), b"\x47" * 32)
    for inst in (oss.self_reduce(tiny, b"\x48" * 32).instance, oss.self_reduce(std, b"\x49" * 32).instance,
                 oss.realize_simulated(oss.simulate_from_smaller(small, 6, 6))):
        h.update(_pair_tables(inst.pi.forward, inst.pi.inverse, 64))
    wide = oss.oss_gen(oss.OssParams.tiny(14, 7, 14), b"\x4a" * 32)
    for inst in (wide, oss.self_reduce(wide, b"\x4b" * 32).instance):
        h.update(repr([inst.pi.forward(x) for x in _spread(1 << 14, 1)]).encode())
        h.update(repr([inst.pi.inverse(z) for z in _spread(1 << 14, 2)]).encode())
    for inst in (tiny, std):
        sealed, _ = oss.seal_instance(inst)
        h.update(_pair_tables(sealed.forward, sealed.inverse, 64, 1 << (inst.params.y_bits + 6)))
    assert h.hexdigest() == PAIRS_SHA256
