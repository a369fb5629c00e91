import pytest

from ossprim import nsprp, opprp, permdecomp as pd
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


def test_hybrid_walk_endpoints_and_steps():
    n = 16
    k = key(n, 3)
    g = pd.transposition(n, 2, 9)
    f0, i0 = opprp.hybrid_walk(k, g, 0)
    fT, iT = opprp.hybrid_walk(k, g, g.length)
    pk0 = opprp.op_permute(k, g, 0)
    pk1 = opprp.op_permute(k, g, 1)
    for x in range(n):
        assert f0(x) == pk0.forward(x)
        assert fT(x) == pk1.forward(x)
    for t in range(1, g.length + 1):
        fa, _ = opprp.hybrid_walk(k, g, t - 1)
        fb, ib = opprp.hybrid_walk(k, g, t)
        diff = [x for x in range(n) if fa(x) != fb(x)]
        assert len(diff) <= 2
        imgs = [fb(x) for x in range(n)]
        assert sorted(imgs) == list(range(n))
        assert [ib(z) for z in imgs] == list(range(n))
    with pytest.raises(RangeError):
        opprp.hybrid_walk(k, g, g.length + 1)


def test_owp_bijection_and_inversion_exhaustive():
    keys = opprp.owp_gen(b"\x41" * 32, 10)
    img = [opprp.owp_forward(keys.pk, x) for x in range(1 << 10)]
    assert sorted(img) == list(range(1 << 10))
    for x in range(0, 1 << 10, 7):
        assert opprp.owp_invert(keys.sk, img[x]) == x


def test_owp_deterministic_across_reloads():
    keys = opprp.owp_gen(b"\x42" * 32, 8)
    blob_pk = opprp.serialize_owp_public(keys)
    blob_sk = opprp.serialize_owp_secret(keys)
    pk2 = opprp.deserialize_owp_public(blob_pk)
    sk2 = opprp.deserialize_owp_secret(blob_sk)
    for x in (0, 1, 100, 255):
        y = opprp.owp_forward(keys.pk, x)
        assert pk2.forward(x) == y
        assert opprp.owp_invert(sk2.sk, y) == x


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
