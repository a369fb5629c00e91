"""Every `Perm` producer in the package under one contract: its table is a
bijection of [0, n), its inverse round-trips, and forward and inverse both
refuse -1 and n with `RangeError`."""

import pytest

from ossprim import checks, merge, nsprp, opprp, oss, permdecomp as pd, prng
from ossprim.errors import RangeError


def _prp_key(n, tag):
    return nsprp.make_prp_key(bytes([tag]) * 32, n)


def _merge_key():
    return merge.make_merge_key(b"\x62" * 32, 5, 4)


def _legal_permuted_merge_key(k):
    return next(pk for z in range(k.n - 1) if (pk := merge.merge_permute(k, z, 1)) is not None)


def _permdecomp():
    fams = checks._fig5_constructors(16) + [("parse", pd.parse_perm("transp 8 1 5; add 8 3")),
                                            ("identity", pd.identity_perm(8))]
    for name, g in fams:
        yield name, g
        for i in range(g.length + 1):
            yield f"{name} prefix {i}", g.prefix(i)


def _owp():
    keys = opprp.owp_gen(b"\x6b" * 32, 8)
    return [("pk", keys.pk), ("reload", opprp.deserialize_owp_public(opprp.serialize_owp_public(keys)))]


def _oss():
    tiny = oss.oss_gen(oss.OssParams.tiny(4, 2, 4), b"\x63" * 32)
    std = oss.oss_gen(oss.OssParams.tiny(4, 2, 4, mode=oss.MODE_STANDARD, d=6), b"\x64" * 32)
    wide = oss.oss_gen(oss.OssParams.tiny(13, 6, 13), b"\x65" * 32)
    q = oss.cpf_from_two_to_one(oss.random_two_to_one(3, prng.bit_stream(prng.PrfKey(b"\x66" * 32, b"t"), b"h")), 3, 2)
    emb = oss.embed_cpf(q, 6, b"\x67" * 32)
    yield "table pi", tiny.pi
    yield "out_perm", std.out_perm
    yield "PRP-backed pi", wide.pi
    yield "self_reduce", oss.self_reduce(tiny, b"\x68" * 32).instance.pi
    yield "realize_simulated", oss.realize_simulated(oss.simulate_from_smaller(tiny, 6, 6)).pi
    yield "embedding gamma", emb.gamma
    yield "realize_embedded", oss.realize_embedded(emb).pi


PRODUCERS = {
    "prp_perm": lambda: [("honest", nsprp.prp_perm(_prp_key(12, 0x61))),
                         ("permuted", nsprp.prp_perm(nsprp.prp_permute(_prp_key(12, 0x61), 4, 1)))],
    "merge_perm": lambda: [("honest", merge.merge_perm(_merge_key())),
                           ("permuted", merge.merge_perm(_legal_permuted_merge_key(_merge_key())))],
    "merge_decompose": lambda: enumerate(merge.merge_decompose(_merge_key())),
    "prp_decompose": lambda: enumerate(nsprp.prp_decompose(_prp_key(9, 0x69))),
    "permdecomp": _permdecomp,
    "op_permute": lambda: [(c, opprp.op_permute(_prp_key(16, 0x6a), pd.parse_perm("add 16 3"), c))
                           for c in (0, 1)],
    "owp": _owp,
    "oss": _oss,
}


@pytest.mark.parametrize("family", sorted(PRODUCERS))
def test_every_perm_is_a_bijection_checked_on_its_domain(family):
    for name, p in PRODUCERS[family]():
        t = p.table()
        assert sorted(t) == list(range(p.n)), name
        assert [p.forward(x) for x in range(p.n)] == t, name
        assert [p.inverse(z) for z in t] == list(range(p.n)), name
        for bad in (-1, p.n):
            with pytest.raises(RangeError):
                p.forward(bad)
            with pytest.raises(RangeError):
                p.inverse(bad)


@pytest.mark.parametrize("mode", [oss.MODE_ORACLE, oss.MODE_STANDARD])
def test_sealed_instance_is_an_injection_into_the_packed_range(mode):
    # the one injection held in a Perm: n is the packed range 2^(y_bits + k)
    inst = oss.oss_gen(oss.OssParams.tiny(4, 2, 4, mode=mode), b"\x6c" * 32)
    p = inst.params
    sealed, _ = oss.seal_instance(inst)
    assert sealed.n == 1 << (p.y_bits + p.k)
    images = [sealed.forward(x) for x in range(1 << p.n)]
    assert len(set(images)) == 1 << p.n
    back = [sealed.inverse(v) for v in range(sealed.n)]
    assert [back[v] for v in images] == list(range(1 << p.n))
    assert sum(x is not None for x in back) == 1 << p.n  # None exactly off the image
    with pytest.raises(RangeError):
        sealed.forward(1 << p.n)  # oss_p's own check
    for bad in (-1, sealed.n):
        with pytest.raises(RangeError):
            sealed.forward(bad)
        with pytest.raises(RangeError):
            sealed.inverse(bad)
