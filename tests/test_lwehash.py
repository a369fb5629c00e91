import hashlib

import numpy as np
import pytest

from ossprim import lwehash as lh, oss, qsim
from ossprim.errors import ContractError, RangeError
from ossprim.prng import PrfKey, bit_stream


P = lh.INSECURE_DEMO


def keys(tag=b"k", params=P):
    return lh.hashl_keygen(params, bit_stream(PrfKey(b"\x51" * 32, b"lwe-tests"), tag))


def stream(tag=b"s"):
    return bit_stream(PrfKey(b"\x52" * 32, b"lwe-tests"), tag)


def test_params_validate_orderings():
    with pytest.raises(ContractError):
        lh.LweParams(u=1, v=2, q=100, B=4, Bbar=2, sigma=1)  # q not a power of two
    with pytest.raises(ContractError):
        lh.LweParams(u=1, v=2, q=16, B=8, Bbar=16, sigma=1)  # Bbar > B


def test_keygen_noise_in_tail_box_and_deterministic():
    pk, td = keys()
    resid = lh.centered_mod((pk.c_vec - pk.b_mat @ td.s) % P.q, P.q)
    assert ((resid > -P.Bbar) & (resid <= P.Bbar)).all()
    assert (resid == td.e).all()
    pk2, td2 = keys()
    assert (pk2.b_mat == pk.b_mat).all() and (td2.s == td.s).all()


def test_eval_b0_t0_is_f():
    pk, _ = keys(b"k2")
    f = np.arange(-P.v // 2, P.v - P.v // 2, dtype=np.int64) % 5 - 2
    y = lh.hashl_eval(pk, np.zeros(P.u, dtype=np.int64), f, 0)
    assert (y == f % P.q).all()


def test_eval_rejects_out_of_box_f():
    pk, _ = keys(b"k3")
    f = np.zeros(P.v, dtype=np.int64)
    f[0] = P.B + 1
    with pytest.raises(RangeError):
        lh.hashl_eval(pk, np.zeros(P.u, dtype=np.int64), f, 0)


def test_claw_pair_identity():
    pk, td = keys(b"k4")
    st = stream(b"t4")
    t = np.array([st.bits(P.lq) for _ in range(P.u)], dtype=np.int64)
    f = td.e.copy()  # guarantees f - e = 0 stays in the box
    y0 = lh.hashl_eval(pk, t, f, 0)
    y1 = lh.hashl_eval(pk, (t - td.s) % P.q, f - td.e, 1)
    assert (y0 == y1).all()


def test_linearity_in_t():
    pk, _ = keys(b"k5")
    st = stream(b"t5")
    t = np.array([st.bits(P.lq) for _ in range(P.u)], dtype=np.int64)
    tp = np.array([st.bits(P.lq) for _ in range(P.u)], dtype=np.int64)
    f = np.zeros(P.v, dtype=np.int64)
    lhs = (lh.hashl_eval(pk, (t + tp) % P.q, f, 0) - lh.hashl_eval(pk, tp, f, 0)) % P.q
    assert (lhs == (pk.b_mat @ t) % P.q).all()


def test_invert_contains_constructed_preimage():
    pk, _ = keys(b"k6")
    st = stream(b"t6")
    for _ in range(30):
        x = st.bits(P.domain_bits)
        t, f, b = lh.unpack_domain(P, x)
        y = lh.hashl_eval(pk, t, f, b)
        pre = lh.hashl_invert(pk, y)
        assert 1 <= len(pre) <= 2
        assert any((pt == t).all() and (pf == f).all() and pb == b for pt, pf, pb in pre)


def test_invert_two_to_one_points_return_both_claw_members():
    pk, td = keys(b"k7")
    st = stream(b"t7")
    t = np.array([st.bits(P.lq) for _ in range(P.u)], dtype=np.int64)
    f = td.e.copy()
    y = lh.hashl_eval(pk, t, f, 0)
    pre = lh.hashl_invert(pk, y)
    assert len(pre) == 2
    bs = sorted(pb for _, _, pb in pre)
    assert bs == [0, 1]


def test_invert_far_point_is_empty():
    pk, _ = keys(b"k8")
    t = np.zeros(P.u, dtype=np.int64)
    g = np.zeros(P.v, dtype=np.int64)
    g[0] = 2 * P.B  # beyond the box by more than Bbar on one coordinate
    y = (pk.b_mat @ t + g) % P.q
    assert lh.hashl_invert(pk, y) == []


def test_lattice_coset_disjointness_sampled():
    pk, _ = keys(b"k9")
    st = stream(b"t9")
    for _ in range(1000):
        dt = np.array([st.bits(P.lq) for _ in range(P.u)], dtype=np.int64)
        if not dt.any():
            continue
        resid = lh.centered_mod((pk.b_mat @ dt) % P.q, P.q)
        assert (np.abs(resid) > 2 * P.B).any()


def test_two_to_one_fraction_sampled():
    pk, td = keys(b"k10")
    samples = 300
    frac = lh.measure_two_to_one_fraction(pk, samples, stream(b"t10"))
    exact = lh.partner_fraction(P, td)
    assert abs(frac - exact) <= 4.5 * (exact * (1 - exact) / samples) ** 0.5
    assert 0.5 < frac <= 1.0


@pytest.mark.parametrize("seed", range(12))
def test_micro_inversion_is_complete(seed):
    # seeds 5 and 6 draw an all-even B, which has no row invertible mod q
    p = lh.MICRO
    pk, _ = lh.hashl_keygen(p, bit_stream(PrfKey(bytes([seed]) * 32, b"enum"), b"lwe"))
    for x in range(1 << p.domain_bits):
        y = lh.unpack_range(p, lh.hashl_eval_packed(pk, x))
        assert x in [lh.pack_domain(p, *pre) for pre in lh.hashl_invert(pk, y)]
    assert pk._cache["invert"] is lh._invert_tables(pk)


def test_inversion_without_spare_rows_is_complete():
    # v = u leaves no rows to screen candidates against
    p = lh.LweParams(u=1, v=1, q=8, B=1, Bbar=1, sigma=0.5)
    pk = lh.LweKey(p, np.array([[3]]), np.array([4]))  # c = B.s + e, s = 1, e = 1
    for x in range(1 << p.domain_bits):
        y = lh.unpack_range(p, lh.hashl_eval_packed(pk, x))
        assert x in [lh.pack_domain(p, *pre) for pre in lh.hashl_invert(pk, y)]


def test_inversion_without_invertible_rows_refuses_large_q():
    pk, _ = keys(b"k11")
    even = lh.LweKey(P, 2 * pk.b_mat % P.q, pk.c_vec)
    with pytest.raises(RangeError):
        lh.hashl_invert(even, pk.c_vec)


def test_domain_packing_bijective():
    st = stream(b"t11")
    for _ in range(200):
        x = st.bits(P.domain_bits)
        t, f, b = lh.unpack_domain(P, x)
        assert ((f > -P.B) & (f <= P.B)).all()
        assert lh.pack_domain(P, t, f, b) == x
    y = np.array([st.bits(P.lq) for _ in range(P.v)], dtype=np.int64)
    assert (lh.unpack_range(P, lh.pack_range(P, y)) == y).all()


def test_unpacking_refuses_points_outside_their_width():
    for val in (-1, 1 << P.domain_bits, (1 << P.domain_bits) + 17):
        with pytest.raises(RangeError):
            lh.unpack_domain(P, val)
    for val in (-1, 1 << P.range_bits):
        with pytest.raises(RangeError):
            lh.unpack_range(P, val)


def test_centered_mod_named_helper():
    assert lh.centered_mod(7, 8) == -1
    assert lh.centered_mod(4, 8) == 4
    assert lh.centered_mod(-4, 8) == 4
    assert (lh.centered_mod(np.array([5, 12, 13]), 8) == np.array([-3, 4, -3])).all()


# -- hashQ -----------------------------------------------------------------------------

def qkeys(slices=2, params=P, tag=b"q"):
    return lh.hashq_keygen(params, slices, bit_stream(PrfKey(b"\x53" * 32, b"lwe-q"), tag))


def test_hashq_single_slice_reduces_to_hashl():
    qk, _ = qkeys(slices=1)
    st = stream(b"q1")
    for _ in range(20):
        w = st.bits(qk.n_bits)
        assert lh.hashq_eval(qk, w) == lh.hashl_eval_packed(qk.pks[0], w)


def test_hashq_coset_reconstruction_round_trip():
    qk, _ = qkeys(tag=b"q2")
    st = stream(b"q2")
    done = 0
    for _ in range(200):
        w = st.bits(qk.n_bits)
        a = lh.hashq_eval(qk, w)
        try:
            coset = lh.hashq_coset(qk, a)
        except ContractError:
            continue  # deficient image
        z = lh.hashq_coords(qk, w)
        assert lh.reconstruct_from_coset(qk, coset, z) == w
        assert coset.dim == qk.slices
        done += 1
        if done >= 25:
            break
    assert done >= 10


def test_hashq_collision_reveals_planted_secrets():
    qk, qtd = qkeys(tag=b"q3")
    st = stream(b"q3")
    p = qk.params
    sl0, sl1 = [], []
    for i in range(qk.slices):
        t = np.array([st.bits(p.lq) for _ in range(p.u)], dtype=np.int64)
        f = qtd.tds[i].e.copy()
        sl0.append(lh.pack_domain(p, t, f, 0))
        sl1.append(lh.pack_domain(p, (t - qtd.tds[i].s) % p.q, f - qtd.tds[i].e, 1))
    w0, w1 = lh._join_input(qk, sl0), lh._join_input(qk, sl1)
    assert w0 != w1 and lh.hashq_eval(qk, w0) == lh.hashq_eval(qk, w1)
    for i in range(qk.slices):
        t0, _, _ = lh.unpack_domain(p, sl0[i])
        t1, _, _ = lh.unpack_domain(p, sl1[i])
        assert ((t0 - t1) % p.q == qtd.tds[i].s % p.q).all()


def test_micro_preset_exhaustive_structure():
    p = lh.MICRO
    pk, _ = keys(b"m2", p)  # a seed whose lattice cosets are honestly disjoint
    sizes = {}
    for x in range(1 << p.domain_bits):
        y = lh.hashl_eval_packed(pk, x)
        sizes[y] = sizes.get(y, 0) + 1
    # every preimage set inversion reports matches the exhaustive census
    for y, count in sizes.items():
        assert count in (1, 2)
        assert len(lh.hashl_invert(pk, lh.unpack_range(p, y))) == count


def test_params_file_round_trip():
    text = lh.serialize_params(P)
    assert lh.parse_params(text) == P


def test_key_serialization_round_trip_and_magic():
    pk, td = keys(b"k12")
    blob = lh.serialize_key(pk)
    assert blob.startswith(lh.INSECURE_DEMO_MAGIC)
    back = lh.deserialize_key(blob)
    assert (back.b_mat == pk.b_mat).all() and (back.c_vec == pk.c_vec).all()
    td2 = lh.deserialize_trapdoor(lh.serialize_trapdoor(P, td))
    assert (td2.s == td.s).all() and (td2.e == td.e).all()


# sha256 of _pinned_outputs(), recorded before the MSB-first field layouts
# moved into gf2.join_fields/split_fields; any change to these bits changes it
PINNED_SHA256 = "5ff8082816b7ab5bdc20c9ef00c1be8ba64b8bb55a2d30a73642d6b879b05b8e"


def _pinned_outputs() -> bytes:
    """Outputs of every MSB-first field layout and packed oracle: both
    presets' domain and range packers, hashQ images, preimage sets and
    cosets, three coset partition functions with their preimage cosets and
    one embedding, both non-collapsing branches at (6, 3, 6) and (4, 2, 5),
    P at n = 16 and its self-reduction, and a standard-mode (8, 4, 8)
    instance with d = 14."""
    out = []
    for p in (lh.MICRO, P):
        st = stream(b"pin" + bytes([p.v]))
        xs = range(1 << p.domain_bits) if p.domain_bits <= 7 else [st.bits(p.domain_bits) for _ in range(64)]
        for x in xs:
            t, f, b = lh.unpack_domain(p, x)
            wrapped = lh.pack_domain(p, t + p.q, f, b)  # t is read mod q
            y = lh.unpack_range(p, st.bits(p.range_bits))
            out.append((t.tolist(), f.tolist(), b, lh.pack_domain(p, t, f, b), wrapped,
                        y.tolist(), lh.pack_range(p, y - p.q)))
    for p, slices in ((lh.MICRO, 3), (P, 2)):
        qk, _ = qkeys(slices, p, b"pin")
        st = stream(b"pinq" + bytes([slices]))
        for _ in range(24):
            w = st.bits(qk.n_bits)
            a = lh.hashq_eval(qk, w)
            entry = [w, a, lh.hashq_preimage_sets(qk, a)]
            try:
                c = lh.hashq_coset(qk, a)
                entry += [c.basis.cols, c.shift.bits, lh.reconstruct_from_coset(qk, c, lh.hashq_coords(qk, w))]
            except ContractError as e:
                entry.append(str(e))
            out.append(entry)
    for n_bits, ell in ((3, 1), (3, 2), (2, 3)):
        q = oss.cpf_from_two_to_one(oss.random_two_to_one(n_bits, stream(bytes([n_bits, ell]))), n_bits, ell)
        cosets = [q.preimage_coset(y) for y in range(1 << q.m_bits)]
        out.append(([q.evaluate(x) for x in range(1 << q.n_bits)],
                    [None if c is None else (c.basis.cols, c.shift.bits) for c in cosets]))
    emb = oss.embed_cpf(q, 8, b"\x55" * 32)
    out.append([(y, u.bits) for y, u in map(emb.p, range(1 << emb.n))])
    for (n, r, k), seed in (((6, 3, 6), b"\x0e"), ((4, 2, 5), b"\x56")):
        inst = oss.oss_gen(oss.OssParams.tiny(n, r, k), seed * 32)
        sealed, dual = oss.seal_instance(inst)
        out.append([(sealed.forward(x), dual(sealed.forward(x))) for x in range(1 << n)])
        out.append([repr(qsim.noncollapsing_experiment(inst, br)) for br in ("full", "partial")])
    inst = oss.oss_gen(oss.OssParams.tiny(16, 8, 16), b"\x69" * 32)
    sr = oss.self_reduce(inst, b"\x57" * 32)
    for i in (inst, sr.instance):
        out.append([(y, u.bits) for y, u in (oss.oss_p(i, x) for x in (0, 1, 12345, 65535))])
    out.append(sr.back_map(7))
    std = oss.oss_gen(oss.OssParams.tiny(8, 4, 8, mode=oss.MODE_STANDARD, d=14), b"\x58" * 32)
    out.append([(y, u.bits) for y, u in (oss.oss_p(std, x) for x in range(256))])
    return repr(out).encode()


def test_pinned_outputs_digest():
    assert hashlib.sha256(_pinned_outputs()).hexdigest() == PINNED_SHA256


# sha256 over hashl_invert's preimage lists, in order and off-image points
# included: every range point of the twelve MICRO keys (seeds 5 and 6 take the
# Z_q^u grid path) and image and random points of three INSECURE_DEMO keys,
# recorded before the inversion screen changes
INVERT_SHA256 = "e09e1090a3199e2881e15acbb5a2d07b975c5510fee1f723b1ef28e12da675a4"


def _preimage_lists(pk, ys) -> bytes:
    return repr([[(t.tolist(), f.tolist(), b) for t, f, b in lh.hashl_invert(pk, y)] for y in ys]).encode()


def test_inversion_pinned_digest():
    h = hashlib.sha256()
    p = lh.MICRO
    for seed in range(12):
        pk, _ = lh.hashl_keygen(p, bit_stream(PrfKey(bytes([seed]) * 32, b"enum"), b"lwe"))
        h.update(_preimage_lists(pk, [lh.unpack_range(p, y) for y in range(1 << p.range_bits)]))
    for tag in (b"inv0", b"inv1", b"inv2"):
        pk, _ = keys(tag)
        st = stream(tag)
        ys = [lh.unpack_range(P, lh.hashl_eval_packed(pk, st.bits(P.domain_bits))) for _ in range(32)]
        ys += [lh.unpack_range(P, st.bits(P.range_bits)) for _ in range(32)]
        h.update(_preimage_lists(pk, ys))
    assert h.hexdigest() == INVERT_SHA256
