import hashlib

import numpy as np
import pytest
from scipy.stats import chi2

from ossprim import gf2, lwehash, oss, prng
from ossprim.errors import ContractError, RangeError
from ossprim.oss import OssParams, int_to_vec, vec_to_int


def gen(n, r, k, tag=0, **kw):
    return oss.oss_gen(OssParams.tiny(n, r, k, **kw), bytes([(100 + tag) % 256]) * 32)


def test_vector_packing_conventions():
    v = int_to_vec(0b1101, 4)
    assert v.to_list() == [1, 1, 0, 1]  # component 0 is the MSB
    assert vec_to_int(v) == 0b1101
    # the bit-by-bit reference: bits of val at or above dim are dropped
    for dim in (0, 1, 2, 7, 64, 80):
        for val in (0, 1, 0b1101, (1 << dim) - 1, 1 << dim, 3 << dim | 5, 0x9E3779B97F4A7C15 << 17):
            want = sum(((val >> (dim - 1 - i)) & 1) << i for i in range(dim))
            assert gf2.reverse_bits(val, dim) == want
            assert int_to_vec(val, dim) == gf2.BitVector(want, dim)
            assert vec_to_int(gf2.BitVector(want, dim)) == val & ((1 << dim) - 1)


def test_paper_preset_arithmetic():
    p = OssParams.paper_preset(2)
    assert (p.s, p.r, p.n, p.k) == (32, 32, 80, 80)
    p3 = OssParams.paper_preset(3)
    assert (p3.s, p3.r, p3.n, p3.k) == (48, 96, 168, 168)


def test_p_injective_inverse_total_bottom_off_image():
    inst = gen(6, 3, 6)
    seen = set()
    per_y = {}
    for x in range(64):
        y, u = oss.oss_p(inst, x)
        assert (y, u.bits) not in seen
        seen.add((y, u.bits))
        per_y.setdefault(y, set()).add(u.bits)
        assert oss.oss_p_inv(inst, y, u) == x
    for y in range(8):
        for ub in range(64):
            expected = ub in per_y.get(y, set())
            assert (oss.oss_p_inv(inst, y, gf2.BitVector(ub, 6)) is not None) == expected


def test_image_sets_are_the_declared_cosets():
    inst = gen(6, 3, 6, tag=1)
    for y in range(8):
        us = {oss.oss_p(inst, x)[1].bits for x in range(64) if oss.oss_hash(inst, x) == y}
        assert us == {p.bits for p in inst.coset(y).points()}


def test_dual_accepts_zero_and_exactly_kernel():
    inst = gen(6, 3, 6, tag=2)
    for y in range(8):
        assert oss.oss_d(inst, y, gf2.BitVector(0, 6)) == 1
        a, _ = inst.coset_source(y)
        for vb in range(64):
            manual = all(not ((c & vb).bit_count() & 1) for c in a.cols)
            assert oss.oss_d(inst, y, gf2.BitVector(vb, 6)) == int(manual)


def test_hash_constant_on_cosets_and_preimage_count():
    inst = gen(8, 4, 8, tag=3)
    for y in range(16):
        assert sum(1 for x in range(256) if oss.oss_hash(inst, x) == y) == 16


def test_self_reduce_identity_ingredients_neutral(monkeypatch):
    inst = gen(6, 3, 6, tag=4)
    # an identity Gamma and identity (C, d) leave every oracle answer alone
    monkeypatch.setattr(oss, "random_table_perm", lambda bits, stream: oss.table_perm(range(1 << bits), bits))
    monkeypatch.setattr(oss, "PrfCosetSource",
                        lambda key, k, cols, label: lambda y: (gf2.identity(k), gf2.BitVector(0, k)))
    neutral = oss.self_reduce(inst, b"\x60" * 32).instance
    for x in range(64):
        assert oss.oss_p(neutral, x) == oss.oss_p(inst, x)


def test_self_reduce_twice_still_coherent():
    inst = gen(6, 3, 6, tag=5)
    sr1 = oss.self_reduce(inst, b"\x61" * 32)
    sr2 = oss.self_reduce(sr1.instance, b"\x62" * 32)
    for x in range(64):
        y, u = oss.oss_p(sr2.instance, x)
        assert oss.oss_p_inv(sr2.instance, y, u) == x


def test_self_reduce_back_maps_planted_collision():
    inst = gen(6, 3, 6, tag=6)
    sr = oss.self_reduce(inst, b"\x63" * 32)
    y0 = oss.oss_hash(sr.instance, 17)
    x1 = next(x for x in range(64) if x != 17 and oss.oss_hash(sr.instance, x) == y0)
    assert oss.oss_hash(inst, sr.back_map(17)) == oss.oss_hash(inst, sr.back_map(x1))


def test_self_reduce_rerandomizes_uniformly():
    # start from a fixed degenerate instance; the re-randomized hash table
    # must look like a fresh one: chi-square over the 70 balanced tables
    coset = (gf2.identity(3).from_rows([[1, 0], [0, 1], [0, 0]]), gf2.BitVector(0, 3))
    base = oss.OssInstance(OssParams.tiny(3, 1, 3), oss.table_perm(range(8), 3), lambda y: coset)
    import itertools
    classes = {c: i for i, c in enumerate(itertools.combinations(range(8), 4))}
    counts = np.zeros(70, dtype=np.int64)
    trials = 10_000
    for i in range(trials):
        sr = oss.self_reduce(base, prng.prf_eval(prng.PrfKey(b"\x64" * 32, b"sr"), i.to_bytes(4, "big"), 32))
        zeros = tuple(x for x in range(8) if oss.oss_hash(sr.instance, x) == 0)
        counts[classes[zeros]] += 1
    expected = trials / 70
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < float(chi2.ppf(0.999, 69)), stat


def test_bloat_edges():
    inst = gen(6, 3, 6, tag=7)
    d0 = oss.bloat_dual(inst, 0)
    d_all = oss.bloat_dual(inst, 3)
    for y in range(8):
        for vb in range(64):
            v = gf2.BitVector(vb, 6)
            assert d0(y, v) == oss.oss_d(inst, y, v)
            assert d_all(y, v) == 1


def test_oracles_refuse_y_outside_its_range():
    zero = gf2.BitVector(0, 6)
    for inst in (gen(6, 3, 6, tag=7), gen(6, 3, 6, tag=11, mode=oss.MODE_STANDARD, d=8)):
        y_bits = inst.params.y_bits
        for oracle in (lambda y: oss.oss_p_inv(inst, y, zero), lambda y: oss.oss_d(inst, y, zero),
                       lambda y: oss.bloat_dual(inst, 1)(y, zero)):
            assert oracle((1 << y_bits) - 1) in (None, 0, 1)
            for y in (-1, 1 << y_bits):
                with pytest.raises(RangeError):
                    oracle(y)


def test_simulated_triple_support_membership():
    small = gen(6, 3, 6, tag=8)
    sim = oss.simulate_from_smaller(small, 8, 8)
    real = oss.realize_simulated(sim)
    for x in range(256):
        assert oss.oss_p(real, x) == sim.p(x)
        y, u = sim.p(x)
        assert sim.p_inv(y, u) == x
    dp = oss.bloat_dual(real, sim.s)
    for y in range(8):
        for vb in range(0, 256, 3):
            v = gf2.BitVector(vb, 8)
            assert sim.d_prime(y, v) == dp(y, v)


def test_simulated_dual_accepts_last_block_zero():
    small = gen(6, 3, 6, tag=9)
    sim = oss.simulate_from_smaller(small, 8, 8)
    for vb in range(256):
        v = gf2.BitVector(vb, 8)
        assert sim.d_prime(5, v) == (1 if vec_to_int(v) & 0b11 == 0 else 0)


def test_cpf_validation_accepts_parallel_two_to_one():
    h = oss.random_two_to_one(4, prng.bit_stream(prng.PrfKey(b"\x65" * 32, b"h"), b"s"))
    q = oss.cpf_from_two_to_one(h, 4, 2)
    assert oss.validate_cpf(q)
    assert q.n_bits == 8 and q.m_bits == 6 and q.ell == 2


def test_cpf_validation_rejects_non_coset_partitions():
    # injective with a declared positive ell: wrong preimage size
    fake = oss.CosetPartitionFunction(4, 4, 1, lambda x: x, None)
    assert not oss.validate_cpf(fake)
    # right preimage sizes but a non-affine partition
    groups = [(0, 1, 2, 4), (3, 5, 6, 7), (8, 9, 10, 12), (11, 13, 14, 15)]
    table = {x: i for i, g in enumerate(groups) for x in g}
    crooked = oss.CosetPartitionFunction(4, 2, 2, lambda x: table[x], None)
    assert not oss.validate_cpf(crooked)
    with pytest.raises(ContractError):
        oss.embed_cpf(crooked, 4, b"\x66" * 32, validate=True)


def test_embedded_pair_coherent_and_collisions_map():
    h = oss.random_two_to_one(4, prng.bit_stream(prng.PrfKey(b"\x67" * 32, b"h"), b"s"))
    q = oss.cpf_from_two_to_one(h, 4, 2)
    emb = oss.embed_cpf(q, 8, b"\x68" * 32)
    for x in range(256):
        y, u = emb.p(x)
        assert emb.p_inv(y, u) == x
        # embed-then-hash equals Q after Gamma, pointwise
        assert y == q.evaluate(emb.gamma.forward(x))
    w0 = 3
    w1 = next(w for w in range(256) if w != w0 and q.evaluate(w) == q.evaluate(w0))
    x0, x1 = emb.gamma.inverse(w0), emb.gamma.inverse(w1)
    assert emb.p(x0)[0] == emb.p(x1)[0]
    assert (emb.back_map(x0), emb.back_map(x1)) == (w0, w1)


def test_hashq_as_approximate_cpf_deficiency_matches_slices():
    p = lwehash.MICRO
    qk, _ = lwehash.hashq_keygen(p, 2, prng.bit_stream(prng.PrfKey(b"\x51" * 32, b"lwe-tests"), b"m2"))
    # per-slice 1-to-1 domain fractions, exhaustively
    slice_frac = []
    for pk in qk.pks:
        two = sum(1 for x in range(1 << p.domain_bits)
                  if len(lwehash.hashl_invert(pk, lwehash.unpack_range(
                      p, lwehash.hashl_eval_packed(pk, x)))) == 2)
        slice_frac.append(two / (1 << p.domain_bits))
    # the fraction of hashq domain points whose image is a proper coset is
    # exactly the product of the per-slice two-to-one fractions
    proper = 0
    total = 1 << qk.n_bits
    for w in range(total):
        sets = lwehash.hashq_preimage_sets(qk, lwehash.hashq_eval(qk, w))
        if all(len(s) == 2 for s in sets):
            proper += 1
    assert abs(proper / total - slice_frac[0] * slice_frac[1]) < 1e-12


def test_instance_serialization_round_trip():
    inst = gen(6, 3, 6, tag=10)
    blob = oss.serialize_instance(inst)
    back = oss.deserialize_instance(blob)
    for x in range(64):
        assert oss.oss_p(back, x) == oss.oss_p(inst, x)
    for y in range(8):
        for vb in (0, 1, 17, 63):
            v = gf2.BitVector(vb, 6)
            assert oss.oss_d(back, y, v) == oss.oss_d(inst, y, v)


def test_oracle_mode_instance_with_a_d_reads_back():
    # d only shapes standard mode, so an oracle-mode file records d = 0
    inst = gen(8, 4, 8, tag=17, d=10)
    blob = oss.serialize_instance(inst)
    assert blob == oss.serialize_instance(gen(8, 4, 8, tag=17))
    back = oss.deserialize_instance(blob)
    assert all(oss.oss_p(back, x) == oss.oss_p(inst, x) for x in range(256))


# sha256 over the serialize_instance bytes of oracle and standard tiny instances,
# both after a self-reduction, and a realized simulated and embedded instance
INSTANCE_SHA256 = "3a31abfaa7a16b9a62a3b3d2d22ca4488e736da2d97d8093f792e1c732d746ca"


def test_instance_files_pinned_digest():
    orc = gen(8, 4, 8, tag=14)
    std = gen(8, 4, 8, tag=15, mode=oss.MODE_STANDARD, d=14)
    h = oss.random_two_to_one(4, prng.bit_stream(prng.PrfKey(b"\x6b" * 32, b"h"), b"s"))
    insts = [orc, std, oss.self_reduce(orc, b"\x6c" * 32).instance, oss.self_reduce(std, b"\x6d" * 32).instance,
             oss.realize_simulated(oss.simulate_from_smaller(gen(6, 3, 6, tag=16), 8, 8)),
             oss.realize_embedded(oss.embed_cpf(oss.cpf_from_two_to_one(h, 4, 2), 8, b"\x6e" * 32))]
    digest = hashlib.sha256()
    for inst in insts:
        blob = oss.serialize_instance(inst)
        assert oss.serialize_instance(oss.deserialize_instance(blob)) == blob
        digest.update(blob)
    assert digest.hexdigest() == INSTANCE_SHA256


def test_standard_mode_routes_through_outer_permutation():
    inst = gen(6, 3, 6, tag=11, mode=oss.MODE_STANDARD, d=8)
    for x in range(64):
        y, u = oss.oss_p(inst, x)
        w_out = inst.out_perm.forward(y)
        assert w_out & ((1 << 5) - 1) == 0  # padding zeros survive the routing
        assert oss.oss_p_inv(inst, y, u) == x
    # a y whose outer image has nonzero padding is never in the image
    bad_y = next(y for y in range(256) if inst.out_perm.forward(y) & 0b11111)
    assert oss.oss_p_inv(inst, bad_y, gf2.BitVector(0, 6)) is None


def test_seal_instance_has_label_and_matches():
    inst = gen(6, 3, 6, tag=12)
    sealed, dual = oss.seal_instance(inst)
    assert b"MOCK-IO" in sealed.label
    for x in range(64):
        packed = sealed.forward(x)
        assert sealed.inverse(packed) == x
        y, u = oss.oss_p(inst, x)
        assert packed == (y << 6) | vec_to_int(u)
        assert dual((y << 6)) == oss.oss_d(inst, y, gf2.BitVector(0, 6))


def test_prp_backed_instance_round_trips():
    inst = oss.oss_gen(OssParams.tiny(16, 8, 16), b"\x69" * 32)
    for x in (0, 1, 12345, 65535):
        y, u = oss.oss_p(inst, x)
        assert oss.oss_p_inv(inst, y, u) == x


def test_permutation_rule_keys_on_n_and_scales_past_exact_keys():
    std = gen(8, 4, 8, tag=13, mode=oss.MODE_STANDARD, d=14)
    # n <= 12: both permutations are Fisher-Yates tables on their seeded streams
    root = prng.PrfKey(bytes([113]) * 32, b"oss")
    for perm, tag, bits in ((std.pi, b"pi", 8), (std.out_perm, b"pi-out", 14)):
        want = oss.random_table_perm(bits, prng.bit_stream(root, tag))
        assert perm.n == 1 << bits
        assert [perm.forward(x) for x in range(1 << bits)] == [want.forward(x) for x in range(1 << bits)]
        assert all(perm.inverse(perm.forward(x)) == x for x in range(1 << bits))
    # Gamma on 2^80 is a scale key like Pi; an exact key there never finishes a draw
    sr = oss.self_reduce(oss.oss_gen(OssParams.paper_preset(2), b"\x42" * 32), b"\x43" * 32)
    y, u = oss.oss_p(sr.instance, 12345)
    assert oss.oss_p_inv(sr.instance, y, u) == 12345


def test_coset_memos_stay_bounded_and_keep_the_latest_y(monkeypatch):
    monkeypatch.setattr(oss, "_COSET_MEMO_MAX", 3)
    inst = oss.oss_gen(OssParams.tiny(16, 8, 16), b"\x6a" * 32)
    builds = [0]
    real = gf2.random_full_column_rank

    def counted(*args):
        builds[0] += 1
        return real(*args)

    monkeypatch.setattr(gf2, "random_full_column_rank", counted)
    for x in range(0, 1 << 16, 997):
        before = set(inst.coset_source._cache)
        y, u = oss.oss_p(inst, x)
        assert builds[0] == (y not in before)
        builds[0] = 0
        assert oss.oss_p_inv(inst, y, u) == x
        assert oss.oss_d(inst, y, gf2.BitVector(0, inst.k)) == 1
        assert builds[0] == 0  # P^-1 and D of the latest y reuse its coset
        for memo in (inst._solve_cache, inst.coset_source._cache):
            assert y in memo and len(memo) <= 3
