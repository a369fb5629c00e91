import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ossprim import checks, gf2, permdecomp as pd
from ossprim.errors import ContractError, DimensionError, RangeError


def assert_verified(g, expect_table=None):
    rep = pd.verify_decomposition(g)
    assert rep.ok, rep.failures[:3]
    if expect_table is not None:
        assert g.table() == expect_table


def test_neighbor_swap_basics():
    g = pd.neighbor_swap(4, 1)
    assert g.table() == [0, 2, 1, 3]
    assert g.length == 1
    assert_verified(g)
    assert g.inverse(2) == 1  # involution


def test_neighbor_swap_wraparound():
    g = pd.neighbor_swap(5, 4)
    assert g.table() == [4, 1, 2, 3, 0]
    assert_verified(g)


def test_transposition_frozen_schedule():
    g = pd.transposition(3, 0, 2)
    assert [g.step(i) for i in (1, 2, 3)] == [0, 1, 0]
    assert_verified(g, [2, 1, 0])


def test_transposition_adjacent_is_single_swap():
    g = pd.transposition(9, 4, 5)
    assert g.length == 1
    assert_verified(g)


def test_transposition_length_and_sweep():
    for (n, j, l) in [(8, 1, 6), (16, 0, 15), (32, 9, 23)]:
        g = pd.transposition(n, j, l)
        assert g.length == 2 * (l - j) - 1
        assert_verified(g)


def test_linear_cycle_definition_unrolled():
    assert_verified(pd.linear_cycle(4, 0, 3), [3, 0, 1, 2])


def test_linear_cycle_identity_and_inverse():
    g = pd.linear_cycle(6, 2, 2)
    assert g.length == 0 and g.table() == list(range(6))
    g = pd.linear_cycle(7, 1, 5)
    for x in range(7):
        assert g.inverse(g.forward(x)) == x
    assert_verified(g)


def test_scalar_add_wraps():
    g = pd.scalar_add(5, 2)
    assert g.forward(3) == 0
    assert_verified(g, [2, 3, 4, 0, 1])


def test_scalar_add_zero_is_identity():
    g = pd.scalar_add(9, 0)
    assert g.length == 0
    assert_verified(g, list(range(9)))


def test_scalar_add_needs_a_nonempty_domain():
    for n in (0, -3):
        with pytest.raises(RangeError):
            pd.scalar_add(n, 1)


def test_scalar_add_sweep():
    for n in (2, 3, 8, 16):
        for s in range(n):
            assert_verified(pd.scalar_add(n, s), [(x + s) % n for x in range(n)])


def test_involution_bit_reversal():
    rev = lambda x: int(f"{x:03b}"[::-1], 2)
    assert_verified(pd.involution(8, rev), [rev(x) for x in range(8)])


def test_involution_identity_empty_schedule():
    g = pd.involution(8, lambda x: x)
    assert g.length == 0
    assert_verified(g)


def test_involution_end_swap():
    n = 12
    f = lambda x: {0: n - 1, n - 1: 0}.get(x, x)
    assert_verified(pd.involution(n, f))


def test_involution_rejects_non_involution():
    with pytest.raises(ContractError):
        pd.involution(8, lambda x: (x + 1) % 8)


def test_compose_identity_neutral():
    g = pd.transposition(6, 1, 4)
    left = pd.compose(pd.identity_perm(6), g)
    right = pd.compose(g, pd.identity_perm(6))
    assert left.table() == g.table() == right.table()
    assert pd.identity_perm(6).then(g).table() == g.table() == g.then(pd.identity_perm(6)).table()
    assert_verified(left)
    assert_verified(right)


def test_compose_applies_first_argument_first():
    g = pd.compose(pd.scalar_add(6, 2), pd.transposition(6, 0, 5))
    want = [pd.transposition(6, 0, 5).forward((x + 2) % 6) for x in range(6)]
    assert_verified(g, want)
    p = pd.scalar_add(6, 2).then(pd.transposition(6, 0, 5))
    assert p.table() == want
    assert [p.inverse(y) for y in want] == list(range(6))
    for join in (pd.compose, pd.Perm.then):
        with pytest.raises(DimensionError):
            join(pd.scalar_add(6, 2), pd.scalar_add(4, 1))


def test_controlled_brute_force():
    g = pd.controlled(4, lambda v: pd.scalar_add(4, v), 4)
    want = [v * 4 + (a + v) % 4 for v in range(4) for a in range(4)]
    assert_verified(g, want)


def test_conditional_fires_only_on_target():
    g = pd.conditional(4, pd.transposition(4, 0, 3), 2, 3)
    for v in range(3):
        for a in range(4):
            want = (3 if a == 0 else (0 if a == 3 else a)) if v == 2 else a
            assert g.forward(v * 4 + a) == v * 4 + want
    assert_verified(g)


def test_conjugate_matches_composition_and_verifies():
    lam = pd.Perm(8, lambda x: (5 * x + 3) % 8, lambda y: (5 * (y - 3)) % 8)
    base = pd.scalar_add(8, 3)
    g = pd.conjugate(lam, base)
    assert g.table() == [lam.inverse(base.forward(lam.forward(x))) for x in range(8)]
    assert_verified(g)


def test_product_components():
    g = pd.product(3, pd.linear_cycle(3, 0, 2), 4, pd.scalar_add(4, 1))
    want = [pd.linear_cycle(3, 0, 2).forward(x) * 4 + (y + 1) % 4
            for x in range(3) for y in range(4)]
    assert_verified(g, want)


def test_affine_identity_plus_shift():
    v = gf2.BitVector.from_bits([1, 0, 0])
    g = pd.affine_gf2(3, gf2.identity(3), v)
    assert_verified(g, [x ^ 1 for x in range(8)])
    gid = pd.affine_gf2(3, gf2.identity(3), gf2.BitVector(0, 3))
    assert gid.table() == list(range(8))


def test_affine_random_invertible_full_check():
    from ossprim.prng import PrfKey, bit_stream
    stream = bit_stream(PrfKey(b"\x31" * 32, b"t"), b"A")
    a = gf2.random_invertible(4, stream)
    v = gf2.BitVector(stream.bits(4), 4)
    g = pd.affine_gf2(4, a, v)
    want = [gf2.mat_mul_vec(a, gf2.BitVector(x, 4)).bits ^ v.bits for x in range(16)]
    assert_verified(g, want)


def test_affine_rejects_singular():
    with pytest.raises(ContractError):
        pd.affine_gf2(2, gf2.BitMatrix.from_rows([[1, 1], [1, 1]]), gf2.BitVector(0, 2))


def test_ancilla_lift_table():
    g = pd.with_ancilla(pd.Perm(3, lambda x: (x + 1) % 3, lambda y: (y - 1) % 3))
    for x in range(3):
        assert g.forward(x * 3 + 0) == ((x + 1) % 3) * 3 + 0
    assert_verified(g)


def test_step_locality_and_inverse_consistency():
    g = pd.compose(pd.transposition(10, 2, 8), pd.scalar_add(10, 3))
    for i in range(1, g.length + 1):
        zi = g.step(i)
        here, before = g.prefix(i), g.prefix(i - 1)
        diff = [x for x in range(10) if here.forward(x) != before.forward(x)]
        assert set(diff) <= {zi, (zi + 1) % 10}
        for x in range(10):
            assert here.inverse(here.forward(x)) == x


def test_verify_detects_corrupted_schedule():
    bad = replace(pd.transposition(8, 1, 5), swaps=lambda i: 6)
    assert not pd.verify_decomposition(bad).ok


def test_verify_reports_a_wraparound_block_swap_as_a_failed_step():
    # a member's wraparound swap (3 0) is no neighbor swap inside its block
    rep = pd.verify_decomposition(pd.controlled(4, lambda v: pd.neighbor_swap(4, 3), 2))
    assert not rep.ok
    assert rep.failures == [f"step {i}: wraparound sub-swap cannot embed in a block" for i in (1, 2)]


def test_verify_detects_empty_schedule_with_nonidentity():
    bad = replace(pd.identity_perm(8), fwd=lambda x: x ^ 1, inv=lambda x: x ^ 1)
    assert not pd.verify_decomposition(bad).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 16), st.data())
def test_random_compositions_verify(n, data):
    parts = []
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["swap", "transp", "cycle", "add"]))
        if kind == "swap":
            parts.append(pd.neighbor_swap(n, data.draw(st.integers(0, n - 1))))
        elif kind == "transp":
            j = data.draw(st.integers(0, n - 2))
            parts.append(pd.transposition(n, j, data.draw(st.integers(j + 1, n - 1))))
        elif kind == "cycle":
            j = data.draw(st.integers(0, n - 1))
            parts.append(pd.linear_cycle(n, j, data.draw(st.integers(j, n - 1))))
        else:
            parts.append(pd.scalar_add(n, data.draw(st.integers(0, n - 1))))
    g = pd.compose_all(parts)
    rep = pd.verify_decomposition(g, budget=1 << 16)
    assert rep.ok, rep.failures[:3]


def test_parse_language_and_compose_order():
    g = pd.parse_perm("swap 8 3; transp 8 0 5")
    want = [pd.transposition(8, 0, 5).forward(pd.neighbor_swap(8, 3).forward(x))
            for x in range(8)]
    assert g.table() == want
    assert_verified(g)
    with pytest.raises(ContractError):
        pd.parse_perm("frobnicate 8 1")
    with pytest.raises(DimensionError):
        pd.parse_perm("swap 8 1; swap 4 1")


def test_parse_affine():
    # A = identity over 3 bits (bits 0,4,8 set), v = e2
    g = pd.parse_perm("affine 3 111 4")
    assert g.table() == [x ^ 4 for x in range(8)]


# Descriptions whose schedules are pinned next to the Fig.-5 families.
PINNED_DESCS = [
    "transp 8 0 5; add 8 3",
    "cycle 16 2 9",
    "affine 3 10b 2",
    "swap 8 7; affine 3 6a 5; add 8 6",
    "swap 8 3; transp 8 0 5; cycle 8 1 6; add 8 3; affine 3 10b 2",
]
# sha256 over every pinned permutation's size, length, steps and every
# Gamma_i and Gamma_i^-1 table: the schedules themselves are the contract,
# not only the verification oracle's verdict on them.
PINNED_SCHEDULES_SHA256 = "8309b4f19cfe362e011f4c7324f43ea99e62cd20865c314c3fd76086ffde83f8"


def _schedule_digest(perms):
    total = hashlib.sha256()
    for g in perms:
        h = hashlib.sha256()
        h.update(f"{g.n} {g.length}\n".encode())
        h.update(repr([g.step(i) for i in range(1, g.length + 1)]).encode())
        for i in range(g.length + 1):
            p = g.prefix(i)
            h.update(repr([p.forward(x) for x in range(g.n)]).encode())
            h.update(repr([p.inverse(x) for x in range(g.n)]).encode())
        total.update(h.hexdigest().encode())
    return total.hexdigest()


def _pinned_perms():
    return [g for _, g in checks._fig5_constructors(32)] + [pd.parse_perm(d) for d in PINNED_DESCS]


def test_schedules_match_pinned_digest():
    assert _schedule_digest(_pinned_perms()) == PINNED_SCHEDULES_SHA256


def test_schedule_indices_outside_their_range_are_range_errors():
    for g in _pinned_perms():
        for i in (-1, g.length + 1):
            with pytest.raises(RangeError):
                g.prefix(i)
        for i in (0, g.length + 1):
            with pytest.raises(RangeError):
                g.step(i)
