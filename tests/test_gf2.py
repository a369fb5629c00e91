import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from ossprim import gf2, lwehash, oss
from ossprim.errors import DimensionError, InvariantViolation
from ossprim.prng import PrfKey, bit_stream


def stream(tag=b"t"):
    return bit_stream(PrfKey(b"\x01" * 32, b"gf2-tests"), tag)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 70), max_size=8).flatmap(
    lambda ws: st.tuples(st.just(ws), st.tuples(*(st.integers(0, (1 << w) - 1) for w in ws)))))
def test_join_split_fields_round_trip(case):
    widths, values = case
    packed = gf2.join_fields(values, widths)
    # MSB-first: the fields' binary digits read left to right
    assert packed == int("0" + "".join(f"{v:0{w}b}" for v, w in zip(values, widths) if w), 2)
    assert gf2.split_fields(packed, widths) == list(values)
    # bits above the total width do not reach any field
    assert gf2.split_fields(packed | (5 << sum(widths)), widths) == list(values)


def test_join_fields_refuses_overwide_values():
    assert gf2.join_fields([1, 0, 2], [1, 0, 2]) == 0b110
    for values in ([2], [-1]):
        with pytest.raises(DimensionError):
            gf2.join_fields(values, [1])
    with pytest.raises(DimensionError):
        gf2.join_fields([1], [0])


def test_matvec_identity():
    v = gf2.BitVector.from_bits([1, 0, 1])
    assert gf2.mat_mul_vec(gf2.identity(3), v).to_list() == [1, 0, 1]


def test_matvec_zero_annihilates():
    v = gf2.BitVector.from_bits([1, 1])
    assert gf2.mat_mul_vec(gf2.BitMatrix(2, (0,) * 2), v).to_list() == [0, 0]


def test_matvec_hand_example():
    m = gf2.BitMatrix.from_rows([[1, 1], [0, 1]])
    v = gf2.BitVector.from_bits([1, 1])
    assert gf2.mat_mul_vec(m, v).to_list() == [0, 1]


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionError):
        gf2.mat_mul_vec(gf2.identity(3), gf2.BitVector.from_bits([1, 0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_matvec_linearity(rows, cols, data):
    m = gf2.BitMatrix(rows, tuple(data.draw(st.integers(0, (1 << rows) - 1)) for _ in range(cols)))
    v = gf2.BitVector(data.draw(st.integers(0, (1 << cols) - 1)), cols)
    w = gf2.BitVector(data.draw(st.integers(0, (1 << cols) - 1)), cols)
    assert gf2.mat_mul_vec(m, v ^ w) == gf2.mat_mul_vec(m, v) ^ gf2.mat_mul_vec(m, w)


def test_kernel_identity_trivial():
    kb = gf2.kernel_basis(gf2.identity(3))
    assert kb.ncols == 0


def test_kernel_zero_matrix_full():
    kb = gf2.kernel_basis(gf2.BitMatrix(2, (0,) * 1))
    assert kb.ncols == 2
    assert gf2.rank(kb) == 2


def test_kernel_hand_example():
    kb = gf2.kernel_basis(gf2.BitMatrix.from_rows([[1], [1]]))
    assert kb.ncols == 1
    assert kb.cols[0] == 0b11
    # exhaustive: the only vectors orthogonal to (1,1) are 00 and 11
    m = gf2.BitMatrix.from_rows([[1], [1]])
    sols = [v for v in range(4) if not ((m.cols[0] & v).bit_count() & 1)]
    assert sols == [0b00, 0b11]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 6), st.data())
def test_kernel_span_exhaustive(rows, cols, data):
    m = gf2.BitMatrix(rows, tuple(data.draw(st.integers(0, (1 << rows) - 1)) for _ in range(cols)))
    kb = gf2.kernel_basis(m)
    # every column satisfies the defining equation
    for j in range(kb.ncols):
        v = kb.cols[j]
        assert all(not ((c & v).bit_count() & 1) for c in m.cols)
    # rank-nullity against brute-force enumeration of all v
    brute = [v for v in range(1 << rows)
             if all(not ((c & v).bit_count() & 1) for c in m.cols)]
    assert len(brute) == 1 << kb.ncols
    assert kb.ncols == rows - gf2.rank(m)


def test_solve_coordinates_identity_basis():
    c = gf2.AffineCoset(gf2.identity(2), gf2.BitVector(0, 2))
    z = gf2.solve_coordinates(c, gf2.BitVector.from_bits([1, 0]))
    assert z.to_list() == [1, 0]


def test_solve_coordinates_absent():
    c = gf2.AffineCoset(gf2.BitMatrix.from_rows([[1], [0]]), gf2.BitVector.from_bits([0, 1]))
    # both coset points are (0,1) and (1,1); (0,0) is absent
    assert {p.bits for p in c.points()} == {0b10, 0b11}
    assert gf2.solve_coordinates(c, gf2.BitVector(0, 2)) is None


def test_solve_coordinates_shift_membership():
    c = gf2.AffineCoset(gf2.BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]]),
                        gf2.BitVector.from_bits([1, 0, 1]))
    assert gf2.solve_coordinates(c, c.shift).bits == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.data())
def test_solve_coordinates_roundtrip_exhaustive(rows, data):
    d = data.draw(st.integers(0, min(rows, 6)))
    basis = gf2.random_full_column_rank(rows, d, stream(bytes([rows, d])))
    shift = gf2.BitVector(data.draw(st.integers(0, (1 << rows) - 1)), rows)
    c = gf2.AffineCoset(basis, shift)
    for zb in range(1 << d):
        z = gf2.BitVector(zb, d)
        assert gf2.solve_coordinates(c, c.point(z)) == z


def test_coset_requires_full_column_rank():
    with pytest.raises(InvariantViolation):
        gf2.AffineCoset(gf2.BitMatrix.from_rows([[1, 1], [1, 1]]), gf2.BitVector(0, 2))


def test_random_full_column_rank_one_by_one():
    for tag in (b"a", b"b", b"c"):
        m = gf2.random_full_column_rank(1, 1, stream(tag))
        assert m.cols == (1,)


def test_random_full_column_rank_deterministic_and_ranked():
    m1 = gf2.random_full_column_rank(2, 2, stream(b"fixed"))
    m2 = gf2.random_full_column_rank(2, 2, stream(b"fixed"))
    assert m1 == m2
    assert gf2.rank(m1) == 2


def test_random_full_column_rank_empty():
    m = gf2.random_full_column_rank(3, 0, stream(b"e"))
    assert m.ncols == 0 and gf2.is_full_column_rank(m)


class _Exhausted(Exception):
    pass


class _ZeroBits:
    """A stream of ``left`` zero bits that raises _Exhausted once they run out."""

    def __init__(self, left):
        self.left = left

    def bits(self, n):
        if n > self.left:
            raise _Exhausted
        self.left -= n
        return 0


def test_random_full_column_rank_exhausted_stream():
    with pytest.raises(_Exhausted):
        gf2.random_full_column_rank(4, 4, _ZeroBits(6))


def test_elementary_factors_compose_to_matrix():
    for tag in (b"p", b"q"):
        m = gf2.random_invertible(4, stream(tag))
        ops = gf2.elementary_factors(m)
        for x in range(16):
            v = x
            for op in ops:
                v = gf2.apply_row_op(op, v)
            assert v == gf2.mat_mul_vec(m, gf2.BitVector(x, 4)).bits


def test_serialization_round_trip_and_frozen_bytes():
    m = gf2.BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    blob = gf2.serialize_matrix(m)
    # header: rows=3, cols=2 little-endian; one 64-bit word per column
    assert blob[:4] == b"\x03\x00\x02\x00"
    assert blob[4:12] == (0b011).to_bytes(8, "little")
    assert blob[12:20] == (0b110).to_bytes(8, "little")
    assert gf2.deserialize_matrix(blob) == m


# sha256 of _pinned_outputs(), recorded before the eliminations were merged
# into one echelon form; any change to a GF(2) result changes it
PINNED_SHA256 = "7eeefcc4a331f30fbc469ba49ffee140181c3dbf606fba25663b05a98f4e9cc0"


def _pinned_outputs() -> bytes:
    """GF(2) results across every elimination user: sampled full-column-rank
    matrices (rows 1-12, every cols <= rows, plus 80 x 48) with coset
    solves, ranks and kernels; LWE row picks and inversions; and the
    P, P^-1 and D tables of an (8, 4, 8) instance."""
    out = []
    mats = [(rows, cols) for rows in range(1, 13) for cols in range(rows + 1)] + [(80, 48)]
    for rows, cols in mats:
        s = stream(b"pinned" + bytes([rows, cols]))
        m = gf2.random_full_column_rank(rows, cols, s)
        c = gf2.AffineCoset(m, gf2.random_vector(rows, s))
        solves = [(gf2.solve_coordinates(c, c.point(gf2.random_vector(cols, s))),
                   gf2.solve_coordinates(c, gf2.random_vector(rows, s))) for _ in range(8)]
        # rank-deficient companions: neighbour sums appended, and raw draws
        sums = gf2.BitMatrix(rows, m.cols + tuple(a ^ b for a, b in zip(m.cols, m.cols[1:])))
        raw = gf2.BitMatrix(rows, tuple(s.bits(rows) for _ in range(cols + 2)))
        out.append((m.cols, solves, [(gf2.rank(x), gf2.kernel_basis(x).cols)
                                     for x in (m, sums, raw)]))
    seeds = [(lwehash.MICRO, bytes([i]) * 32) for i in range(12) if i not in (5, 6)]
    seeds += [(lwehash.INSECURE_DEMO, bytes([i]) * 32) for i in (0, 1)]
    for p, seed in seeds:
        pk, _ = lwehash.hashl_keygen(p, bit_stream(PrfKey(seed, b"enum"), b"lwe"))
        xs = range(1 << p.domain_bits) if p.domain_bits <= 7 else \
            [bit_stream(PrfKey(seed, b"pts"), b"x").bits(p.domain_bits) for _ in range(12)]
        pres = [[lwehash.pack_domain(p, *pre) for pre in
                 lwehash.hashl_invert(pk, lwehash.unpack_range(p, lwehash.hashl_eval_packed(pk, x)))]
                for x in xs]
        out.append(([int(i) for i in lwehash._invertible_rows(p, pk.b_mat)], pres))
    inst = oss.oss_gen(oss.OssParams.tiny(8, 4, 8), b"\x77" * 32)
    vecs = [gf2.BitVector(v, 8) for v in range(256)]
    out.append([oss.oss_p(inst, x) for x in range(256)])
    out.append([[(oss.oss_p_inv(inst, y, u), oss.oss_d(inst, y, u)) for u in vecs] for y in range(16)])
    return repr(out).encode()


def test_pinned_outputs_digest():
    assert hashlib.sha256(_pinned_outputs()).hexdigest() == PINNED_SHA256
