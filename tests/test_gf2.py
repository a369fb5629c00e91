import pytest
from hypothesis import given, settings, strategies as st

from ossprim import gf2
from ossprim.errors import DimensionError, EntropyError, InvariantViolation
from ossprim.prng import FiniteBitStream, PrfKey, bit_stream


def stream(tag=b"t"):
    return bit_stream(PrfKey(b"\x01" * 32, b"gf2-tests"), tag)


def test_matvec_identity():
    v = gf2.BitVector.from_bits([1, 0, 1])
    assert gf2.mat_mul_vec(gf2.identity(3), v).to_list() == [1, 0, 1]


def test_matvec_zero_annihilates():
    v = gf2.BitVector.from_bits([1, 1])
    assert gf2.mat_mul_vec(gf2.zero_matrix(2, 2), v).to_list() == [0, 0]


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
    kb = gf2.kernel_basis(gf2.zero_matrix(2, 1))
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


def test_random_full_column_rank_exhausted_stream():
    with pytest.raises(EntropyError):
        gf2.random_full_column_rank(4, 4, FiniteBitStream(0, 6))


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
