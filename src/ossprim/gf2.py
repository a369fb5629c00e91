"""Dense bit-packed linear algebra over GF(2).

Vectors and matrix columns are stored as Python integers (bit ``i`` is row
``i``), which packs 64 bits per machine word under the hood; matrices are
column-major tuples of such integers because column XOR dominates coset
evaluation.  All types are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import ContractError, DimensionError, InvariantViolation
from .wire import Reader


@dataclass(frozen=True)
class BitVector:
    """A vector in Z2^k; addition is XOR."""

    bits: int
    dim: int

    def __post_init__(self):
        if self.dim < 0 or self.bits < 0 or self.bits >> self.dim:
            raise DimensionError(f"bits do not fit in {self.dim} dimensions")

    @classmethod
    def from_bits(cls, seq: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for i, b in enumerate(seq):
            bits |= (b & 1) << i
            n = i + 1
        return cls(bits, n)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.dim != other.dim:
            raise DimensionError("xor of vectors with different dims")
        return BitVector(self.bits ^ other.bits, self.dim)

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.dim)]


def reverse_bits(val: int, dim: int) -> int:
    """The low ``dim`` bits of ``val`` in reverse order: bit dim-1-i lands on
    bit i.  Converts between MSB-first integer packings and component order."""
    return int(f"{val & ((1 << dim) - 1):0{dim}b}"[::-1], 2)


def join_fields(values: Iterable[int], widths: Iterable[int]) -> int:
    """Concatenate fields MSB-first: the first value lands in the highest bits.
    Each value must fit its width."""
    acc = 0
    for v, w in zip(values, widths, strict=True):
        if v < 0 or v >> w:
            raise DimensionError(f"field value {v} does not fit in {w} bits")
        acc = (acc << w) | v
    return acc


def split_fields(val: int, widths: Sequence[int]) -> list[int]:
    """The fields of ``val`` under ``widths``, first field highest; bits above
    the total width are ignored.  Inverts join_fields."""
    out = []
    for w in reversed(widths):
        out.append(val & ((1 << w) - 1))
        val >>= w
    return out[::-1]


@dataclass(frozen=True)
class BitMatrix:
    """A k x m matrix over Z2, column-major.

    ``cols[j]`` holds column j with bit i = entry (i, j).
    """

    rows: int
    cols: tuple[int, ...]

    def __post_init__(self):
        for c in self.cols:
            if c < 0 or c >> self.rows:
                raise DimensionError("column does not fit in row count")

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        cols = [0] * ncols
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise DimensionError("ragged rows")
            for j, b in enumerate(r):
                cols[j] |= (b & 1) << i
        return cls(nrows, tuple(cols))

    def entry(self, i: int, j: int) -> int:
        return (self.cols[j] >> i) & 1

    def column(self, j: int) -> BitVector:
        return BitVector(self.cols[j], self.rows)


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << i for i in range(n)))


def mat_mul_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): XOR of the columns selected by v."""
    if v.dim != m.ncols:
        raise DimensionError(f"vector dim {v.dim} != matrix cols {m.ncols}")
    acc = 0
    bits = v.bits
    j = 0
    while bits:
        if bits & 1:
            acc ^= m.cols[j]
        bits >>= 1
        j += 1
    return BitVector(acc, m.rows)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product a . b over GF(2)."""
    if a.ncols != b.rows:
        raise DimensionError("inner dimensions differ")
    cols = tuple(mat_mul_vec(a, b.column(j)).bits for j in range(b.ncols))
    return BitMatrix(a.rows, cols)


def _echelon(cols: Iterable[int]) -> list[tuple[int, int]]:
    """Echelon form of ``cols``: one (reduced column, mask) pair per column
    independent of the columns before it, leading bits strictly decreasing.

    Bit j of a mask marks input column j as a term of the reduced column.
    """
    ech: list[tuple[int, int]] = []
    for j, c in enumerate(cols):
        c, mask = _reduce(c, 1 << j, ech)
        if c:
            ech.append((c, mask))
            ech.sort(reverse=True)  # leading bits are distinct, so this orders them
    return ech


def _reduce(vec: int, mask: int, ech: list[tuple[int, int]]) -> tuple[int, int]:
    """Clear ``vec``'s bits at the echelon's leading bits; ``mask`` absorbs
    the masks of the rows used."""
    for rc, rm in ech:
        if vec ^ rc < vec:
            vec ^= rc
            mask ^= rm
    return vec, mask


def rank(m: BitMatrix) -> int:
    return len(_echelon(m.cols))


def independent_columns(cols: Sequence[int]) -> list[int]:
    """Indices of the columns independent of the columns before them."""
    # an independent column's own bit is the highest of its mask
    return sorted(mask.bit_length() - 1 for _, mask in _echelon(cols))


def is_full_column_rank(m: BitMatrix) -> bool:
    return rank(m) == m.ncols


def is_invertible(m: BitMatrix) -> bool:
    return m.rows == m.ncols and rank(m) == m.rows


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis (columns) of {v in Z2^rows : v^T . m = 0}.

    Column count equals rows(m) - rank(m); every returned column v satisfies
    v^T m = 0, i.e. v is orthogonal to each column of m.
    """
    k = m.rows
    # Equations: for each column c of m, sum_i v_i c_i = 0; the echelon rows
    # are independent equations over the k unknowns, ordered by pivot.
    eqs = [e for e, _ in reversed(_echelon(m.cols))]  # ascending pivots
    pivots = [e.bit_length() - 1 for e in eqs]
    pivot_set = set(pivots)
    basis_cols = []
    for f in range(k):
        if f in pivot_set:
            continue
        v = 1 << f
        # back-substitute pivot variables by ascending pivot
        for e, p in zip(eqs, pivots):
            # parity of e & v over non-pivot part decides bit p
            if (e & v).bit_count() & 1:
                v |= 1 << p
        basis_cols.append(v)
    return BitMatrix(k, tuple(basis_cols))


@dataclass(frozen=True)
class AffineCoset:
    """The coset {basis . z + shift : z in Z2^d} of Z2^k.

    ``basis`` must have full column rank, so coordinates are unique and the
    coset has exactly 2^d points.  The basis's echelon form is kept for
    solving coordinates.
    """

    basis: BitMatrix
    shift: BitVector
    _ech: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.shift.dim != self.basis.rows:
            raise DimensionError("shift dim != basis rows")
        ech = _echelon(self.basis.cols)
        if len(ech) != self.basis.ncols:
            raise InvariantViolation("coset basis is not full column rank")
        object.__setattr__(self, "_ech", tuple(ech))

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def point(self, z: BitVector) -> BitVector:
        return mat_mul_vec(self.basis, z) ^ self.shift

    def points(self) -> list[BitVector]:
        d = self.dim
        return [self.point(BitVector(z, d)) for z in range(1 << d)]

    def __contains__(self, u: BitVector) -> bool:
        return solve_coordinates(self, u) is not None


def solve_coordinates(c: AffineCoset, u: BitVector) -> Optional[BitVector]:
    """The unique z with basis.z + shift = u, or None when u is off the coset."""
    if u.dim != c.basis.rows:
        raise DimensionError("target dim != basis rows")
    rest, z = _reduce(u.bits ^ c.shift.bits, 0, c._ech)
    if rest:
        return None
    return BitVector(z, c.basis.ncols)


def random_vector(dim: int, stream) -> BitVector:
    return BitVector(stream.bits(dim), dim) if dim else BitVector(0, 0)


def random_full_column_rank(rows: int, cols: int, stream) -> BitMatrix:
    """Sample a uniformly random full-column-rank rows x cols matrix.

    Columns are drawn from ``stream``; a column that falls in the span of the
    previous ones is resampled alone, so the result is a deterministic
    function of the stream with bounded expected retries.
    """
    if cols > rows:
        raise DimensionError("cols > rows cannot be full column rank")
    ech: list[tuple[int, int]] = []
    out = []
    for _ in range(cols):
        while True:
            c = stream.bits(rows)
            red, _ = _reduce(c, 0, ech)
            if red:
                break
        out.append(c)
        ech.append((red, 0))
        ech.sort(reverse=True)
    return BitMatrix(rows, tuple(out))


def random_invertible(n: int, stream) -> BitMatrix:
    return random_full_column_rank(n, n, stream)


# -- elementary decomposition -------------------------------------------------

def elementary_factors(m: BitMatrix) -> list[tuple[str, int, int]]:
    """Decompose an invertible matrix into elementary row operations.

    Returns ops so that applying them left to right to the identity produces
    ``m``; each op is ("swap", i, j) exchanging rows i and j, or
    ("add", i, j) adding row j into row i.  Over GF(2) both are involutions.
    """
    if not is_invertible(m):
        raise ContractError("matrix is singular")
    n = m.rows
    rows = [sum(m.entry(i, j) << j for j in range(n)) for i in range(n)]
    inverse_ops: list[tuple[str, int, int]] = []
    for col in range(n):
        piv = next(i for i in range(col, n) if (rows[i] >> col) & 1)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            inverse_ops.append(("swap", col, piv))
        for i in range(n):
            if i != col and (rows[i] >> col) & 1:
                rows[i] ^= rows[col]
                inverse_ops.append(("add", i, col))
    # inverse_ops reduce m to I; factors of m are the inverses in reverse
    # order, and every elementary GF(2) op is its own inverse.
    return list(reversed(inverse_ops))


def apply_row_op(op: tuple[str, int, int], v: int) -> int:
    """Apply an elementary row op to a packed vector (bit i = entry i)."""
    kind, i, j = op
    if kind == "swap":
        bi, bj = (v >> i) & 1, (v >> j) & 1
        if bi != bj:
            v ^= (1 << i) | (1 << j)
        return v
    # row-add: entry i += entry j
    if (v >> j) & 1:
        v ^= 1 << i
    return v


# -- canonical serialization --------------------------------------------------

def serialize_matrix(m: BitMatrix) -> bytes:
    """Header (rows u16, cols u16, little-endian) + packed column words.

    Each column is ceil(rows/64) 64-bit little-endian words, low word first.
    """
    if m.rows > 0xFFFF or m.ncols > 0xFFFF:
        raise DimensionError("matrix too large for u16 header")
    nwords = (m.rows + 63) // 64
    out = [struct.pack("<HH", m.rows, m.ncols)]
    for c in m.cols:
        for w in range(nwords):
            out.append(struct.pack("<Q", (c >> (64 * w)) & 0xFFFFFFFFFFFFFFFF))
    return b"".join(out)


def deserialize_matrix(data: bytes) -> BitMatrix:
    r = Reader(data, "GF(2) matrix")
    rows, ncols = r.unpack("<HH")
    nbytes = 8 * ((rows + 63) // 64)
    cols = tuple(r.fits(int.from_bytes(r.take(nbytes), "little"), rows, "matrix column")
                 for _ in range(ncols))
    r.done()
    return BitMatrix(rows, cols)
