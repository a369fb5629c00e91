"""LWE-based approximate 2-to-1 trapdoor hash and its parallel repetition.

hashL(pk, (t, f), b) = B.t + f + b.c mod q over Z_q^v, with f confined to the
centered box (-B, B]^v and c = B.s + e for a short e.  Almost every image has
exactly two preimages, whose difference reveals s; the exceptions are points
whose f +- e falls off the box, and their measure is controlled by Bbar/B.

hashQ applies (n-r) independent hashL instances to the slices of an n-bit
input; its preimage sets are direct sums of the per-slice preimage pairs, so
proper images pull back to cosets of dimension n-r whose descriptions the
trapdoor extracts.

All shipped parameter sets are INSECURE-DEMO desk-scale toys.  Trapdoor
inversion enumerates the box residues of a row subset invertible mod q, or
all of Z_q^u when B has no such subset (the published constructions use
lattice trapdoor machinery instead); it is exact and complete at these
sizes, and nothing here claims concrete security.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import ContractError, DimensionError, RangeError
from .prng import BitStream
from .wire import Reader

INSECURE_DEMO_MAGIC = b"INSECURE-DEMO"


def _is_pow2(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


@dataclass(frozen=True)
class LweParams:
    u: int       # secret dimension
    v: int       # sample count
    q: int       # modulus, power of two
    B: int       # noise-box bound, power of two
    Bbar: int    # gaussian tail bound
    sigma: float # gaussian width

    def __post_init__(self):
        if not (_is_pow2(self.q) and _is_pow2(self.B)):
            raise ContractError("q and B must be powers of two")
        if not (self.sigma <= self.Bbar <= self.B <= self.q):
            raise ContractError("need sigma <= Bbar <= B <= q")
        if self.u < 1 or self.v < 1:
            raise RangeError("u, v must be positive")

    @property
    def lq(self) -> int:
        return self.q.bit_length() - 1

    @property
    def l2b(self) -> int:
        return (2 * self.B).bit_length() - 1

    @property
    def domain_bits(self) -> int:
        """Bits of one (t, f, b) input: u*log2(q) + v*log2(2B) + 1."""
        return self.u * self.lq + self.v * self.l2b + 1

    @property
    def range_bits(self) -> int:
        return self.v * self.lq


INSECURE_DEMO = LweParams(u=2, v=24, q=1 << 12, B=1 << 6, Bbar=1 << 3, sigma=2.0)
# micro preset: a 7-bit slice domain, small enough for exhaustive sweeps;
# most seeds give honestly disjoint lattice cosets at this scale
MICRO = LweParams(u=1, v=3, q=8, B=1, Bbar=1, sigma=0.5)


def centered_mod(x, modulus: int):
    """Centered residue in (-modulus/2, modulus/2]; works on ints and arrays."""
    half = modulus // 2
    return (x + half - 1) % modulus - half + 1


@dataclass(frozen=True)
class LweKey:
    params: LweParams
    b_mat: np.ndarray  # v x u, int64 in [0,q)
    c_vec: np.ndarray  # v, int64 in [0,q)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class LweTrapdoor:
    s: np.ndarray  # u, int64 in [0,q)
    e: np.ndarray  # v, int64 in (-Bbar, Bbar]


def _binomial_tail_sample(p: LweParams, stream: BitStream) -> int:
    """Centered binomial of variance ~ sigma^2 with exact tail truncation."""
    eta = max(1, round(2 * p.sigma * p.sigma))
    while True:
        acc = 0
        for _ in range(eta):
            acc += stream.bits(1) - stream.bits(1)
        if -p.Bbar < acc <= p.Bbar:
            return acc


def hashl_keygen(p: LweParams, stream: BitStream) -> tuple[LweKey, LweTrapdoor]:
    """pk = (B, c = B.s + e), td = (s, e); deterministic in the stream."""
    b_mat = np.array([[stream.bits(p.lq) for _ in range(p.u)] for _ in range(p.v)],
                     dtype=np.int64)
    s = np.array([stream.bits(p.lq) for _ in range(p.u)], dtype=np.int64)
    e = np.array([_binomial_tail_sample(p, stream) for _ in range(p.v)], dtype=np.int64)
    c = (b_mat @ s + e) % p.q
    return LweKey(p, b_mat, c), LweTrapdoor(s, e)


def hashl_eval(pk: LweKey, t: np.ndarray, f: np.ndarray, b: int) -> np.ndarray:
    """B.t + f + b.c mod q; f must sit in the centered box (-B, B]^v."""
    p = pk.params
    t = np.asarray(t, dtype=np.int64)
    f = np.asarray(f, dtype=np.int64)
    if t.shape != (p.u,) or f.shape != (p.v,):
        raise DimensionError("operand shapes do not match parameters")
    if ((f <= -p.B) | (f > p.B)).any():
        raise RangeError("f outside the centered box (-B, B]")
    return (pk.b_mat @ t + f + b * pk.c_vec) % p.q


def _invertible_rows(p: LweParams, b_mat: np.ndarray) -> list[int]:
    """The rows whose parity vectors are independent of the rows before them.

    When there are u of them they form a matrix invertible mod q (odd
    determinant); fewer means no row subset is invertible mod q.
    """
    return gf2.independent_columns(
        [sum((int(b_mat[i, j]) & 1) << j for j in range(p.u)) for i in range(p.v)])


def _inv_mod_q(mat: np.ndarray, q: int) -> np.ndarray:
    """Inverse of an odd-determinant matrix mod a power of two (Gauss)."""
    u = mat.shape[0]
    work = mat.astype(object) % q
    aug = np.eye(u, dtype=object)
    for col in range(u):
        piv = next(i for i in range(col, u) if work[i, col] % 2 == 1)
        work[[col, piv]] = work[[piv, col]]
        aug[[col, piv]] = aug[[piv, col]]
        inv_p = pow(int(work[col, col]), -1, q)
        work[col] = (work[col] * inv_p) % q
        aug[col] = (aug[col] * inv_p) % q
        for i in range(u):
            if i != col and work[i, col] % q:
                m = int(work[i, col])
                work[i] = (work[i] - m * work[col]) % q
                aug[i] = (aug[i] - m * aug[col]) % q
    return aug.astype(np.int64)


def _box(u: int, lo: int, hi: int) -> np.ndarray:
    """Every vector of [lo, hi)^u, one per column."""
    return np.stack(np.meshgrid(*[np.arange(lo, hi)] * u, indexing="ij")).reshape(u, -1)


def _invert_tables(pk: LweKey):
    """(rows, inverse mod q or None, candidate grid, screening rows) for
    inversion.  Without u invertible rows the grid is all of Z_q^u."""
    cached = pk._cache.get("invert")
    if cached is not None:
        return cached
    p = pk.params
    rows = _invertible_rows(p, pk.b_mat)
    extra = np.array([i for i in range(p.v) if i not in rows][:4], dtype=np.int64)
    if len(rows) == p.u:
        binv = _inv_mod_q(pk.b_mat[rows], p.q)
        grid = _box(p.u, -p.B + 1, p.B + 1)
    elif p.q ** p.u <= 1 << 16:
        binv, grid = None, _box(p.u, 0, p.q)
    else:
        raise RangeError("no invertible row subset and q^u > 2^16 candidates")
    tables = (rows, binv, grid, extra)
    pk._cache["invert"] = tables
    return tables


def hashl_invert(pk: LweKey, td: LweTrapdoor, y: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The full preimage set of y (size 0, 1, or 2 for honest keys).

    Solves z = B.t + f by enumerating the (2B)^u box residues on an
    invertible row subset, or every t in Z_q^u when B has no such subset;
    every candidate t is then screened against the remaining rows.  Complete
    because a true preimage's t is among the candidates; sound because every
    hit is re-verified.
    """
    p = pk.params
    y = np.asarray(y, dtype=np.int64) % p.q
    if p.u > 3:
        raise RangeError("toy inversion supports u <= 3")
    rows, binv, grid, extra = _invert_tables(pk)
    out = []
    seen = set()
    half = p.q // 2
    for b in (0, 1):
        z = (y - b * pk.c_vec) % p.q
        t_cands = grid if binv is None else (binv @ ((z[rows][:, None] - grid) % p.q)) % p.q
        resid = (z[extra][:, None] - pk.b_mat[extra] @ t_cands + half - 1) % p.q - half + 1
        alive = ((resid > -p.B) & (resid <= p.B)).all(axis=0)
        for idx in np.nonzero(alive)[0]:
            t = t_cands[:, idx]
            key = (b, tuple(int(x) for x in t))
            if key in seen:
                continue
            seen.add(key)
            f = centered_mod((z - pk.b_mat @ t) % p.q, p.q)
            if ((f > -p.B) & (f <= p.B)).all():
                if (hashl_eval(pk, t, f, b) == y).all():
                    out.append((t.copy(), f, b))
    return out


# -- bit packing ----------------------------------------------------------------

def _domain_widths(p: LweParams) -> list[int]:
    return [p.lq] * p.u + [p.l2b] * p.v + [1]


def pack_domain(p: LweParams, t: np.ndarray, f: np.ndarray, b: int) -> int:
    """(t, f, b) to a domain_bits-wide integer; b is the last (lowest) bit."""
    return gf2.join_fields([int(x) % p.q for x in t] + [int(x) + p.B - 1 for x in f] + [b & 1],
                           _domain_widths(p))


def unpack_domain(p: LweParams, val: int) -> tuple[np.ndarray, np.ndarray, int]:
    if not 0 <= val < 1 << p.domain_bits:
        raise RangeError(f"domain point {val} outside [0, 2^{p.domain_bits})")
    fields = gf2.split_fields(val, _domain_widths(p))
    t = np.array(fields[: p.u], dtype=np.int64)
    f = np.array(fields[p.u : -1], dtype=np.int64) - p.B + 1
    return t, f, fields[-1]


def pack_range(p: LweParams, y: np.ndarray) -> int:
    return gf2.join_fields([int(x) % p.q for x in y], [p.lq] * p.v)


def unpack_range(p: LweParams, val: int) -> np.ndarray:
    if not 0 <= val < 1 << p.range_bits:
        raise RangeError(f"range point {val} outside [0, 2^{p.range_bits})")
    return np.array(gf2.split_fields(val, [p.lq] * p.v), dtype=np.int64)


def hashl_eval_packed(pk: LweKey, x: int) -> int:
    t, f, b = unpack_domain(pk.params, x)
    return pack_range(pk.params, hashl_eval(pk, t, f, b))


# -- parallel repetition -----------------------------------------------------------

@dataclass(frozen=True)
class QKey:
    params: LweParams
    pks: tuple[LweKey, ...]

    @property
    def slices(self) -> int:
        return len(self.pks)

    @property
    def n_bits(self) -> int:
        return self.params.domain_bits * self.slices

    @property
    def r_bits(self) -> int:
        return (self.params.domain_bits - 1) * self.slices

    @property
    def out_bits(self) -> int:
        return self.params.range_bits * self.slices


@dataclass(frozen=True)
class QTrapdoor:
    tds: tuple[LweTrapdoor, ...]


def hashq_keygen(p: LweParams, slices: int, stream: BitStream) -> tuple[QKey, QTrapdoor]:
    pairs = [hashl_keygen(p, stream) for _ in range(slices)]
    return QKey(p, tuple(k for k, _ in pairs)), QTrapdoor(tuple(t for _, t in pairs))


def _input_widths(qk: QKey) -> list[int]:
    """Layout of an n-bit input: one packet per slice carrying its t||f part,
    then one coordinate bit b_i per slice."""
    return [qk.params.domain_bits - 1] * qk.slices + [1] * qk.slices


def _split_input(qk: QKey, w: int) -> list[int]:
    """Per-slice (t||f||b) inputs from the n-bit w."""
    if w < 0 or w >> qk.n_bits:
        raise RangeError("input outside {0,1}^n")
    fields = gf2.split_fields(w, _input_widths(qk))
    return [(packet << 1) | b for packet, b in zip(fields[: qk.slices], fields[qk.slices :])]


def _join_input(qk: QKey, slice_inputs: list[int]) -> int:
    return gf2.join_fields([si >> 1 for si in slice_inputs] + [si & 1 for si in slice_inputs],
                           _input_widths(qk))


def hashq_eval(qk: QKey, w: int) -> int:
    """Parallel application; slice outputs concatenate, first slice highest."""
    return gf2.join_fields([hashl_eval_packed(pk, si) for pk, si in zip(qk.pks, _split_input(qk, w))],
                           [qk.params.range_bits] * qk.slices)


def hashq_coords(qk: QKey, w: int) -> gf2.BitVector:
    """The last (n-r) bits of w as the coordinates vector z; component i is
    slice i's coordinate bit."""
    return gf2.BitVector(gf2.reverse_bits(w, qk.slices), qk.slices)


def hashq_preimage_sets(qk: QKey, td: QTrapdoor, a: int) -> list[list[int]]:
    """Per-slice preimage lists (as packed slice inputs) of output a."""
    outs = gf2.split_fields(a, [qk.params.range_bits] * qk.slices)
    result = []
    for pk, tdi, yi in zip(qk.pks, td.tds, outs):
        pre = hashl_invert(pk, tdi, unpack_range(qk.params, yi))
        result.append([pack_domain(qk.params, t, f, b) for (t, f, b) in pre])
    return result


def hashq_coset(qk: QKey, td: QTrapdoor, a: int) -> gf2.AffineCoset:
    """Coset description of the preimage set of a proper image a.

    Shift: the sum of the lifted b=0 slice preimages (b=1 stands in when a
    slice has no b=0 preimage); basis column i: the sum of slice i's two
    lifted preimages.  Raises when a slice has no preimage or the image is
    deficient (some slice 1-to-1), since no full-dimension coset exists then.
    """
    per_slice = hashq_preimage_sets(qk, td, a)
    n = qk.n_bits
    zeros = [0] * qk.slices
    shift_bits = 0
    cols = []
    deficient = []
    for i, pres in enumerate(per_slice):
        if not pres:
            raise ContractError(f"slice {i}: output not in the image")
        zero_side = [p for p in pres if (p & 1) == 0]
        one_side = [p for p in pres if (p & 1) == 1]
        # lift each side's first preimage into Z2^n with the other slices
        # zero; component j of a lifted preimage is its bit j from the MSB
        w0, w1 = (gf2.reverse_bits(_join_input(qk, zeros[:i] + [side[0]] + zeros[i + 1 :]), n)
                  if side else 0 for side in (zero_side, one_side))
        shift_bits ^= w0
        col = w0 ^ w1
        if not (zero_side and one_side):
            deficient.append(i)
        cols.append(col)
    if deficient:
        raise ContractError(f"deficient (1-to-1) slices {deficient}: preimage set is not a full coset")
    basis = gf2.BitMatrix(n, tuple(cols))
    return gf2.AffineCoset(basis, gf2.BitVector(shift_bits, n))


def reconstruct_from_coset(qk: QKey, coset: gf2.AffineCoset, z: gf2.BitVector) -> int:
    """w = basis.z + shift, re-packed into the n-bit integer layout."""
    return gf2.reverse_bits(coset.point(z).bits, qk.n_bits)


def measure_two_to_one_fraction(pk: LweKey, td: LweTrapdoor, samples: int, stream: BitStream) -> float:
    """Fraction of random domain points whose image has two preimages,
    measured honestly through trapdoor inversion."""
    p = pk.params
    hits = 0
    for _ in range(samples):
        x = stream.bits(p.domain_bits)
        t, f, b = unpack_domain(p, x)
        y = hashl_eval(pk, t, f, b)
        if len(hashl_invert(pk, td, y)) == 2:
            hits += 1
    return hits / samples


def partner_fraction(p: LweParams, td: LweTrapdoor) -> float:
    """prod_i (1 - |e_i|/(2B)): the chance that a uniform domain point's
    trapdoor partner, (t - s, f - e, 1) for b = 0, lies in the box.

    It counts only that partner, so it is the 2-to-1 fraction where no other
    collision exists.  It is checked against the measured fraction on
    INSECURE_DEMO keys only: at MICRO it differs from the enumerated fraction
    for some seeds.
    """
    return float(np.prod(1 - np.abs(td.e) / (2 * p.B)))


# -- serialization ------------------------------------------------------------------

def serialize_params(p: LweParams) -> str:
    """Text key=value parameter description."""
    return "".join(f"{k}={v}\n" for k, v in
                   [("u", p.u), ("v", p.v), ("q", p.q), ("B", p.B),
                    ("Bbar", p.Bbar), ("sigma", p.sigma)])


def parse_params(text: str) -> LweParams:
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()
    missing = [key for key in ("u", "v", "q", "B", "Bbar", "sigma") if key not in kv]
    if missing:
        raise ContractError(f"parameter file lacks {', '.join(missing)}")
    try:
        return LweParams(u=int(kv["u"]), v=int(kv["v"]), q=int(kv["q"]),
                         B=int(kv["B"]), Bbar=int(kv["Bbar"]), sigma=float(kv["sigma"]))
    except ValueError as e:  # not a number, or a set LweParams rejects
        raise ContractError(f"bad LWE parameter value: {e}") from None


def serialize_key(pk: LweKey) -> bytes:
    head = INSECURE_DEMO_MAGIC + b"\x00"
    params = serialize_params(pk.params).encode()
    body = struct.pack("<H", len(params)) + params
    flat = np.concatenate([pk.b_mat.reshape(-1), pk.c_vec])
    body += struct.pack("<I", flat.size) + flat.astype("<i8").tobytes()
    return head + body


def deserialize_key(data: bytes) -> LweKey:
    r = Reader(data, "LWE key")
    if r.take(14) != INSECURE_DEMO_MAGIC + b"\x00":
        raise ContractError("not an LWE key file")
    try:
        text = r.blob("<H").decode()
    except UnicodeDecodeError:
        raise ContractError("LWE key parameter text is not UTF-8") from None
    p = parse_params(text)
    (size,) = r.unpack("<I")
    if size != p.v * (p.u + 1):
        raise ContractError(f"LWE key holds {size} entries, its parameters need {p.v * (p.u + 1)}")
    flat = np.frombuffer(r.take(8 * size), dtype="<i8").astype(np.int64)
    r.done()
    return LweKey(p, flat[: p.v * p.u].reshape(p.v, p.u), flat[p.v * p.u :])


def serialize_trapdoor(p: LweParams, td: LweTrapdoor) -> bytes:
    head = INSECURE_DEMO_MAGIC + b"\x01"
    flat = np.concatenate([td.s, td.e])
    return head + struct.pack("<HH", p.u, p.v) + flat.astype("<i8").tobytes()


def deserialize_trapdoor(data: bytes) -> LweTrapdoor:
    r = Reader(data, "LWE trapdoor")
    if r.take(14) != INSECURE_DEMO_MAGIC + b"\x01":
        raise ContractError("not an LWE trapdoor file")
    u, v = r.unpack("<HH")
    flat = np.frombuffer(r.take(8 * (u + v)), dtype="<i8").astype(np.int64)
    r.done()
    return LweTrapdoor(flat[:u], flat[u:])
