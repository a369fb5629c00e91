"""The coset hash oracle triple and its reduction simulators.

An instance holds a permutation Pi of {0,1}^n and, for every hash value y, a
coset of Z2^k described by a full-column-rank matrix A(y) and shift b(y).
The oracles are

    P(x)       = (y, A(y).J(x) + b(y))      with y = H(x),
    P^-1(y, u) = the unique preimage, or the first-class bottom value None,
    D(y, v)    = 1  iff  v^T A(y) = 0,

where H(x) / J(x) are the first r / remaining n-r output bits of Pi(x).  In
standard mode y is widened to d bits by routing H(x) || 0^(d-r) through the
inverse of a second permutation.

Vector/bit conventions: component i of a vector is bit (dim-1-i) of its
integer packing, so "first components" always means high bits and
concatenation reads left to right.

The reduction simulators mirror the proof machinery as running code: the
random self-reduction (fresh instance plus a collision back-map), dual
bloating (accept the kernel of the last n-r-s columns only), dual simulation
from a smaller instance, and coset-partition-function embedding.  Structural
``realize`` helpers reconstruct explicit instances certifying that simulated
triples live in the honest support.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import gf2, nsprp, prng
from .errors import ContractError, DimensionError, RangeError
from .gf2 import AffineCoset, BitMatrix, BitVector
from .opprp import MockObfuscation
from .permdecomp import Perm
from .prng import BitStream, PrfKey
from .wire import Reader

MODE_ORACLE = "oracle"
MODE_STANDARD = "standard"


def int_to_vec(val: int, dim: int) -> BitVector:
    """Component i = bit (dim-1-i): component 0 is the most significant bit."""
    return BitVector(gf2.reverse_bits(val, dim), dim)


def vec_to_int(v: BitVector) -> int:
    return gf2.reverse_bits(v.bits, v.dim)


@dataclass(frozen=True)
class OssParams:
    lam: int
    s: int
    r: int
    n: int
    k: int
    d: Optional[int] = None
    mode: str = MODE_ORACLE

    def __post_init__(self):
        if not (0 <= self.r < self.n <= self.k):
            raise ContractError("need r < n <= k")
        if self.mode == MODE_STANDARD:
            if self.d is None or self.d < self.n:
                raise ContractError("standard mode needs d >= n")

    @property
    def y_bits(self) -> int:
        """Width of a hash value: d in standard mode, r otherwise."""
        return self.d if self.mode == MODE_STANDARD else self.r

    @classmethod
    def paper_preset(cls, lam: int, mode: str = MODE_ORACLE, d: Optional[int] = None) -> "OssParams":
        s = 16 * lam
        r = s * (lam - 1)
        n = r + (3 * s) // 2
        k = n
        if mode == MODE_STANDARD and d is None:
            d = n
        return cls(lam, s, r, n, k, d, mode)

    @classmethod
    def tiny(cls, n: int, r: int, k: int, mode: str = MODE_ORACLE, d: Optional[int] = None) -> "OssParams":
        if mode == MODE_STANDARD and d is None:
            d = n
        return cls(0, n - r, r, n, k, d, mode)


# -- permutations ----------------------------------------------------------------

def table_perm(table: Iterable[int], n_bits: int) -> Perm:
    """Explicit permutation table of {0,1}^n_bits (tiny domains, ground-truth
    randomness)."""
    table = tuple(table)
    if len(table) != 1 << n_bits:
        raise DimensionError("table length != 2^n")
    if sorted(table) != list(range(len(table))):
        raise ContractError("table is not a permutation of [0, 2^n)")
    inv = [0] * len(table)
    for i, v in enumerate(table):
        inv[v] = i
    return Perm(len(table), table.__getitem__, tuple(inv).__getitem__)


def random_table_perm(n_bits: int, stream: BitStream) -> Perm:
    n = 1 << n_bits
    table = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates on the stream
        j = stream.randbelow(i + 1)
        table[i], table[j] = table[j], table[i]
    return table_perm(table, n_bits)


# -- coset sources ----------------------------------------------------------------

# The per-y coset memos hold at most _COSET_MEMO_MAX entries, where a paper
# preset allows 2^32 values of y.  A full memo starts over at the next new y,
# so the latest y always stays: P^-1 and D after P find its coset.
_COSET_MEMO_MAX = 1 << 8


def _remember(memo: dict, y: int, got) -> None:
    if len(memo) >= _COSET_MEMO_MAX:
        memo.clear()
    memo[y] = got


# y -> (basis, shift) of a coset of Z2^k
CosetSource = Callable[[int], tuple[BitMatrix, BitVector]]


@dataclass(frozen=True)
class PrfCosetSource:
    """(M(y), v(y)) from an unbounded derived bit stream labelled ``label:y``:
    M a random full-column-rank k x cols matrix (invertible when cols = k),
    v a random vector of Z2^k.

    Instances draw their cosets (A(y), b(y)) under ``coset``; the reductions
    draw their rerandomizers (C(y), d(y)) under ``cd``.  The rejection
    sampler consumes however many bits it needs; the fixed output budget a
    truly random F would have is replaced by the stream.
    """

    prf_key: PrfKey
    k: int
    cols: int
    label: bytes = b"coset"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __call__(self, y: int) -> tuple[BitMatrix, BitVector]:
        got = self._cache.get(y)
        if got is None:
            stream = prng.bit_stream(self.prf_key, b"%s:%d" % (self.label, y))
            got = (gf2.random_full_column_rank(self.k, self.cols, stream),
                   gf2.random_vector(self.k, stream))
            _remember(self._cache, y, got)
        return got


@dataclass(frozen=True)
class TransformedCosetSource:
    """A'(y) = C(y).A(y), b'(y) = C(y).b(y) + d(y): the per-y affine output
    rerandomization of the self-reduction and the CPF embedding."""

    base: CosetSource
    cd_source: CosetSource

    def __call__(self, y: int) -> tuple[BitMatrix, BitVector]:
        a, b = self.base(y)
        c, d = self.cd_source(y)
        return gf2.mat_mul(c, a), gf2.mat_mul_vec(c, b) ^ d


# -- the instance -----------------------------------------------------------------

@dataclass(frozen=True)
class OssInstance:
    params: OssParams
    pi: Perm
    coset_source: CosetSource
    out_perm: Optional[Perm] = None  # standard mode only
    _solve_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.pi.n != 1 << self.params.n:
            raise DimensionError("permutation width != n")
        if self.params.mode == MODE_STANDARD and self.out_perm is None:
            raise ContractError("standard mode needs the outer permutation")

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    def coset(self, y: int) -> AffineCoset:
        got = self._solve_cache.get(y)
        if got is None:
            a, b = self.coset_source(y)
            got = AffineCoset(a, b)
            _remember(self._solve_cache, y, got)
        return got


def _seeded_perm(root: PrfKey, tag: bytes, bits: int, n: int) -> Perm:
    """The permutation of {0,1}^bits seeded under ``tag`` for an instance on
    n input bits: an explicit table on a small instance whose table fits an
    instance file, otherwise a lazy PRP key of the width rule's choice
    (``nsprp.width_key``), which above 2^EXACT_MAX_BITS points rides the
    INSECURE-DEMO gauss path."""
    if n <= 12 and bits <= _MAX_TABLE_BITS:
        return random_table_perm(bits, prng.bit_stream(root, tag))
    # perfbench's tracer swaps this module's nsprp global after set-up, but the
    # Perm holds nsprp's own walks, so it times them as the oss query's self time
    return nsprp.prp_perm(nsprp.width_key(prng.derive_key(root, tag), bits))


def oss_gen(params: OssParams, seed: bytes) -> OssInstance:
    """Deterministic instance from a seed, its permutations seeded as
    ``_seeded_perm`` says."""
    root = PrfKey(seed, b"oss")
    pi = _seeded_perm(root, b"pi", params.n, params.n)
    out = _seeded_perm(root, b"pi-out", params.d, params.n) if params.mode == MODE_STANDARD else None
    src = PrfCosetSource(prng.derive_key(root, b"cosets"), params.k, params.n - params.r)
    return OssInstance(params, pi, src, out)


# -- the oracles ------------------------------------------------------------------

def _hash_parts(inst: OssInstance, x: int) -> tuple[int, int]:
    """(y, j_int): the hash value y and the raw coset coordinates of x."""
    p = inst.params
    w = inst.pi.forward(x)
    h = w >> (p.n - p.r)
    j = w & ((1 << (p.n - p.r)) - 1)
    if p.mode == MODE_STANDARD:
        y = inst.out_perm.inverse(h << (p.d - p.r))
    else:
        y = h
    return y, j


def oss_p(inst: OssInstance, x: int) -> tuple[int, BitVector]:
    p = inst.params
    if not 0 <= x < (1 << p.n):
        raise RangeError("input outside {0,1}^n")
    y, j = _hash_parts(inst, x)
    coset = inst.coset(y)
    u = coset.point(int_to_vec(j, p.n - p.r))
    return y, u


def oss_hash(inst: OssInstance, x: int) -> int:
    return oss_p(inst, x)[0]


def _check_y(p: OssParams, y: int) -> None:
    if not 0 <= y < (1 << p.y_bits):
        raise RangeError("y outside its range")


def oss_p_inv(inst: OssInstance, y: int, u: BitVector) -> Optional[int]:
    """The unique x with P(x) = (y, u), or None off the image."""
    p = inst.params
    _check_y(p, y)
    if u.dim != p.k:
        raise DimensionError("u must live in Z2^k")
    if p.mode == MODE_STANDARD:
        w_out = inst.out_perm.forward(y)
        if w_out & ((1 << (p.d - p.r)) - 1):
            return None
        h = w_out >> (p.d - p.r)
    else:
        h = y
    z = gf2.solve_coordinates(inst.coset(y), u)
    if z is None:
        return None
    j = vec_to_int(z)
    return inst.pi.inverse((h << (p.n - p.r)) | j)


def oss_d(inst: OssInstance, y: int, v: BitVector) -> int:
    """1 iff v^T A(y) = 0, i.e. v is orthogonal to the coset's direction."""
    return _orthogonal(inst, y, v, 0)


def _orthogonal(inst: OssInstance, y: int, v: BitVector, first: int) -> int:
    """1 iff v^T a = 0 for every column a of A(y) from index ``first`` on."""
    _check_y(inst.params, y)
    if v.dim != inst.params.k:
        raise DimensionError("v must live in Z2^k")
    a, _ = inst.coset_source(y)
    for col in a.cols[first:]:
        if (col & v.bits).bit_count() & 1:
            return 0
    return 1


def seal_instance(inst: OssInstance) -> tuple[MockObfuscation, Callable]:
    """Mock-obfuscation wrapping of (P, P^-1) plus D.

    Returns (sealed P/P^-1 pair, sealed D); the pair carries the warning label.  Packed encoding: P maps x
    to (y << k) | u; P^-1 of a packed pair returns x or None.
    """
    p = inst.params

    def fwd(x: int) -> int:
        y, u = oss_p(inst, x)
        return (y << p.k) | vec_to_int(u)

    def inv(packed: int) -> Optional[int]:
        return oss_p_inv(inst, packed >> p.k, int_to_vec(packed & ((1 << p.k) - 1), p.k))

    def dual(packed: int) -> int:
        return oss_d(inst, packed >> p.k, int_to_vec(packed & ((1 << p.k) - 1), p.k))

    sealed = MockObfuscation(1 << p.n, fwd, inv, payload=b"oss-instance")
    return sealed, dual


# -- random self-reduction ----------------------------------------------------------

@dataclass(frozen=True)
class SelfReduction:
    instance: OssInstance
    back_map: Callable[[int], int]  # collisions of the new H to the old H


def self_reduce(inst: OssInstance, seed: bytes) -> SelfReduction:
    """Fresh-looking instance: Pi' = Pi o Gamma, A' = C_y A, b' = C_y b + d_y.

    Gamma is a seeded random permutation of the inputs, chosen as in oss_gen;
    any collision (x0, x1) of the new hash maps through Gamma to a collision
    of the source instance.
    """
    p = inst.params
    root = PrfKey(seed, b"selfreduce")
    gamma = _seeded_perm(root, b"gamma", p.n, p.n)
    cd = PrfCosetSource(prng.derive_key(root, b"cd"), p.k, p.k, b"cd")
    new_src = TransformedCosetSource(inst.coset_source, cd)
    inst2 = OssInstance(p, gamma.then(inst.pi), new_src, inst.out_perm)
    return SelfReduction(inst2, gamma.forward)


# -- dual bloating ------------------------------------------------------------------

def bloat_dual(inst: OssInstance, s: int) -> Callable[[int, BitVector], int]:
    """D': accept v iff v^T A^(1)(y) = 0 for the last n-r-s columns of A(y).

    Every point D accepts stays accepted; per y the acceptance count grows by
    exactly 2^s (s constraints dropped from a full-column-rank system).
    """
    p = inst.params
    if not 0 <= s <= p.n - p.r:
        raise RangeError("need 0 <= s <= n-r")

    def d_prime(y: int, v: BitVector) -> int:
        return _orthogonal(inst, y, v, s)

    return d_prime


# -- simulating the dual from a smaller instance --------------------------------------

@dataclass(frozen=True)
class SimulatedTriple:
    """P, P^-1, D' built from a smaller dual-free instance.

    The triple sits in the support of the bloated distribution: realize()
    reconstructs an explicit instance (permutation plus block cosets) whose
    oracles agree pointwise, with the bloated dual checking exactly the
    last-block-zero vectors.
    """

    n: int
    r: int
    k: int
    s: int
    small: OssInstance
    p: Callable[[int], tuple[int, BitVector]]
    p_inv: Callable[[int, BitVector], Optional[int]]
    d_prime: Callable[[int, BitVector], int]
    back_map: Callable[[int], int]  # x -> the small-instance input part


def simulate_from_smaller(small: OssInstance, n: int, k: int) -> SimulatedTriple:
    """Expand an (r+s, r, k-(n-r-s)) instance to full size without its dual.

    The input grows by extra = n-r-s clear bits riding along in u; the
    bloated dual accepts exactly the vectors whose trailing block is zero.  A
    collision of the simulated hash with differing leading parts maps to a
    collision of the small instance.
    """
    sp = small.params
    if sp.mode != MODE_ORACLE:
        raise ContractError("dual simulation starts from an oracle-mode instance")
    r = sp.r
    s = sp.n - r
    extra = n - r - s
    if extra < 0 or k != sp.k + extra:
        raise DimensionError("need n >= r+s and k = k_small + (n-r-s)")
    mask = (1 << extra) - 1

    def p(x: int) -> tuple[int, BitVector]:
        if not 0 <= x < (1 << n):
            raise RangeError("input outside {0,1}^n")
        x_bar, x_til = x >> extra, x & mask
        y, u_bar = oss_p(small, x_bar)
        return y, int_to_vec((vec_to_int(u_bar) << extra) | x_til, k)

    def p_inv(y: int, u: BitVector) -> Optional[int]:
        if u.dim != k:
            raise DimensionError("u must live in Z2^k")
        u_int = vec_to_int(u)
        x_bar = oss_p_inv(small, y, int_to_vec(u_int >> extra, sp.k))
        if x_bar is None:
            return None
        return (x_bar << extra) | (u_int & mask)

    def d_prime(y: int, v: BitVector) -> int:
        if v.dim != k:
            raise DimensionError("v must live in Z2^k")
        return 1 if vec_to_int(v) & mask == 0 else 0

    return SimulatedTriple(n, r, k, s, small, p, p_inv, d_prime,
                           back_map=lambda x: x >> extra)


def realize_simulated(sim: SimulatedTriple) -> OssInstance:
    """Explicit instance whose honest oracles equal the simulated triple."""
    extra = sim.n - sim.r - sim.s
    mask = (1 << extra) - 1

    def widen(f: Callable[[int], int]) -> Callable[[int], int]:
        # f on the leading bits; the clear block rides along
        return lambda x: (f(x >> extra) << extra) | (x & mask)

    small_pi = sim.small.pi
    pi = Perm(1 << sim.n, widen(small_pi.forward), widen(small_pi.inverse))

    def src(y: int) -> tuple[BitMatrix, BitVector]:
        # column ints index components directly, so the small-instance block
        # keeps its bits and the clear block gets unit columns above it
        a_bar, b_bar = sim.small.coset_source(y)
        k_small = sim.small.params.k
        cols = list(a_bar.cols)
        cols += [1 << (k_small + j) for j in range(extra)]
        return BitMatrix(sim.k, tuple(cols)), BitVector(b_bar.bits, sim.k)

    params = OssParams(0, sim.s, sim.r, sim.n, sim.k, None, MODE_ORACLE)
    return OssInstance(params, pi, src)


# -- coset partition functions ---------------------------------------------------------

@dataclass(frozen=True)
class CosetPartitionFunction:
    """Q: {0,1}^n -> {0,1}^m whose preimage sets are 2^ell-point cosets.

    ``preimage_coset`` is a test oracle (None when unavailable); vectors use
    the instance-wide MSB-first component convention.
    """

    n_bits: int
    m_bits: int
    ell: int
    evaluate: Callable[[int], int]
    preimage_coset: Optional[Callable[[int], Optional[AffineCoset]]] = None


def random_two_to_one(n_bits: int, stream: BitStream) -> Callable[[int], int]:
    """Drop the last output bit of a seeded random permutation: exactly 2-to-1."""
    perm = random_table_perm(n_bits, stream)
    return lambda x: perm.forward(x) >> 1


def cpf_from_two_to_one(h: Callable[[int], int], n_bits: int, ell: int) -> CosetPartitionFunction:
    """The ell-wise parallel application of a 2-to-1 function.

    Preimage sets are direct sums of the per-slice preimage pairs, and a pair
    {x0, x1} is the coset x0 + {0, x0^x1}; direct sums of cosets are cosets.
    ell = 1 is the base function itself.
    """
    if ell < 1:
        raise RangeError("ell >= 1")
    out_bits = n_bits - 1
    n_total = n_bits * ell
    in_widths = [n_bits] * ell

    def evaluate(x: int) -> int:
        return gf2.join_fields(map(h, gf2.split_fields(x, in_widths)), [out_bits] * ell)

    # exhaustive preimage index, built on demand (test oracle only)
    cache: dict = {}

    def preimage_coset(y: int) -> Optional[AffineCoset]:
        if "idx" not in cache:
            idx: dict = {}
            for xi in range(1 << n_bits):
                idx.setdefault(h(xi), []).append(xi)
            cache["idx"] = idx
        pres = [cache["idx"].get(yi, ()) for yi in gf2.split_fields(y, [out_bits] * ell)]
        if any(len(pre) != 2 for pre in pres):
            return None  # off the image, or not a full 2^ell coset
        # column i: slice i's preimage difference, zero in the other slices
        cols = [gf2.join_fields([pre[0] ^ pre[1] if j == i else 0 for j, pre in enumerate(pres)], in_widths)
                for i in range(ell)]
        basis = BitMatrix(n_total, tuple(gf2.reverse_bits(c, n_total) for c in cols))
        return AffineCoset(basis, int_to_vec(gf2.join_fields([pre[0] for pre in pres], in_widths), n_total))

    return CosetPartitionFunction(n_total, out_bits * ell, ell, evaluate, preimage_coset)


def validate_cpf(q: CosetPartitionFunction) -> bool:
    """Exhaustively confirm every preimage set is a coset of dimension ell."""
    if q.n_bits > 16:
        raise RangeError("exhaustive validation above 2^16 refused")
    groups: dict = {}
    for x in range(1 << q.n_bits):
        groups.setdefault(q.evaluate(x), []).append(x)
    for y, members in groups.items():
        if len(members) != 1 << q.ell:
            return False
        x0 = members[0]
        diffs = BitMatrix(q.n_bits, tuple(gf2.reverse_bits(x ^ x0, q.n_bits) for x in members[1:]))
        if gf2.rank(diffs) != q.ell:
            return False
    return True


@dataclass(frozen=True)
class EmbeddedTriple:
    """(P, P^-1) pair embedding a coset partition function.

    P(x) = (Q(Gamma(x)), C_y.Gamma(x) + d_y); any hash collision maps through
    Gamma to a Q-collision.  realize() reconstructs the implicit instance
    from the CPF's preimage cosets (test oracle only).
    """

    n: int
    r: int
    k: int
    q: CosetPartitionFunction
    gamma: Perm
    cd_source: CosetSource
    p: Callable[[int], tuple[int, BitVector]]
    p_inv: Callable[[int, BitVector], Optional[int]]
    back_map: Callable[[int], int]


def embed_cpf(q: CosetPartitionFunction, k: int, seed: bytes,
              validate: bool = False) -> EmbeddedTriple:
    """Simulate (P, P^-1) from forward queries to a coset partition function."""
    n = q.n_bits
    r = q.m_bits
    if k < n:
        raise DimensionError("need k >= n for a full-column-rank embedding")
    if q.ell != n - r:
        raise ContractError("need an (n, r, n-r) coset partition function")
    if validate and not validate_cpf(q):
        raise ContractError("supplied function is not a coset partition function")
    root = PrfKey(seed, b"embed")
    gamma = random_table_perm(n, prng.bit_stream(root, b"gamma"))
    cd = PrfCosetSource(prng.derive_key(root, b"cd"), k, n, b"cd")

    def p(x: int) -> tuple[int, BitVector]:
        if not 0 <= x < (1 << n):
            raise RangeError("input outside {0,1}^n")
        w = gamma.forward(x)
        y = q.evaluate(w)
        c, d = cd(y)
        return y, gf2.mat_mul_vec(c, int_to_vec(w, n)) ^ d

    def p_inv(y: int, u: BitVector) -> Optional[int]:
        if u.dim != k:
            raise DimensionError("u must live in Z2^k")
        c, d = cd(y)
        w_vec = gf2.solve_coordinates(AffineCoset(c, d), u)
        if w_vec is None:
            return None
        w = vec_to_int(w_vec)
        if q.evaluate(w) != y:
            return None
        return gamma.inverse(w)

    return EmbeddedTriple(n, r, k, q, gamma, cd, p, p_inv, back_map=gamma.forward)


# -- instance files ------------------------------------------------------------------

_OSS_MAGIC = b"OSS1"
_MAX_TABLE_BITS = 14


def serialize_instance(inst: OssInstance) -> bytes:
    """Binary instance file: params header, permutation tables, coset table.

    The tables are written out in full, so this is a tiny-parameter format.
    """
    p = inst.params
    if max(p.n, p.d if p.mode == MODE_STANDARD else 0) > _MAX_TABLE_BITS:
        raise RangeError(f"instance files above 2^{_MAX_TABLE_BITS} refused")
    if p.k > 64:
        raise RangeError("instance files carry shifts as u64 (k <= 64)")
    mode = 1 if p.mode == MODE_STANDARD else 0
    head = _OSS_MAGIC + struct.pack("<BHHHH", mode, p.n, p.r, p.k, p.d if mode else 0)
    body = [head]
    body.append(struct.pack(f"<{1 << p.n}I", *map(inst.pi.forward, range(1 << p.n))))
    if mode:
        body.append(struct.pack(f"<{1 << p.d}I", *map(inst.out_perm.forward, range(1 << p.d))))
    body.append(struct.pack("<I", 1 << p.y_bits))
    for y in range(1 << p.y_bits):
        a, b = inst.coset_source(y)
        mat = gf2.serialize_matrix(a)
        body.append(struct.pack("<QI", y, len(mat)))
        body.append(mat)
        body.append(struct.pack("<Q", b.bits))
    return b"".join(body)


def deserialize_instance(data: bytes) -> OssInstance:
    r = Reader(data, "instance file")
    if r.take(4) != _OSS_MAGIC:
        raise ContractError("not an instance file")
    mode, n, r_bits, k, d = r.unpack("<BHHHH")
    if mode not in (0, 1):
        raise ContractError(f"unknown instance mode {mode}")
    if not mode and d:
        raise ContractError(f"oracle-mode instance with d = {d}")
    if max(n, d if mode else 0) > _MAX_TABLE_BITS:
        raise ContractError(f"instance tables above 2^{_MAX_TABLE_BITS}")
    params = OssParams(0, n - r_bits, r_bits, n, k, d if mode else None,
                       MODE_STANDARD if mode else MODE_ORACLE)
    pi = table_perm(r.unpack(f"<{1 << n}I"), n)
    out = table_perm(r.unpack(f"<{1 << d}I"), d) if mode else None
    (count,) = r.unpack("<I")
    if count != 1 << params.y_bits:
        raise ContractError(f"{count} cosets where 2^{params.y_bits} are due")
    cosets = []
    for want in range(count):
        (y,) = r.unpack("<Q")
        if y != want:
            raise ContractError(f"coset entry {want} is labelled y = {y}")
        a = gf2.deserialize_matrix(r.blob("<I"))
        if a.rows != k or a.ncols != n - r_bits or not gf2.is_full_column_rank(a):
            raise ContractError(f"coset matrix of y = {y} is not a full-column-rank "
                                f"{k} x {n - r_bits} matrix")
        (shift,) = r.unpack("<Q")
        cosets.append((a, BitVector(r.fits(shift, k, "coset shift"), k)))
    r.done()
    return OssInstance(params, pi, tuple(cosets).__getitem__, out)


def realize_embedded(emb: EmbeddedTriple) -> OssInstance:
    """Explicit instance equal to the embedded pair, from the CPF's cosets."""
    if emb.q.preimage_coset is None:
        raise ContractError("the CPF does not expose preimage cosets")
    q = emb.q
    n, r, k = emb.n, emb.r, emb.k

    def coordinates(w: int) -> int:
        # w as its hash value and its place in that value's preimage coset
        y = q.evaluate(w)
        j = gf2.solve_coordinates(q.preimage_coset(y), int_to_vec(w, n))
        return (y << (n - r)) | vec_to_int(j)

    def point(val: int) -> int:
        y, j = val >> (n - r), val & ((1 << (n - r)) - 1)
        return vec_to_int(q.preimage_coset(y).point(int_to_vec(j, n - r)))

    def preimage_coset(y: int) -> tuple[BitMatrix, BitVector]:
        coset = q.preimage_coset(y)
        return coset.basis, coset.shift

    params = OssParams(0, n - r, r, n, k, None, MODE_ORACLE)
    src = TransformedCosetSource(preimage_coset, emb.cd_source)
    return OssInstance(params, emb.gamma.then(Perm(1 << n, coordinates, point)), src)
