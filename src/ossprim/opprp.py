"""Output-permutable PRP over the neighbor-swap PRP, mock obfuscation, the
trapdoor one-way permutation, and the fixed-sparse-trigger program template.

The obfuscator here is a MOCK: a sealed evaluator pair whose serialized form
embeds the key material verbatim next to a warning label.  It provides the
API shape and correctness of obfuscated programs and intentionally no hiding;
nothing in this package claims security from it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from . import merge as merge_mod, nsprp, prng
from .errors import ContractError, DimensionError, RangeError
from .nsprp import PrpKey, prp_forward, prp_inverse, prp_perm
from .permdecomp import DecomposablePermutation, Perm
from .prng import PrfKey
from .wire import Reader

MOCK_LABEL = b"MOCK-IO: FUNCTIONAL ONLY, NO HIDING"
_OWP_MAGIC = b"OWPK"


@dataclass(frozen=True)
class MockObfuscation(Perm):
    """Correctness-only stand-in for program obfuscation: a sealed pair.

    ``payload`` is whatever reconstructs the program (for key-backed programs,
    the key itself, verbatim); the label rides along in every serialization.
    """

    payload: bytes = b""
    label: bytes = MOCK_LABEL

    def serialize(self) -> bytes:
        # the domain size is stored as n-1 so 2^64 fits in the u64 field
        return (
            struct.pack("<H", len(self.label)) + self.label
            + struct.pack("<QI", self.n - 1, len(self.payload)) + self.payload
        )


def _seal(k: PrpKey, c: int, p: Perm, label: bytes = MOCK_LABEL) -> MockObfuscation:
    """``p`` sealed with the mock payload of a program over ``k``: its PRF
    key, N - 1 and c, verbatim."""
    payload = prng.serialize_key(k.prf_key) + struct.pack("<QB", k.n - 1, c)
    return MockObfuscation(p.n, p.forward, p.inverse, payload, label)


def op_permute(k: PrpKey, g: DecomposablePermutation, c: int) -> MockObfuscation:
    """Deterministic permuted key: the sealed pair computing Gamma^c o Pi(k, .)
    and its inverse Pi^-1(k, Gamma^-c(.)); it composes g on the output iff c=1."""
    if g.n != k.n:
        raise DimensionError("permutation domain != PRP domain")
    if c not in (0, 1):
        raise RangeError("c is a bit")
    return _seal(k, c, prp_perm(k).then(g) if c else prp_perm(k))


# -- trapdoor one-way permutation ------------------------------------------------

@dataclass(frozen=True)
class TrapdoorOwpKeys:
    pk: MockObfuscation
    sk: PrpKey
    bits: int


def _owp_key(seed: bytes, bits: int) -> PrpKey:
    """The secret PRP key of ``owp_gen``'s pair on {0,1}^bits."""
    if not 1 <= bits <= 64:
        raise ContractError(f"OWP key bits {bits} outside [1, 64]")
    return nsprp.width_key(PrfKey(seed, nsprp.PRP_TAG), bits)


def _owp_read_key(what: str, prf_key: PrfKey, bits: int) -> PrpKey:
    """The PRP key of an OWP key file, which must be the one ``owp_gen``
    makes from the file's seed."""
    sk = _owp_key(prf_key.seed, bits)
    if prf_key != sk.prf_key:
        raise ContractError(f"a {bits}-bit {what} with PRF backend {prf_key.backend} and PRF tag "
                            f"{prf_key.domain_tag!r} is not the key owp_gen makes from its seed")
    return sk


def _owp_public(sk: PrpKey, label: bytes = MOCK_LABEL) -> MockObfuscation:
    """The sealed permutation of ``sk``, carrying the key verbatim."""
    return _seal(sk, 0, prp_perm(sk), label)


def owp_gen(seed: bytes, bits: int) -> TrapdoorOwpKeys:
    """Key pair for the full-domain permutation on {0,1}^bits.

    Above ``merge.EXACT_MAX_BITS`` bits, where exact sampling is infeasible,
    the key is the INSECURE-DEMO fastmix key, which draws gauss.
    """
    sk = _owp_key(seed, bits)
    return TrapdoorOwpKeys(_owp_public(sk), sk, bits)


def owp_forward(pk: MockObfuscation, x: int) -> int:
    if not 0 <= x < pk.n:
        raise RangeError("input outside domain")
    return pk.forward(x)


def owp_invert(sk: PrpKey, y: int) -> int:
    if not 0 <= y < sk.n:
        raise RangeError("output outside domain")
    return prp_inverse(sk, y)


def serialize_owp_public(keys: TrapdoorOwpKeys) -> bytes:
    return _OWP_MAGIC + struct.pack("<H", keys.bits) + keys.pk.serialize()


def serialize_owp_secret(keys: TrapdoorOwpKeys) -> bytes:
    return _OWP_MAGIC + b"S" + struct.pack("<H", keys.bits) + merge_mod.sampler_key_bytes(keys.sk.prf_key)


def deserialize_owp_public(data: bytes) -> MockObfuscation:
    r = Reader(data, "OWP public key")
    if r.take(4) != _OWP_MAGIC:
        raise ContractError("not an OWP public key file")
    (bits,) = r.unpack("<H")
    label = r.blob("<H")
    if MOCK_LABEL not in label:
        raise ContractError("missing mock-obfuscation warning label")
    (n_minus_1,) = r.unpack("<Q")
    payload = r.blob("<I")
    r.done()
    p = Reader(payload, "OWP public key payload")
    prf_key = prng.deserialize_key(p.take(len(payload) - 9))
    pn_minus_1, c = p.unpack("<QB")
    p.done()
    pn = pn_minus_1 + 1
    if pn != n_minus_1 + 1 or pn != 1 << bits:
        raise ContractError("OWP public key domain sizes disagree")
    if c:
        raise ContractError(f"OWP public key payload flag {c} is not 0")
    return _owp_public(_owp_read_key(r.what, prf_key, bits), label)


def deserialize_owp_secret(data: bytes) -> TrapdoorOwpKeys:
    r = Reader(data, "OWP secret key")
    if r.take(5) != _OWP_MAGIC + b"S":
        raise ContractError("not an OWP secret key file")
    (bits,) = r.unpack("<H")
    sk = _owp_read_key(r.what, merge_mod.read_sampler_key(r), bits)
    return TrapdoorOwpKeys(_owp_public(sk), sk, bits)


# -- fixed sparse trigger template -------------------------------------------------

@dataclass(frozen=True)
class TriggerWidths:
    """Bit widths wiring the trigger template.

    in_bits: width of x; the pipeline is
    x -> P0 -> (x1: k0_bits, w1: w1_bits) -> Pi(k0, x1) -> (x2: t_bits, w2)
      -> [R(x2)? P1' : P1](w1, w2) -> (w3: k1_bits - t_bits, w4: w4_bits)
      -> Pi^-1(k1, x2 || w3) -> x3 -> P2(x3, w4) -> out.
    x2 is the top t_bits of Pi(k0, .)'s output, handed to Pi^-1(k1, .)
    unmodified; that structural property is what the template guarantees.
    """

    in_bits: int
    k0_bits: int
    w1_bits: int
    t_bits: int
    k1_bits: int
    w4_bits: int

    def validate(self) -> None:
        if not (0 < self.t_bits <= self.k0_bits and self.t_bits <= self.k1_bits):
            raise DimensionError("trigger slice wider than a permutation block")


def triggered_program(
    k0: PrpKey,
    k1: PrpKey,
    widths: TriggerWidths,
    p0: Callable[[int], tuple[int, int]],
    p1: Callable[[int, int], tuple[int, int]],
    p1_alt: Callable[[int, int], tuple[int, int]],
    p2: Callable[[int, int], int],
    interval: tuple[int, int],
) -> Callable[[int], int]:
    """The template program with trigger R(x2) = [a <= x2 < b).

    With an empty interval the output equals the untriggered template
    pointwise; with the full interval it equals the P1' variant everywhere.
    """
    widths.validate()
    if k0.n != 1 << widths.k0_bits or k1.n != 1 << widths.k1_bits:
        raise DimensionError("permutation domains do not match declared widths")
    a, b = interval
    if not (0 <= a <= b <= 1 << widths.t_bits):
        raise RangeError("interval outside [0, 2^t_bits]")
    w2_bits = widths.k0_bits - widths.t_bits
    w3_bits = widths.k1_bits - widths.t_bits

    def run(x: int) -> int:
        x1, w1 = p0(x)
        out01 = prp_forward(k0, x1)
        x2 = out01 >> w2_bits
        w2 = out01 & ((1 << w2_bits) - 1)
        w3, w4 = (p1_alt if a <= x2 < b else p1)(w1, w2)
        if w3 >> w3_bits:
            raise DimensionError("P1 emitted w3 wider than declared")
        x3 = prp_inverse(k1, (x2 << w3_bits) | w3)
        return p2(x3, w4)

    return run


def trigger_preimage_count(widths: TriggerWidths, interval: tuple[int, int]) -> int:
    """Exact count of Pi(k0, .) outputs whose x2 slice lands in the interval
    (the permutation is a bijection, so images count preimages)."""
    a, b = interval
    return (b - a) * (1 << (widths.k0_bits - widths.t_bits))
