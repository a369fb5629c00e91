"""Every serialized artifact round-trips byte for byte, and every deserializer
rejects truncated, overlong or mislabelled input with ContractError only."""

import hashlib
import re
import struct
from dataclasses import replace

import pytest

from ossprim import gf2, lwehash as lh, merge, nsprp, opprp, oss, prng, wire
from ossprim.errors import ContractError
from ossprim.prng import PrfKey, bit_stream

KEY = PrfKey(b"\x71" * 32, b"wire-tests")


def _merge_key():
    return merge.make_merge_key(b"\x72" * 32, 5, 6)


def _permuted_merge_key():
    k = _merge_key()
    return next(pmk for z in range(k.n - 1) if (pmk := merge.merge_permute(k, z, 1)))


def _owp_keys():
    return opprp.owp_gen(b"\x73" * 32, 6)


def _lwe_keys():
    return lh.hashl_keygen(lh.MICRO, bit_stream(KEY, b"lwe"))


# name -> (object factory, serialize, deserialize)
ARTIFACTS = {
    "prf_key": (lambda: KEY, prng.serialize_key, prng.deserialize_key),
    "punctured_prf_key": (lambda: prng.puncture_nodes(KEY, {1 << 3 | 5, 1 << 9 | 300}),
                          prng.serialize_punctured, prng.deserialize_punctured),
    "merge_key": (_merge_key, merge.serialize_key, merge.deserialize_key),
    "permuted_merge_key": (_permuted_merge_key, merge.serialize_permuted,
                           merge.deserialize_permuted),
    "prp_key": (lambda: nsprp.make_prp_key(b"\x74" * 32, 12),
                nsprp.serialize_key, nsprp.deserialize_key),
    "permuted_prp_key": (lambda: nsprp.prp_permute(nsprp.make_prp_key(b"\x74" * 32, 12), 4, 1),
                         nsprp.serialize_permuted_key, nsprp.deserialize_permuted_key),
    "owp_public": (lambda: _owp_keys().pk,
                   lambda pk: opprp.serialize_owp_public(
                       opprp.TrapdoorOwpKeys(pk, None, pk.n.bit_length() - 1)),
                   opprp.deserialize_owp_public),
    "owp_secret": (_owp_keys, opprp.serialize_owp_secret, opprp.deserialize_owp_secret),
    "gf2_matrix": (lambda: gf2.random_full_column_rank(70, 5, bit_stream(KEY, b"m")),
                   gf2.serialize_matrix, gf2.deserialize_matrix),
    "lwe_key": (lambda: _lwe_keys()[0], lh.serialize_key, lh.deserialize_key),
    "lwe_trapdoor": (lambda: _lwe_keys()[1], lambda td: lh.serialize_trapdoor(lh.MICRO, td),
                     lh.deserialize_trapdoor),
    "oss_instance": (lambda: oss.oss_gen(oss.OssParams.tiny(4, 2, 5), b"\x75" * 32),
                     oss.serialize_instance, oss.deserialize_instance),
}


def blob_of(name):
    make, ser, _ = ARTIFACTS[name]
    return ser(make())


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_round_trip_bytes_and_truncation(name):
    _, ser, de = ARTIFACTS[name]
    blob = blob_of(name)
    assert ser(de(blob)) == blob
    for bad in [blob[:i] for i in range(len(blob))] + [blob + b"\x00"]:
        with pytest.raises(ContractError):
            de(bad)


def _patched(blob, offset, value):
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


def _flip(blob, bit):
    return _patched(blob, bit // 8, blob[bit // 8] ^ 1 << bit % 8)


def _edited_permuted_merge_blob(tallies=None, punctured=lambda p: p):
    """The permuted merge key blob with the hard-coded tallies of ``tallies``,
    keyed by (depth, path), and its punctured key passed through ``punctured``.
    The key is the swap z=0, c=1 over n0=5, n1=6, whose table is (depth, path):
    tally (0, 0): 6, (1, 0): 3, (1, 1): 3, (2, 0): 2, (2, 1): 1, (3, 0): 1,
    (3, 1): 1, (4, 0): 1, (4, 1): 0."""
    pmk = _permuted_merge_key()
    hard = {**pmk.hardcoded, **{1 << depth | path: v for (depth, path), v in (tallies or {}).items()}}
    return merge.serialize_permuted(merge.PermutedMergeKey(
        punctured(pmk.punctured), hard, pmk.z, pmk.c, pmk.n0, pmk.n1))


def _bad_owp_public_blob():
    keys = _owp_keys()
    return opprp.serialize_owp_public(opprp.TrapdoorOwpKeys(keys.pk, None, keys.bits + 1))


def _sha256_owp_public_blob_22():
    blob = opprp.serialize_owp_public(opprp.owp_gen(b"\x73" * 32, 22))
    at = 4 + 2 + 2 + len(opprp.MOCK_LABEL) + 8 + 4  # the payload's PRF backend byte
    return _patched(blob, at, prng.BACKEND_SHA256)


def _wide_punctured_path_blob():
    blob = blob_of("punctured_prf_key")
    at = blob.index(b"\x03\x00\x05") + 2  # node (depth 3, path 5): depth u16, one path byte
    return _patched(blob, at, 0xFF)


def _wide_hardcoded_path_blob():
    pmk = _permuted_merge_key()
    blob = merge.serialize_permuted(pmk)
    first = min(pmk.hardcoded)
    at = 4 + len(prng.serialize_punctured(pmk.punctured)) + 29 + 4 + 2  # first node's path u64
    return blob[:at] + first.to_bytes(8, "little") + blob[at + 8:]


def _permuted_prp_blob(n, z, c):
    return nsprp.serialize_permuted_key(nsprp.prp_permute(nsprp.make_prp_key(b"\x74" * 32, n), z, c))


def _edit_spine_record(z, c, i, field, edit):
    """The N=12 permuted PRP key blob at (z, c) with ``edit`` applied to
    field ``field`` (kind, flag, then three blobs) of spine record ``i``."""
    r = wire.Reader(_permuted_prp_blob(12, z, c), "permuted PRP key")
    head = r.unpack("<QIQBH")
    records = [[*r.unpack("<BB"), r.blob("<I"), r.blob("<I"), r.blob("<I")] for _ in range(head[-1])]
    records[i][field] = edit(records[i][field])
    out = [struct.pack("<QIQBH", *head)]
    for kind, flag, *blobs in records:
        out.append(struct.pack("<BB", kind, flag))
        out += [struct.pack("<I", len(b)) + b for b in blobs]
    return b"".join(out)


def _as_fastmix(blob, mode_at):
    """A root key blob with its sampler mode byte at ``mode_at`` and the PRF
    backend byte after it set to gauss on fastmix."""
    return _patched(_patched(blob, mode_at, 1), mode_at + 1, prng.BACKEND_FASTMIX)


def _bump(blob, at, delta):
    return _patched(blob, at, blob[at] + delta)


def _bump_permuted_merge_head(blob, at, delta=1):
    """A permuted merge key blob with byte ``at`` of its (n0, n1, kappa, c, z)
    head, after the punctured key, raised by ``delta``."""
    return _bump(blob, 4 + int.from_bytes(blob[:4], "little") + at, delta)


def _owp_tag_flipped(blob, tag_at):
    assert blob[tag_at:tag_at + 3] == b"prp"
    return _patched(blob, tag_at, blob[tag_at] ^ 1)


def _owp8_public_blob():
    return opprp.serialize_owp_public(opprp.owp_gen(b"\x73" * 32, 8))


OWP_PUBLIC_TAG_AT = 4 + 2 + 2 + len(opprp.MOCK_LABEL) + 8 + 4 + 3  # after the backend and tag length
OWP_SECRET_TAG_AT = 5 + 6 + 1 + 3
OWP_SECRET_KAPPA_AT = 5 + 2  # the u32 kappa field's low byte, after the bits field


# (case, deserializer, corrupted blob factory, message fragment)
HEADER_CASES = [
    ("prf key backend id", prng.deserialize_key,
     lambda: _patched(blob_of("prf_key"), 0, 7), "backend"),
    ("punctured key backend id", prng.deserialize_punctured,
     lambda: _patched(blob_of("punctured_prf_key"), 0, 7), "backend"),
    ("punctured key fastmix backend id", prng.deserialize_punctured,
     lambda: _patched(blob_of("punctured_prf_key"), 0, prng.BACKEND_FASTMIX), "backend id 2"),
    ("merge key sampler mode", merge.deserialize_key,
     lambda: _patched(blob_of("merge_key"), 20, 5), "sampler"),
    ("prp key sampler mode", nsprp.deserialize_key,
     lambda: _patched(blob_of("prp_key"), 12, 5), "sampler"),
    ("owp secret sampler mode", opprp.deserialize_owp_secret,
     lambda: _patched(blob_of("owp_secret"), 11, 5), "sampler"),
    ("owp secret bits", opprp.deserialize_owp_secret,
     lambda: _patched(blob_of("owp_secret"), 5, 6 ^ 0x40), "bits 70 outside [1, 64]"),
    ("owp secret exact sampler at 22 bits", opprp.deserialize_owp_secret,
     lambda: _patched(blob_of("owp_secret"), 5, 6 ^ 0x10), "22-bit OWP secret key"),
    ("owp secret gauss sampler on sha256", opprp.deserialize_owp_secret,
     lambda: _patched(blob_of("owp_secret"), 11, 1), "gauss sampler mode on PRF backend 1"),
    ("owp public sha256 backend at 22 bits", opprp.deserialize_owp_public,
     _sha256_owp_public_blob_22, "22-bit OWP public key"),
    ("lwe key head", lh.deserialize_key,
     lambda: b"LWE-TD-------\x00" + blob_of("lwe_key")[14:], "LWE key"),
    ("lwe key parameter text not UTF-8", lh.deserialize_key,
     lambda: _patched(blob_of("lwe_key"), 16, 0xFF), "not UTF-8"),
    ("lwe key parameter not a number", lh.deserialize_key,
     lambda: _patched(blob_of("lwe_key"), 18, ord("x")), "bad LWE parameter value"),
    ("lwe trapdoor head", lh.deserialize_trapdoor,
     lambda: _patched(blob_of("lwe_trapdoor"), 13, 0), "LWE trapdoor"),
    ("permuted merge parent != left + right", merge.deserialize_permuted,
     lambda: _edited_permuted_merge_blob({(1, 1): 8}), "sum of its children"),
    # a permuted merge key whose tables are not those merge_permute builds
    ("permuted merge swap z", merge.deserialize_permuted,
     lambda: _bump_permuted_merge_head(blob_of("permuted_merge_key"), 21, 10),
     "permuted merge key swap z=10, c=1 outside [0, N-1)"),
    ("permuted merge nodes of another N", merge.deserialize_permuted,  # n1 6 -> 2
     lambda: _flip(blob_of("permuted_merge_key"), 1722),
     "permuted merge key hard-coded nodes are not those of the swap at z=0"),
    ("permuted merge punctured nodes", merge.deserialize_permuted,
     lambda: _edited_permuted_merge_blob(punctured=lambda p: replace(p, punctured=p.punctured[:-1])),
     "permuted merge key punctured nodes are not those of the swap at z=0"),
    ("permuted merge copath positions", merge.deserialize_permuted,
     lambda: _edited_permuted_merge_blob(punctured=lambda p: replace(p, copath=p.copath[:-1])),
     "permuted merge key copath positions are not those of the swap at z=0"),
    ("permuted merge tally above its span", merge.deserialize_permuted,
     lambda: _edited_permuted_merge_blob({(0, 0): 9, (1, 1): 6}),
     "hard-coded tally 6 at node (depth 1, path 1) outside [0, 5]"),
    ("permuted merge root tally", merge.deserialize_permuted,
     lambda: _edited_permuted_merge_blob({(0, 0): 5, (1, 1): 2}),
     "permuted merge key root tally 5 is not n1 = 6"),
    ("permuted merge equal leaves", merge.deserialize_permuted,
     lambda: _edited_permuted_merge_blob({(3, 0): 2, (3, 1): 0, (4, 1): 1}),
     "permuted merge key leaves z=0 and z+1 hold the same pile bit"),
    ("permuted prp record kind", nsprp.deserialize_permuted_key,
     lambda: _patched(blob_of("permuted_prp_key"), 23, 3), "spine"),
    ("permuted prp child key size", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 2, lambda b: _bump(b, 0, 3)), "child key N 9 where its level has 6"),
    ("permuted prp merge key size", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 3, lambda b: _bump(b, 0, 1)), "merge key (n0, n1) (7,"),
    ("permuted prp permuted merge key size", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(1, 1, 0, 4, lambda b: _bump_permuted_merge_head(b, 0)),
     "permuted merge key hard-coded nodes are not those of the swap at z=1"),
    ("permuted prp merge swap c", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 1, 4, lambda b: _bump_permuted_merge_head(b, 20)),
     "permuted merge key swap z=3, c=2 outside [0, N-1) x {0, 1}"),
    ("permuted prp recursion pile", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 1, lambda flag: 1 - flag), "does not land in pile 1"),
    ("permuted prp bit record above N=2", nsprp.deserialize_permuted_key,
     lambda: _patched(_permuted_prp_blob(2, 0, 1), 0, 2), "kind-0 record at a level over N=3"),
    ("permuted prp swap z", nsprp.deserialize_permuted_key,
     lambda: _patched(blob_of("permuted_prp_key"), 12, 11), "swap z=11"),
    ("permuted prp bit record flag", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(6, 1, 3, 1, lambda flag: 2), "malformed kind-0 record"),
    # prp_permute permutes only exact keys: a spine with a gauss key in it
    ("permuted prp kind-1 fastmix child key", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(1, 1, 0, 2, lambda b: _as_fastmix(b, 12)),
     "permuted PRP key: child key on a fastmix PRF key"),
    ("permuted prp kind-2 fastmix merge key", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 3, lambda b: _as_fastmix(b, 20)),
     "permuted PRP key: merge key on a fastmix PRF key"),
    # a fastmix key's sampler mode set to exact
    ("prp key exact sampler on fastmix", nsprp.deserialize_key,
     lambda: _patched(nsprp.serialize_key(nsprp.make_scale_prp_key(b"\x74" * 32, 8)), 12, 0),
     "exact sampler mode on PRF backend"),
    ("merge key exact sampler on fastmix", merge.deserialize_key,
     lambda: _patched(merge.serialize_key(merge.make_merge_key(
         b"\x72" * 32, 5, 6, backend=prng.BACKEND_FASTMIX)), 20, 0),
     "exact sampler mode on PRF backend"),
    # a sha256 key's sampler mode set to gauss
    ("prp key gauss sampler on sha256", nsprp.deserialize_key,
     lambda: _patched(blob_of("prp_key"), 12, 1), "gauss sampler mode on PRF backend 1"),
    ("merge key gauss sampler on sha256", merge.deserialize_key,
     lambda: _patched(blob_of("merge_key"), 20, 1), "gauss sampler mode on PRF backend 1"),
    ("owp public prf tag", opprp.deserialize_owp_public,
     lambda: _owp_tag_flipped(_owp8_public_blob(), OWP_PUBLIC_TAG_AT), "PRF tag b'qrp'"),
    ("owp secret prf tag", opprp.deserialize_owp_secret,
     lambda: _owp_tag_flipped(opprp.serialize_owp_secret(opprp.owp_gen(b"\x73" * 32, 8)),
                              OWP_SECRET_TAG_AT), "PRF tag b'qrp'"),
    ("owp public payload flag", opprp.deserialize_owp_public,
     lambda: _owp8_public_blob()[:-1] + b"\x01", "payload flag 1"),
    ("owp public domain size", opprp.deserialize_owp_public,
     _bad_owp_public_blob, "domain"),
    # exact keys wider than the width rule's 2^20 points, and an OWP kappa
    # other than the one owp_gen uses
    ("prp key exact above 2^20 points", nsprp.deserialize_key,
     lambda: _patched(blob_of("prp_key"), 2, 0x10), "exact keys cover at most 2^20 points, not 1048588"),
    ("merge key exact above 2^20 points", merge.deserialize_key,
     lambda: _patched(blob_of("merge_key"), 3, 0x80), "exact keys cover at most 2^20 points, not 2147483659"),
    ("permuted merge key above 2^20 points", merge.deserialize_permuted,
     lambda: _bump_permuted_merge_head(blob_of("permuted_merge_key"), 2, 0x10),
     "exact keys cover at most 2^20 points, not 1048587"),
    ("owp secret kappa 6", opprp.deserialize_owp_secret,
     lambda: _patched(blob_of("owp_secret"), OWP_SECRET_KAPPA_AT, 6), "kappa 6 is not 128"),
    # a kappa other than the one draw precision, on every key format that carries one
    ("merge key kappa 0", merge.deserialize_key,
     lambda: _patched(blob_of("merge_key"), 16, 0), "kappa 0 is not 128"),
    ("prp key kappa 129", nsprp.deserialize_key,
     lambda: _patched(blob_of("prp_key"), 8, 129), "kappa 129 is not 128"),
    ("permuted merge key kappa 0", merge.deserialize_permuted,
     lambda: _bump_permuted_merge_head(blob_of("permuted_merge_key"), 16, -128), "kappa 0 is not 128"),
    ("permuted prp key kappa 0", nsprp.deserialize_permuted_key,
     lambda: _patched(blob_of("permuted_prp_key"), 8, 0), "kappa 0 is not 128"),
    ("instance mode", oss.deserialize_instance,
     lambda: _patched(blob_of("oss_instance"), 4, 2), "mode"),
    ("instance table width", oss.deserialize_instance,
     lambda: _patched(blob_of("oss_instance"), 5, 40), "2^14"),
    ("instance oracle-mode d", oss.deserialize_instance,
     lambda: _patched(blob_of("oss_instance"), 11, 5), "oracle-mode instance with d = 5"),
    # payload values wider than the width their header declares
    ("punctured key node path", prng.deserialize_punctured,
     _wide_punctured_path_blob, "node path wider than 3 bits"),
    ("permuted merge node path", merge.deserialize_permuted,
     _wide_hardcoded_path_blob, "node path wider than"),
    ("matrix column", gf2.deserialize_matrix,
     lambda: _patched(blob_of("gf2_matrix"), 4 + 15, 0xFF), "matrix column wider than 70 bits"),
    ("instance coset shift", oss.deserialize_instance,
     lambda: _patched(blob_of("oss_instance"), len(blob_of("oss_instance")) - 1, 1),
     "coset shift wider than"),
]


@pytest.mark.parametrize("case,de,make_blob,fragment", HEADER_CASES, ids=[c[0] for c in HEADER_CASES])
def test_header_fields_are_validated(case, de, make_blob, fragment):
    with pytest.raises(ContractError, match=re.escape(fragment)):
        de(make_blob())


def _spread(n):
    """At most 4 points of [0, n): both ends and two in between."""
    return sorted({0, n // 3, 2 * n // 3, n - 1})


def _merge_points(k):
    for z in _spread(k.n):
        merge.merge_forward(k, *merge.merge_inverse(k, z))


def _prp_points(k):
    for x in _spread(k.n):
        nsprp.prp_inverse(k, nsprp.prp_forward(k, x))


# name -> evaluation of at most 4 points of a loaded artifact; an LWE
# trapdoor is only loaded, since it has no points of its own
EVALUATE = {
    "prf_key": lambda k: [prng.prf_eval(k, bytes([x]), 16) for x in range(4)],
    "punctured_prf_key": lambda pk: [prng.punctured_tree_eval(pk, pos, 16) for pos, _ in pk.copath[:4]],
    "merge_key": _merge_points,
    "permuted_merge_key": _merge_points,
    "prp_key": _prp_points,
    "permuted_prp_key": _prp_points,
    "owp_public": lambda pk: [pk.forward(x) for x in _spread(pk.n)],
    "owp_secret": lambda keys: [nsprp.prp_inverse(keys.sk, keys.pk.forward(x)) for x in _spread(keys.sk.n)],
    "gf2_matrix": lambda m: [gf2.mat_mul_vec(m, gf2.BitVector(x, m.ncols))
                             for x in _spread(1 << m.ncols)],
    "lwe_key": lambda pk: [lh.hashl_eval_packed(pk, x) for x in _spread(1 << pk.params.domain_bits)],
    "lwe_trapdoor": lambda td: None,
    "oss_instance": lambda inst: [oss.oss_p_inv(inst, *oss.oss_p(inst, x)) for x in _spread(1 << inst.n)],
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_every_bit_flip_is_refused_or_evaluates(name):
    """Flip every 7th bit of the blob, which hits every byte: the reader
    refuses the flipped blob with ContractError, or what it loads evaluates."""
    _, _, de = ARTIFACTS[name]
    blob = blob_of(name)
    for bit in range(0, 8 * len(blob), 7):
        try:
            loaded = de(_flip(blob, bit))
        except ContractError:
            continue
        try:
            EVALUATE[name](loaded)
        except Exception as e:
            pytest.fail(f"bit {bit} loads, then raises {e!r}")


# sha256 over the serialized bytes of exact and fastmix PRP and merge keys and
# of OWP key pairs on both sides of nsprp.EXACT_MAX_BITS, recorded before the
# PRF backend alone decided the sampler mode byte
KEY_BYTES_SHA256 = "e8fe7725de776f1cffd6ac3a8e53fa3d5737ccdca8cb4ebe9c67cc2c3b1d697e"


def test_key_bytes_pinned_digest():
    h = hashlib.sha256()
    h.update(nsprp.serialize_key(nsprp.make_prp_key(b"\x76" * 32, 12)))
    h.update(nsprp.serialize_key(nsprp.make_scale_prp_key(b"\x76" * 32, 40)))
    h.update(merge.serialize_key(merge.make_merge_key(b"\x77" * 32, 5, 6)))
    h.update(merge.serialize_key(merge.make_merge_key(b"\x77" * 32, 5, 6,
                                                      backend=prng.BACKEND_FASTMIX)))
    for bits in (1, 8, 20, 21, 22, 64):
        keys = opprp.owp_gen(b"\x78" * 32, bits)
        h.update(opprp.serialize_owp_public(keys))
        h.update(opprp.serialize_owp_secret(keys))
    assert h.hexdigest() == KEY_BYTES_SHA256


def test_parse_params_names_missing_keys():
    with pytest.raises(ContractError, match="q, B, Bbar, sigma"):
        lh.parse_params("u=4\nv=8\n")


def test_reader_contract():
    r = wire.Reader(b"\x05\x00abcdeZ", "demo")
    assert r.blob("<H") == b"abcde"
    with pytest.raises(ContractError, match="1 trailing bytes after demo"):
        r.done()
    assert r.rest() == b"Z"
    r.done()
    with pytest.raises(ContractError, match="truncated demo"):
        r.take(1)
    with pytest.raises(ContractError, match="truncated demo"):
        wire.Reader(b"abc", "demo").take(-1)
