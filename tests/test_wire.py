"""Every serialized artifact round-trips byte for byte, and every deserializer
rejects truncated, overlong or mislabelled input with ContractError only."""

import hashlib
import re
import struct

import pytest

from ossprim import gf2, lwehash as lh, merge, nsprp, opprp, oss, prng, wire
from ossprim.errors import ContractError
from ossprim.prng import NodeId, PrfKey, bit_stream

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
    "punctured_prf_key": (lambda: prng.puncture_nodes(KEY, {NodeId(3, 5), NodeId(9, 300)}),
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


def _bad_permuted_merge_blob():
    pmk = _permuted_merge_key()
    hard = dict(pmk.hardcoded)
    hard[NodeId(1, 1)] += 5
    return merge.serialize_permuted(merge.PermutedMergeKey(
        pmk.punctured, hard, pmk.z, pmk.c, pmk.n0, pmk.n1, pmk.kappa))


def _bad_owp_public_blob():
    keys = _owp_keys()
    return opprp.serialize_owp_public(opprp.TrapdoorOwpKeys(keys.pk, None, keys.bits + 1))


def _sha256_owp_public_blob_22():
    blob = opprp.serialize_owp_public(opprp.owp_gen(b"\x73" * 32, 22))
    at = 4 + 2 + 2 + len(opprp.MOCK_LABEL) + 8 + 4  # the payload's PRF backend byte
    return _patched(blob, at, prng.BACKEND_SHA256)


def _wide_punctured_path_blob():
    blob = blob_of("punctured_prf_key")
    at = blob.index(b"\x03\x00\x05") + 2  # NodeId(3, 5): depth u16, one path byte
    return _patched(blob, at, 0xFF)


def _wide_hardcoded_path_blob():
    pmk = _permuted_merge_key()
    blob = merge.serialize_permuted(pmk)
    first = min(pmk.hardcoded, key=NodeId.sort_key)
    at = 4 + len(prng.serialize_punctured(pmk.punctured)) + 29 + 4 + 2  # first node's path u64
    return blob[:at] + (first.path | 1 << first.depth).to_bytes(8, "little") + blob[at + 8:]


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


def _bump(blob, at, delta):
    return _patched(blob, at, blob[at] + delta)


def _bump_permuted_merge_head(blob, at):
    """A permuted merge key blob with byte ``at`` of its (n0, n1, kappa, c, z)
    head, after the punctured key, raised by 1."""
    return _bump(blob, 4 + int.from_bytes(blob[:4], "little") + at, 1)


def _owp_tag_flipped(blob, tag_at):
    assert blob[tag_at:tag_at + 3] == b"prp"
    return _patched(blob, tag_at, blob[tag_at] ^ 1)


def _owp8_public_blob():
    return opprp.serialize_owp_public(opprp.owp_gen(b"\x73" * 32, 8))


OWP_PUBLIC_TAG_AT = 4 + 2 + 2 + len(opprp.MOCK_LABEL) + 8 + 4 + 3  # after the backend and tag length
OWP_SECRET_TAG_AT = 5 + 6 + 1 + 3


# (case, deserializer, corrupted blob factory, message fragment)
HEADER_CASES = [
    ("prf key backend id", prng.deserialize_key,
     lambda: _patched(blob_of("prf_key"), 0, 7), "backend"),
    ("punctured key backend id", prng.deserialize_punctured,
     lambda: _patched(blob_of("punctured_prf_key"), 0, 7), "backend"),
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
     _bad_permuted_merge_blob, "sum of its children"),
    ("permuted prp record kind", nsprp.deserialize_permuted_key,
     lambda: _patched(blob_of("permuted_prp_key"), 23, 3), "spine"),
    ("permuted prp child key size", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 2, lambda b: _bump(b, 0, 3)), "child key (N, kappa) (9,"),
    ("permuted prp merge key size", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 3, lambda b: _bump(b, 0, 1)), "merge key (n0, n1, kappa) (7,"),
    ("permuted prp permuted merge key size", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(1, 1, 0, 4, lambda b: _bump_permuted_merge_head(b, 0)),
     "merge key (n0, n1, kappa) (7,"),
    ("permuted prp merge swap c", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 1, 4, lambda b: _bump_permuted_merge_head(b, 20)),
     "merge swap (z, c)"),
    ("permuted prp recursion pile", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(4, 1, 0, 1, lambda flag: 1 - flag), "does not land in pile 1"),
    ("permuted prp bit record above N=2", nsprp.deserialize_permuted_key,
     lambda: _patched(_permuted_prp_blob(2, 0, 1), 0, 2), "kind-0 record at a level over N=3"),
    ("permuted prp swap z", nsprp.deserialize_permuted_key,
     lambda: _patched(blob_of("permuted_prp_key"), 12, 11), "swap z=11"),
    ("permuted prp bit record flag", nsprp.deserialize_permuted_key,
     lambda: _edit_spine_record(6, 1, 3, 1, lambda flag: 2), "malformed kind-0 record"),
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
