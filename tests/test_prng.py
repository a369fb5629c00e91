import hashlib
import itertools
import random
import struct

import pytest

from ossprim import nsprp, prng
from ossprim.errors import DimensionError, PunctureError, UnsupportedBackend
from ossprim.prng import PrfKey
from ossprim.wire import Reader


K = PrfKey(b"\x07" * 32, b"prng-tests")


def all_inputs(bits):
    for val in range(1 << bits):
        yield val.to_bytes((bits + 7) // 8, "big")


def test_eval_deterministic():
    assert prng.prf_eval(K, b"hello", 16) == prng.prf_eval(K, b"hello", 16)


def test_eval_empty_input_allowed():
    out = prng.prf_eval(K, b"", 32)
    assert len(out) == 32


def test_no_collisions_among_many_inputs():
    seen = set()
    for i in range(10_000):
        out = prng.prf_eval(K, i.to_bytes(2, "big"), 16)
        assert out not in seen
        seen.add(out)


def test_puncture_empty_set_identical():
    pk = prng.puncture(K, [])
    for x in all_inputs(4):
        assert prng.punctured_eval(pk, x, 8) == prng.prf_eval(K, x, 8)


def test_puncture_single_point_exhaustive_4bit():
    target = b"\x06"
    pk = prng.puncture(K, [target])
    for x in all_inputs(8):
        if x == target:
            with pytest.raises(PunctureError):
                prng.punctured_eval(pk, x, 8)
        else:
            assert prng.punctured_eval(pk, x, 8) == prng.prf_eval(K, x, 8)


def test_total_puncture_has_empty_copath():
    pk = prng.puncture(K, [bytes([v]) for v in range(256)])
    assert pk.copath == ()
    with pytest.raises(PunctureError):
        prng.punctured_eval(pk, b"\x00", 8)


def test_nested_puncture_copath_shape():
    # puncturing the half-domain {00,01} of a 2-bit tree keeps one seed
    # for subtree 1 and nothing under 0
    key = PrfKey(b"\x08" * 32, b"tree")
    pk = prng.puncture_nodes(key, [0b100, 0b101], floor_depth=2)
    assert [pos for pos, _ in pk.copath] == [0b11]


def test_ggm_correctness_randomized_sets_10bit():
    key = PrfKey(b"\x09" * 32, b"ggm")
    s = [v.to_bytes(2, "big") for v in (3, 77, 500, 1001)]
    pk = prng.puncture(key, s)
    closed = {int.from_bytes(x, "big") for x in s}
    for v in range(1 << 10):
        x = v.to_bytes(2, "big")
        if v in closed:
            with pytest.raises(PunctureError):
                prng.punctured_eval(pk, x, 4)
        else:
            assert prng.punctured_eval(pk, x, 4) == prng.prf_eval(key, x, 4)


def test_puncture_soundness_no_path_seed_in_blob():
    key = PrfKey(b"\x0a" * 32, b"sound")
    target = b"\x2a"
    pk = prng.puncture(key, [target])
    blob = prng.serialize_punctured(pk)
    # recompute every seed on the punctured root-to-leaf path
    seed = key.root_seed()
    path_seeds = [seed]
    val = int.from_bytes(target, "big")
    for lvl in range(8):
        seed = prng._expand(seed, (val >> (7 - lvl)) & 1)
        path_seeds.append(seed)
    for s in path_seeds:
        assert s not in blob


def test_copath_positions_pairwise_non_ancestral():
    key = PrfKey(b"\x0b" * 32, b"anc")
    pk = prng.puncture(key, [b"\x00", b"\xff", b"\x81"])
    for (a, _), (b, _) in itertools.permutations(pk.copath, 2):
        assert all(b >> up != a for up in range(b.bit_length()))


def test_bit_stream_deterministic_and_balanced():
    s1 = prng.bit_stream(K, b"label")
    s2 = prng.bit_stream(K, b"label")
    n = 1_000_000
    a = s1.bits(n)
    assert a == s2.bits(n)
    ones = a.bit_count()
    sigma = (n ** 0.5) / 2
    assert abs(ones - n / 2) <= 4 * sigma


def test_bit_stream_label_separation():
    a = prng.bit_stream(K, b"one").bits(128)
    b = prng.bit_stream(K, b"two").bits(128)
    assert a != b


def test_key_serialization_round_trip():
    k = PrfKey(b"\x0c" * 32, b"tag-here")
    blob = prng.serialize_key(k)
    assert blob[0] == prng.BACKEND_SHA256
    assert prng.deserialize_key(blob) == k


def test_punctured_serialization_round_trip():
    pk = prng.puncture(K, [b"\x01", b"\x80"])
    back = prng.deserialize_punctured(prng.serialize_punctured(pk))
    assert back.punctured == pk.punctured
    assert back.copath == pk.copath
    for v in (0, 2, 64, 255):
        x = bytes([v])
        if x in (b"\x01", b"\x80"):
            continue
        assert prng.punctured_eval(back, x, 8) == prng.prf_eval(K, x, 8)


def test_fastmix_keys_refuse_the_prf_stream_derivation_and_puncturing():
    # a fastmix key supplies two key words to the scale path and nothing else
    k = PrfKey(b"\x0d" * 32, b"fast", prng.BACKEND_FASTMIX)
    assert k.fast_words() == struct.unpack("<QQ", k.root_seed()[:16])
    for refused in [lambda: prng.prf_eval(k, b"x", 8), lambda: prng.derive_key(k, b"x"),
                    lambda: prng.bit_stream(k, b"x"), lambda: prng.puncture_nodes(k, [0b10])]:
        with pytest.raises(UnsupportedBackend, match="fastmix keys supply key words only"):
            refused()


def test_mix64_matches_numpy_twin():
    import numpy as np

    from ossprim.fastpath import mix64_np

    for a, b, c in [(1, 2, 3), (2**64 - 1, 0x1234, 7), (0, 0, 0), (0xDEADBEEF, 2**63, 2**32)]:
        assert prng.mix64(a, b, c) == int(mix64_np(np.uint64(a), np.uint64(b), np.uint64(c)))


def test_descend_matches_stepwise_expand():
    rng = random.Random(6)
    for _ in range(300):
        depth = rng.randint(0, 130)
        node = 1 << depth | (rng.getrandbits(depth) if depth else 0)
        seed = rng.randbytes(32)
        walk = [seed]
        for lvl in range(depth):
            walk.append(prng._expand(walk[-1], (node >> (depth - 1 - lvl)) & 1))
        for from_depth in range(depth + 1):
            assert prng._descend(walk[from_depth], node, from_depth) == walk[depth]


def test_node_branches_are_the_path_bits_root_first():
    rng = random.Random(7)
    for depth in list(range(10)) + [rng.randint(10, 300) for _ in range(50)]:
        node = 1 << depth | (rng.getrandbits(depth) if depth else 0)
        assert prng._branches(node) == tuple(prng._BIT[node >> (depth - 1 - lvl) & 1] for lvl in range(depth))


def _finalize_reference(seed, out_len):
    blocks = (hashlib.sha256(seed + b"\xffout" + struct.pack("<I", ctr)).digest()
              for ctr in range((out_len + 31) // 32))
    return b"".join(blocks)[:out_len]


def test_finalize_matches_the_multi_block_stream():
    seed = bytes(range(32))
    for out_len in range(1, 101):
        assert prng._finalize(seed, out_len) == _finalize_reference(seed, out_len)


def test_node_branches_memo_is_bounded():
    size = prng._branches.cache_info().maxsize
    assert size == 256
    for i in range(size + 50):
        node = prng._bytes_to_node(i.to_bytes(4, "big"))
        assert node == 1 << 32 | i and prng._branches(node)[-1] == prng._BIT[i & 1]
    assert prng._branches.cache_info().currsize <= size
    node = prng._bytes_to_node(b"\x02xorbit")
    assert prng._branches(node) is prng._branches(node)


@pytest.mark.parametrize("node", [0, -1, -6])
def test_an_int_below_one_is_no_tree_node(node):
    pk = prng.puncture_nodes(K, [5])
    for refused in [lambda: prng.tree_eval(K, node, 8), lambda: prng.puncture_nodes(K, [3, node]),
                    lambda: prng.punctured_tree_eval(pk, node, 8)]:
        with pytest.raises(DimensionError, match=f"tree node {node} is not a heap index"):
            refused()


class _CountingHashlib:
    """Stands in for prng's hashlib binding and counts its SHA-256 calls."""

    def __init__(self, real):
        self.real, self.calls = real, 0

    def sha256(self, *args):
        self.calls += 1
        return self.real.sha256(*args)

    def __getattr__(self, name):
        return getattr(self.real, name)


@pytest.fixture
def sha256_calls(monkeypatch):
    counter = _CountingHashlib(prng.hashlib)
    monkeypatch.setattr(prng, "hashlib", counter)

    def calls(fn, *args):
        before = counter.calls
        fn(*args)
        return counter.calls - before

    return calls


@pytest.mark.parametrize("x", [b"", b"\x02xorbit", bytes(range(40))])
@pytest.mark.parametrize("out_len", [1, 16, 32, 33, 100])
def test_prf_eval_hashes_once_per_level_and_output_block(sha256_calls, x, out_len):
    k = PrfKey(b"\x11" * 32, b"count")
    warm = 8 * len(x) + (out_len + 31) // 32
    assert sha256_calls(prng.prf_eval, k, x, out_len) == warm + 1  # the root, once per key
    assert sha256_calls(prng.prf_eval, k, x, out_len) == warm


@pytest.mark.parametrize("label", [b"", b"merge", b"half1", bytes(range(40))])
def test_derive_key_hashes_once_per_label_level_and_output_block(sha256_calls, label):
    k = PrfKey(b"\x12" * 32, b"count")
    warm = 8 * len(label) + 1
    # the first derive also hashes the root and the 64-level derive prefix
    assert sha256_calls(prng.derive_key, k, label) == warm + 65
    assert sha256_calls(prng.derive_key, k, label) == warm


def test_level_labels_share_one_descent(sha256_calls):
    # half0 and half1 part at their 40th bit, merge leaves them after 5:
    # 40 + 1 + 35 levels and one output block per key
    k = PrfKey(b"\x12" * 32, b"count")
    labels = (b"half0", b"half1", b"merge")
    assert sha256_calls(prng.derive_key, k, *labels) == 1 + 64 + 76 + 3
    assert sha256_calls(prng.derive_key, k, *labels) == 76 + 3


def test_exact_prp_tables_pinned_hash_count(sha256_calls):
    # one descent per level for its three keys, no coins at one-point tallies
    k = nsprp.make_prp_key(b"\x2b" * 32, 256)

    def tables():
        forward = [nsprp.prp_forward(k, x) for x in range(256)]
        inverse = [nsprp.prp_inverse(k, z) for z in range(256)]
        assert [inverse[z] for z in forward] == list(range(256))

    assert sha256_calls(tables) == 50_018


@pytest.mark.parametrize("labels", [
    (b"\x00", b"\xff"),  # no common bit below the derive prefix
    (b"half0", b"half1", b"merge"),  # a last-bit split, then an early one
    (b"merge", b"merge", b"half1"),  # a repeated label
    (b"ab", b"abcd", b"a", b"abc", bytes(range(40))),  # different lengths
    (b"", b"x", b""),  # the derive prefix itself, twice
])
def test_labels_derive_as_one_label_calls(labels):
    k = PrfKey(b"\x13" * 32, b"shared")
    want = tuple(prng.derive_key(PrfKey(k.seed, k.domain_tag), label) for label in labels)
    assert prng.derive_key(k, *labels) == want
    assert prng.derive_key(k, *labels) == want  # again, from the memoized prefix


@pytest.mark.parametrize("generation", [1, 2])  # a root key, then a key derived from it
@pytest.mark.parametrize("label", [b"", b"m", b"half1", bytes(range(40))])
def test_derive_key_is_prf_eval_under_the_derive_prefix(generation, label):
    k = PrfKey(b"\x0e" * 32, b"derive-tests")
    if generation == 2:
        k = prng.derive_key(k, b"parent")
    want = PrfKey(prng.prf_eval(k, b"\x01derive:" + label, 32), k.domain_tag + b"/" + label)
    assert prng.derive_key(k, label) == want
    assert prng.derive_key(k, label) == want  # again, from the memoized prefix


def test_derive_key_memo_is_per_key():
    a = PrfKey(b"\x0f" * 32, b"one")
    keys = [a, PrfKey(a.seed, b"two"), PrfKey(b"\x1f" * 32, b"one")]
    seeds = [prng.derive_key(k, b"child").seed for k in keys]
    assert len(set(seeds)) == 3
    assert [prng.derive_key(k, b"child").seed for k in reversed(keys)] == seeds[::-1]


@pytest.mark.parametrize("bits", [64, 80])
def test_scale_keys_hash_only_their_roots(sha256_calls, bits):
    # the bench's scale rule, no SHA-256 per point: a scale key hashes its
    # root once for its key words, and its walks hash nothing
    seed = bytes([bits]) * 32
    assert sha256_calls(nsprp.make_scale_prp_key, seed, bits) == 1
    k = nsprp.make_scale_prp_key(seed, bits)

    def round_trips():
        for i in range(64):
            x = (i * prng.GOLDEN + 1) % k.n
            assert nsprp.prp_inverse(k, nsprp.prp_forward(k, x)) == x

    assert sha256_calls(round_trips) == 0


def test_memoized_seeds_leave_equality_and_hash_unchanged():
    a = PrfKey(b"\x10" * 32, b"eq")
    b = PrfKey(b"\x10" * 32, b"eq")
    before = hash(a)
    a.root_seed()
    prng.derive_key(a, b"x")
    assert a == b and hash(a) == hash(b) == before
    assert prng.serialize_key(a) == prng.serialize_key(b)


def _wire_node(depth, path):
    """The tree node (depth, path), read back from its serialized form."""
    return prng._read_node(Reader(struct.pack("<H", depth) + path.to_bytes((depth + 7) // 8 or 1, "big"), "node"))


def _depth_path(node):
    blob = prng._pack_node(node)
    return struct.unpack("<H", blob[:2])[0], int.from_bytes(blob[2:], "big")


# sha256 over tree_eval at depths 0 to 130, the serialized punctured keys of
# mixed-depth node sets (with and without a floor) and of byte inputs, and
# punctured_tree_eval at every copath position and a node three levels below
# it, recorded while tree nodes were (depth, path) objects
NODE_OUTPUTS_SHA256 = "5319437bce6f123440bb8898b78c365c8b207fede62542c42bcf814a84c97fd7"


def test_node_outputs_pinned_digest():
    key = PrfKey(b"\x14" * 32, b"nodes")
    rng = random.Random(14)
    h = hashlib.sha256()
    for depth in (0, 1, 7, 8, 9, 63, 64, 65, 130):
        for path in {0, (1 << depth) - 1, rng.getrandbits(depth) if depth else 0}:
            for out_len in (1, 32, 40):
                h.update(prng.tree_eval(key, _wire_node(depth, path), out_len))
    sets = [[], [(0, 0)], [(3, 5), (9, 300)], [(1, 0), (4, 9), (4, 10), (7, 100)],
            [(2, 3), (8, 0), (8, 255), (8, 254)], [(5, 17), (5, 17), (65, 1 << 64), (130, 3)]]
    keys = [prng.puncture_nodes(key, [_wire_node(*nd) for nd in nodes], floor_depth=floor)
            for nodes in sets for floor in (None, 4, 9)]
    keys += [prng.puncture(key, xs) for xs in ([], [b"\x06"], [b"\x00", b"\xff", b"\x81"], [b"ab", b"cd"])]
    for pk in keys:
        h.update(prng.serialize_punctured(pk))
        for pos, _ in pk.copath:
            depth, path = _depth_path(pos)
            h.update(prng.punctured_tree_eval(pk, pos, 16))
            h.update(prng.punctured_tree_eval(pk, _wire_node(depth + 3, path << 3 | 5), 16))
    assert h.hexdigest() == NODE_OUTPUTS_SHA256
