import hashlib
import itertools
import random
import struct

import pytest

from ossprim import prng
from ossprim.errors import PunctureError, UnsupportedBackend
from ossprim.prng import NodeId, PrfKey


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
    pk = prng.puncture_nodes(key, [NodeId(2, 0b00), NodeId(2, 0b01)], floor_depth=2)
    assert [pos for pos, _ in pk.copath] == [NodeId(1, 1)]


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
        assert not a.is_ancestor_of(b)


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


def test_fastmix_backend_eval_only():
    k = PrfKey(b"\x0d" * 32, b"fast", prng.BACKEND_FASTMIX)
    assert prng.prf_eval(k, b"x", 8) == prng.prf_eval(k, b"x", 8)
    assert prng.prf_eval(k, b"x", 8) != prng.prf_eval(k, b"y", 8)
    with pytest.raises(UnsupportedBackend):
        prng.puncture(k, [b"x"])


def test_mix64_matches_numpy_twin():
    import numpy as np

    from ossprim.fastpath import mix64_np

    for a, b, c in [(1, 2, 3), (2**64 - 1, 0x1234, 7), (0, 0, 0), (0xDEADBEEF, 2**63, 2**32)]:
        assert prng.mix64(a, b, c) == int(mix64_np(np.uint64(a), np.uint64(b), np.uint64(c)))


def test_descend_matches_stepwise_expand():
    rng = random.Random(6)
    for _ in range(300):
        depth = rng.randint(0, 130)
        node = NodeId(depth, rng.getrandbits(depth) if depth else 0)
        seed = rng.randbytes(32)
        walk = [seed]
        for lvl in range(depth):
            walk.append(prng._expand(walk[-1], (node.path >> (depth - 1 - lvl)) & 1))
        for from_depth in range(depth + 1):
            assert prng._descend(walk[from_depth], node, from_depth) == walk[depth]


def test_node_branches_are_the_path_bits_root_first():
    rng = random.Random(7)
    for depth in list(range(10)) + [rng.randint(10, 300) for _ in range(50)]:
        node = NodeId(depth, rng.getrandbits(depth) if depth else 0)
        assert node.branches == tuple(prng._BIT[node.bit(lvl)] for lvl in range(depth))


def _finalize_reference(seed, out_len):
    blocks = (hashlib.sha256(seed + b"\xffout" + struct.pack("<I", ctr)).digest()
              for ctr in range((out_len + 31) // 32))
    return b"".join(blocks)[:out_len]


def test_finalize_matches_the_multi_block_stream():
    seed = bytes(range(32))
    for out_len in range(1, 101):
        assert prng._finalize(seed, out_len) == _finalize_reference(seed, out_len)


def test_bytes_to_node_memo_is_bounded():
    size = prng._bytes_to_node.cache_info().maxsize
    for i in range(size + 50):
        assert prng._bytes_to_node(i.to_bytes(4, "big")) == NodeId(32, i)
    assert prng._bytes_to_node.cache_info().currsize <= size
    assert prng._bytes_to_node(b"\x02xorbit") is prng._bytes_to_node(b"\x02xorbit")


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


@pytest.mark.parametrize("backend", [prng.BACKEND_SHA256, prng.BACKEND_FASTMIX])
@pytest.mark.parametrize("label", [b"", b"m", b"half1", bytes(range(40))])
def test_derive_key_is_prf_eval_under_the_derive_prefix(backend, label):
    k = PrfKey(b"\x0e" * 32, b"derive-tests", backend)
    want = PrfKey(prng.prf_eval(k, b"\x01derive:" + label, 32), b"derive-tests/" + label, backend)
    assert prng.derive_key(k, label) == want
    assert prng.derive_key(k, label) == want  # again, from the memoized prefix


def test_derive_key_memo_is_per_key():
    a = PrfKey(b"\x0f" * 32, b"one")
    keys = [a, PrfKey(a.seed, b"two"), PrfKey(a.seed, b"one", prng.BACKEND_FASTMIX)]
    seeds = [prng.derive_key(k, b"child").seed for k in keys]
    assert len(set(seeds)) == 3
    assert [prng.derive_key(k, b"child").seed for k in reversed(keys)] == seeds[::-1]


def test_memoized_seeds_leave_equality_and_hash_unchanged():
    a = PrfKey(b"\x10" * 32, b"eq")
    b = PrfKey(b"\x10" * 32, b"eq")
    before = hash(a)
    a.root_seed()
    prng.derive_key(a, b"x")
    assert a == b and hash(a) == hash(b) == before
    assert prng.serialize_key(a) == prng.serialize_key(b)
