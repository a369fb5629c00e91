import hashlib
import random
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ossprim import hypergeom as hg, nsprp
from ossprim.errors import RangeError


def test_weights_hand_enumeration():
    p = hg.HypergeomParams(4, 2, 2)
    assert [hg.pmf_weight(p, x) for x in (0, 1, 2)] == [(1, 6), (4, 6), (1, 6)]


def test_no_successes_concentrates_at_zero():
    p = hg.HypergeomParams(9, 0, 4)
    assert p.support() == range(0, 1)
    assert hg.pmf_weight(p, 0) == (comb(9, 4), comb(9, 4))


def test_draw_everything_concentrates_at_t():
    p = hg.HypergeomParams(7, 3, 7)
    assert p.support() == range(3, 4)
    assert hg.pmf_weight(p, 3)[0] == comb(7, 7) * comb(3, 3) * comb(4, 4)


def test_weight_zero_outside_support():
    p = hg.HypergeomParams(6, 2, 3)
    assert hg.pmf_weight(p, 5)[0] == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.data())
def test_weights_sum_to_choose(n, data):
    t = data.draw(st.integers(0, n))
    s = data.draw(st.integers(0, n))
    p = hg.HypergeomParams(n, t, s)
    assert sum(hg.pmf_weight(p, x)[0] for x in p.support()) == comb(n, s)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.data())
def test_symmetry_in_t_and_s(n, data):
    t = data.draw(st.integers(0, n))
    s = data.draw(st.integers(0, n))
    p1 = hg.HypergeomParams(n, t, s)
    p2 = hg.HypergeomParams(n, s, t)
    for x in range(0, min(s, t) + 1):
        assert Fraction(*hg.pmf_weight(p1, x)) == Fraction(*hg.pmf_weight(p2, x))


def test_sample_r0_hits_support_minimum():
    assert hg.sample(hg.HypergeomParams(4, 2, 2), 0, 16) == 0
    assert hg.sample(hg.HypergeomParams(6, 5, 4), 0, 16) == 3  # support min is 3


def test_sample_half_split_threshold():
    p = hg.HypergeomParams(2, 1, 1)
    for r in range(256):
        assert hg.sample(p, r, 8) == (0 if r < 128 else 1)


def test_sample_rejects_out_of_range_r():
    with pytest.raises(RangeError):
        hg.sample(hg.HypergeomParams(4, 2, 2), 256, 8)


def test_sample_rejects_negative_kappa():
    with pytest.raises(RangeError, match="kappa must be >= 0"):
        hg.sample(hg.HypergeomParams(12, 5, 7), 1, -3)


def test_sampler_monotone_and_partitions():
    p = hg.HypergeomParams(4, 2, 2)
    kappa = 16
    prev = -1
    counts = {}
    for r in range(1 << kappa):
        x = hg.sample(p, r, kappa)
        assert x >= prev
        prev = x
        counts[x] = counts.get(x, 0) + 1
    assert sum(counts.values()) == 1 << kappa
    assert counts == dict(hg.sampler_thresholds(p, kappa))
    tv = sum(abs(Fraction(counts.get(x, 0), 1 << kappa) - Fraction(*hg.pmf_weight(p, x)))
             for x in p.support()) / 2
    assert tv <= Fraction(3, 1 << kappa)


def test_exhaustive_histogram_matches_pmf():
    # expected frequencies 1/6, 4/6, 1/6 within the stated bound
    p = hg.HypergeomParams(4, 2, 2)
    counts = dict(hg.sampler_thresholds(p, 16))
    for x, target in [(0, Fraction(1, 6)), (1, Fraction(4, 6)), (2, Fraction(1, 6))]:
        assert abs(Fraction(counts[x], 1 << 16) - target) <= Fraction(3, 1 << 16)


def test_invalid_params_rejected():
    with pytest.raises(RangeError):
        hg.HypergeomParams(4, 5, 2)
    with pytest.raises(RangeError):
        hg.HypergeomParams(4, 2, -1)


# -- the window below the mode ----------------------------------------------------

def _walk_from_support_min(p, r, kappa):
    """The walk from support_min as it stood before the window: the reference."""
    N, t, s = p.population, p.successes, p.draws
    x, hi = p.support_min, p.support_max
    target = r * comb(N, s)
    term = comb(t, x) * comb(N - t, s - x)
    acc = term
    while x < hi and target >= (acc << kappa):
        term = term * (t - x) * (s - x) // ((x + 1) * (N - t - s + x + 1))
        acc += term
        x += 1
    return x


def test_window_matches_walk_exhaustively_on_small_supports(monkeypatch):
    # every support tries the window here, so its guards see every tiny shape
    monkeypatch.setattr(hg, "_WINDOW_MIN_SUPPORT", 1)
    for n in range(33):
        for t in range(n + 1):
            for s in range(n + 1):
                p = hg.HypergeomParams(n, t, s)
                for r in range(1 << 5):
                    assert hg.sample(p, r, 5) == _walk_from_support_min(p, r, 5), (n, t, s, r)


# 9 is the wider window used before; it must still give the same x as the default
@pytest.mark.parametrize("sigmas", sorted({0, 9, hg._WINDOW_SIGMAS}))
def test_window_matches_walk_on_random_draws(monkeypatch, sigmas):
    # the window width only decides how often the bound falls back, never x
    monkeypatch.setattr(hg, "_WINDOW_MIN_SUPPORT", 1)
    monkeypatch.setattr(hg, "_WINDOW_SIGMAS", sigmas)
    rng = random.Random(f"window-{sigmas}")
    for _ in range(300):
        n = rng.randint(16, 700)
        p = hg.HypergeomParams(n, rng.randint(0, n), rng.randint(0, n))
        for kappa in (6, 128):
            for r in (0, (1 << kappa) - 1, rng.randrange(8), rng.randrange(1 << kappa)):
                assert hg.sample(p, r, kappa) == _walk_from_support_min(p, r, kappa)


def test_window_matches_walk_at_kappa_128_up_to_2_14():
    rng = random.Random("window-large")
    for _ in range(24):
        n = int(2 ** rng.uniform(7, 14))
        p = hg.HypergeomParams(n, rng.randint(n // 4, 3 * n // 4), rng.randint(0, n))
        r = rng.randrange(1 << 128)
        assert hg.sample(p, r, 128) == _walk_from_support_min(p, r, 128), (n, p, r)


@pytest.mark.parametrize("kappa", [128, None])
def test_window_is_exact_at_every_threshold(kappa):
    # kappa None: 2^kappa >= C(N,s), so adjacent r differ by at most 1 in q
    # and each cut sits at the exact boundary W(x) = q + 1
    rng = random.Random(f"boundary-{kappa}")
    for _ in range(3):
        n = rng.randint(1 << 10, 1 << 11)
        p = hg.HypergeomParams(n, rng.randint(n // 3, 2 * n // 3), rng.randint(n // 3, 2 * n // 3))
        assert p.support_max - p.support_min >= hg._WINDOW_MIN_SUPPORT
        k = kappa or comb(n, p.draws).bit_length()
        cut = 0
        for x, count in hg.sampler_thresholds(p, k):
            if count:
                assert hg.sample(p, cut, k) == x
                cut += count
                assert hg.sample(p, cut - 1, k) == x
        assert cut == 1 << k


def _record_walks(monkeypatch):
    """A list that receives the start of every walk later draws make."""
    starts = []
    walk = hg._walk

    def recorded(N, t, s, x, *rest):
        starts.append(x)
        return walk(N, t, s, x, *rest)

    monkeypatch.setattr(hg, "_walk", recorded)
    return starts


ROOT = hg.HypergeomParams(1 << 12, 1 << 11, 1 << 11)


def test_window_path_returns_without_fallback(monkeypatch):
    starts = _record_walks(monkeypatch)
    assert hg.sample(ROOT, 1 << 127, 128) == _walk_from_support_min(ROOT, 1 << 127, 128)
    assert len(starts) == 1 and starts[0] > ROOT.support_min


def test_lower_tail_falls_back(monkeypatch):
    # r = 0 gives q = 0, below any bound on the weight under the window
    starts = _record_walks(monkeypatch)
    assert hg.sample(ROOT, 0, 128) == ROOT.support_min
    assert starts == [ROOT.support_min]


def test_undecided_draw_falls_back(monkeypatch):
    starts = _record_walks(monkeypatch)
    hg.sample(ROOT, 1 << 127, 128)
    (a,) = starts
    N, t, s = ROOT.population, ROOT.successes, ROOT.draws
    w = comb(t, a) * comb(N - t, s - a)
    rn, rd = a * (N - t - s + a), (t - a + 1) * (s - a + 1)
    tail = -(-w * rn // (rd - rn))
    # q in [w(a), w(a) + tail): W(a) may or may not exceed q on the bound alone
    q = w + tail - 1
    total = comb(N, s)
    kappa = total.bit_length()
    r = -(-(q << kappa) // total)
    assert (r * total) >> kappa == q
    starts.clear()
    assert hg.sample(ROOT, r, kappa) == _walk_from_support_min(ROOT, r, kappa)
    assert starts == [a, ROOT.support_min]


def test_wide_pinned_shapes_walk_once_from_the_window(monkeypatch):
    # the _pinned_draws shapes with random r: the window decides every draw
    starts = _record_walks(monkeypatch)
    rng = random.Random("window-shapes")
    for n, t, s, _ in _pinned_draws():
        p = hg.HypergeomParams(n, t, s)
        assert p.support_max - p.support_min >= hg._WINDOW_MIN_SUPPORT
        starts.clear()
        hg.sample(p, rng.getrandbits(128), 128)
        assert len(starts) == 1 and starts[0] > p.support_min, (n, t, s)


def test_small_support_walks_from_support_min(monkeypatch):
    def no_isqrt(_):
        raise AssertionError("small supports skip the window")

    monkeypatch.setattr(hg, "isqrt", no_isqrt)
    starts = _record_walks(monkeypatch)
    p = hg.HypergeomParams(254, 127, 127)
    assert p.support_max - p.support_min == hg._WINDOW_MIN_SUPPORT - 1
    assert hg.sample(p, 1 << 127, 128) == _walk_from_support_min(p, 1 << 127, 128)
    assert starts == [p.support_min]


# -- exact binomials from prime powers --------------------------------------------

def _binomial_cases():
    rng = random.Random("binomial")
    for n in (*range(41), 300, 1023, 1024, 1025, 5000, (1 << 14) + 3, 1 << 16):
        edge = isqrt(256 * n)
        ks = {0, 1, n // 2, n - 1, n, edge - 1, edge, edge + 1, n - edge}
        ks.update(rng.sample(range(n + 1), min(n + 1, 6)))
        yield from ((n, k) for k in sorted(ks) if 0 <= k <= n)


def test_binomial_matches_math_comb():
    for n, k in _binomial_cases():
        assert hg.binomial(n, k) == comb(n, k), (n, k)
        assert hg._prime_power_binomial(n, min(k, n - k)) == comb(n, k), (n, k)
    assert hg.binomial(5, 7) == 0


# (1024, 512) and (2^14, 2^11) sit exactly on min(k, n-k)^2 = 256 n
@pytest.mark.parametrize("n,k,primes", [
    (1024, 511, False), (1024, 512, True), (1024, 513, False), (1023, 511, False),
    (1 << 14, 2047, False), (1 << 14, 2048, True), (1 << 14, (1 << 14) - 2048, True),
    (1 << 16, 10, False),
])
def test_binomial_switches_to_primes_at_the_cutoff(monkeypatch, n, k, primes):
    calls = []
    monkeypatch.setattr(hg, "comb", lambda *a: calls.append(a) or comb(*a))
    assert hg.binomial(n, k) == comb(n, k)
    assert calls == ([] if primes else [(n, k)])


def _pinned_draws():
    rng = random.Random(9)
    for n in (1 << 12, (1 << 12) + 1, 1 << 14, 1 << 16):
        half = -(-n // 2)
        for t, s in ((half, half), (n // 8, n // 3), (n - n // 5, n // 7)):
            rs = (0, 1, 1 << 127, (1 << 128) - 1, *(rng.getrandbits(128) for _ in range(4)))
            for r in rs:
                yield n, t, s, r


def _pinned_digest():
    h = hashlib.sha256()
    for n, t, s, r in _pinned_draws():
        x = hg.sample(hg.HypergeomParams(n, t, s), r, 128)
        h.update(f"{n} {t} {s} {r} {x}\n".encode())
    return h.hexdigest()


# recorded before large binomials were built from primes
PINNED_DIGEST = "a6184dd1accbacaa52495185751cc56cb6ed50c50eadfa074760de7a890ffac3"


def test_large_draws_match_pinned_digest():
    assert _pinned_digest() == PINNED_DIGEST


def test_total_weight_memo_cold_and_warm_give_the_same_draws():
    hg._total_weight.cache_clear()
    assert _pinned_digest() == PINNED_DIGEST
    assert hg._total_weight.cache_info().hits > 0
    assert _pinned_digest() == PINNED_DIGEST


def test_total_weight_memo_is_bounded():
    hg._total_weight.cache_clear()
    size = hg._total_weight.cache_info().maxsize
    pairs = [(n, s) for n in range(80) for s in range(n + 1)][: size + 100]
    assert len(pairs) > size
    for n, s in pairs:
        p = hg.HypergeomParams(n, n // 2, s)
        assert hg.pmf_weight(p, p.support_min)[1] == comb(n, s)
        hg.sample(p, 0, 8)
    info = hg._total_weight.cache_info()
    assert info.misses == len(pairs) and info.currsize <= size


def test_cold_exact_prp_at_2_16():
    # each key is fresh, so every tally draw on the path is made cold
    y = nsprp.prp_forward(nsprp.make_prp_key(b"\x5a" * 32, 1 << 16), 40503)
    assert y == 42533
    assert nsprp.prp_inverse(nsprp.make_prp_key(b"\x5a" * 32, 1 << 16), y) == 40503


# -- one product for a pmf weight, the shared sieve, the caps --------------------------

def _weight_pairs():
    cases = list(_binomial_cases())
    rng = random.Random("weight-pairs")
    for n1, k1 in cases:
        n2, k2 = rng.choice(cases)
        yield n1, k1, n2, k2
    yield from ((n, k, n, k) for n, k in cases)


def test_one_product_weight_matches_math_comb():
    for n1, k1, n2, k2 in _weight_pairs():
        want = comb(n1, k1) * comb(n2, k2)
        # w(x) = C(t, x) * C(N-t, s-x) with t = n1, x = k1, N = n1 + n2, s = k1 + k2
        assert hg._weight(n1 + n2, n1, k1 + k2, k1) == want, (n1, k1, n2, k2)
        assert hg._prime_power_binomial(n1, min(k1, n1 - k1), n2, min(k2, n2 - k2)) == want


def _record_prime_products(monkeypatch):
    """(comb calls, prime-power product calls) that later weights make."""
    combs, products = [], []
    product = hg._prime_power_binomial
    monkeypatch.setattr(hg, "comb", lambda *a: combs.append(a) or comb(*a))
    monkeypatch.setattr(hg, "_prime_power_binomial", lambda *a: products.append(a) or product(*a))
    return combs, products


@pytest.mark.parametrize("n1,k1,n2,k2,p", [
    (5000, 2500, 6000, 3000, 4999),  # 4999 > sqrt(6000) divides C(5000, 2500) and C(6000, 3000)
    (1 << 14, 1 << 13, 1 << 14, (1 << 13) + 1, 16381),
    (1 << 16, 1 << 15, (1 << 16) - 3, 1 << 15, 65521),
])
def test_one_product_weight_squares_a_large_prime_of_both_factors(monkeypatch, n1, k1, n2, k2, p):
    want = comb(n1, k1) * comb(n2, k2)
    assert p > isqrt(max(n1, n2)) and comb(n1, k1) % p == 0 and comb(n2, k2) % p == 0
    assert want % (p * p) == 0
    combs, products = _record_prime_products(monkeypatch)
    assert hg._weight(n1 + n2, n1, k1 + k2, k1) == want
    assert combs == [] and products == [(n1, min(k1, n1 - k1), n2, min(k2, n2 - k2))]


@pytest.mark.parametrize("n1,k1,n2,k2", [
    (1 << 14, 10, 1 << 14, 1 << 13),       # lopsided first factor
    (1 << 14, 1 << 13, 1 << 16, 1 << 9),   # lopsided second factor
    (1 << 16, 3, 1 << 16, (1 << 16) - 7),  # both lopsided
])
def test_lopsided_weight_factors_stay_on_math_comb(monkeypatch, n1, k1, n2, k2):
    combs, products = _record_prime_products(monkeypatch)
    assert hg._weight(n1 + n2, n1, k1 + k2, k1) == comb(n1, k1) * comb(n2, k2)
    lopsided = [(n, k) for n, k in ((n1, k1), (n2, k2)) if min(k, n - k) ** 2 < hg._PRIME_FORM_MIN * n]
    assert combs == lopsided
    assert products == [(n, min(k, n - k)) for n, k in ((n1, k1), (n2, k2)) if (n, k) not in lopsided]


def _empty_sieve(monkeypatch):
    monkeypatch.setattr(hg, "_sieve", [2])
    monkeypatch.setattr(hg, "_sieve_top", 2)


def test_sieve_cold_and_warm_give_the_same_draws(monkeypatch):
    _empty_sieve(monkeypatch)
    hg._total_weight.cache_clear()
    assert _pinned_digest() == PINNED_DIGEST
    assert hg._sieve_top >= 1 << 16
    grown = hg._sieve
    hg._total_weight.cache_clear()
    assert _pinned_digest() == PINNED_DIGEST
    assert hg._sieve is grown


def _primes_by_trial(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def test_sliced_primes_equal_a_fresh_sieve(monkeypatch):
    _empty_sieve(monkeypatch)
    for n in (0, 1, 2, 3, 4, 97, 1000, 999, 5000, 300, 70000, 1 << 16, 2, (1 << 20) - 1, 1 << 20, 77777):
        assert hg._primes_to(n) == (hg._odd_sieve(n) if n >= 2 else []), n
        assert hg._sieve_top <= 1 << hg.EXACT_MAX_BITS
    assert hg._primes_to(3000) == _primes_by_trial(3000)


def test_sieve_grows_by_doubling_up_to_its_bound(monkeypatch):
    _empty_sieve(monkeypatch)
    tops = []
    for n in (1000, 1001, 1500, 2001, 5000, 600000, 1 << 20):
        hg._primes_to(n)
        tops.append(hg._sieve_top)
    assert tops == [1000, 2000, 2000, 4000, 8000, 600000, 1 << 20]


def test_requests_above_the_bound_leave_the_sieve_as_it_was(monkeypatch):
    _empty_sieve(monkeypatch)
    hg._primes_to(5000)
    before = (hg._sieve, hg._sieve_top, len(hg._sieve))
    top = 1 << hg.EXACT_MAX_BITS
    with pytest.raises(RangeError, match="sieve stops at 2\\^20"):
        hg._primes_to(top + 1)
    # a binomial above the bound takes math.comb (stubbed here: its value does not matter)
    calls = []
    monkeypatch.setattr(hg, "comb", lambda *a: calls.append(a) or 0)
    assert hg.binomial(top + 2, top // 2 + 1) == 0 and calls == [(top + 2, top // 2 + 1)]
    with pytest.raises(RangeError, match="populations of at most 2\\^20"):
        hg.sample(hg.HypergeomParams(top + 1, top // 2, top // 2), 1, 8)
    assert (hg._sieve, hg._sieve_top, len(hg._sieve)) == before


def test_sample_caps_population_and_kappa():
    top = 1 << hg.EXACT_MAX_BITS
    with pytest.raises(RangeError, match="populations of at most"):
        hg.sample(hg.HypergeomParams(10 ** 12, 5 * 10 ** 11, 5 * 10 ** 11), 1, 8)
    with pytest.raises(RangeError, match=f"kappa must be <= {hg.MAX_KAPPA}"):
        hg.sample(hg.HypergeomParams(12, 5, 7), 1, hg.MAX_KAPPA + 1)
    with pytest.raises(RangeError, match="kappa must be <= "):
        hg.sample(hg.HypergeomParams(12, 5, 7), 1, 10 ** 11)
    # both caps are inclusive; C(N, s) < 2^N, so kappa = MAX_KAPPA leaves room
    # for log2 C(N, s) at every accepted population
    assert hg.MAX_KAPPA >= top
    p = hg.HypergeomParams(12, 5, 7)
    assert hg.sample(p, (1 << hg.MAX_KAPPA) - 1, hg.MAX_KAPPA) == p.support_max
    assert hg.sample(hg.HypergeomParams(top, 3, 5), 0, 8) == 0


# -- work counts: the steps the pinned draws walk ----------------------------------------

# The steps walked by all _pinned_draws draws when the window starts 5 sigmas
# below the mode; a window 9 sigmas deep walks 91,326.
PINNED_WALK_STEPS = 83_753


def test_pinned_draws_walk_from_five_sigmas_within_the_pinned_steps(monkeypatch):
    walks = []
    walk = hg._walk

    def recorded(N, t, s, x, *rest):
        out = walk(N, t, s, x, *rest)
        walks.append((x, out[0] - x))
        return out

    monkeypatch.setattr(hg, "_walk", recorded)
    windows = 0
    for n, t, s, r in _pinned_draws():
        p = hg.HypergeomParams(n, t, s)
        lo = p.support_min
        m = min(max((s + 1) * (t + 1) // (n + 2), lo), p.support_max)
        a = m - 5 * isqrt(t * s * (n - t) * (n - s) // (n * n * (n - 1))) - 8
        first = len(walks)
        hg.sample(p, r, 128)
        starts = [x for x, _ in walks[first:]]
        # the window walks from a; the walk from support_min is the fallback
        assert starts in ([a], [lo], [a, lo]), (n, t, s, r, starts)
        windows += starts[0] == a
    assert windows > 0
    assert sum(steps for _, steps in walks) <= PINNED_WALK_STEPS
