"""Exact hypergeometric distribution over arbitrary-precision integers.

``sample`` is the deterministic kappa-bit inverse-CDF map: strict-inequality
tie handling partitions [0, 2^kappa) exactly, comparisons are integer
cross-multiplications, and weights are exact binomials maintained by
multiplicative running products.  Exactness is what makes keys bit-portable;
it is only feasible while the support is enumerable, so large-domain scale
keys use the separate gaussian approximation in ``fastpath`` instead.

On wide supports the walk starts a few standard deviations below the mode
(after the mode-centred search of Kachitvichyanukul and Schmeiser, 1985)
instead of at ``support_min``.  The weight below the start is never summed;
an exact integer bound on it decides every comparison, and any comparison
the bound cannot decide falls back to the walk from ``support_min``.  So the
window changes how far the walk goes, never the x it returns.  Each walk
step multiplies the N-bit running term once, by the product of both ratio
numerators, before its one division.

The total weight C(N, s) goes through ``_total_weight``, a memo of at most
1024 entries: a tally tree's (N, s) pairs are node sizes and their left
sizes, so they repeat across nodes, levels and keys.

Every binomial goes through ``binomial``.  Small or lopsided ones come from
``math.comb``; large balanced ones are built as a product of prime powers
(Legendre's formula, after Goetgheluck, "Computing binomial coefficients",
Amer. Math. Monthly 1987): each prime's exponent in C(n, k) is the sum over
its powers q <= n of n//q - k//q - (n-k)//q, and the powers are multiplied in
a balanced tree.  Both forms give the same integer, so the choice never
changes a draw.  The primes are sliced from one sieve, kept for the life of
the process: it is built on the first prime-form binomial, grows by doubling
when a larger n asks for more, and never runs past 2^EXACT_MAX_BITS, the
widest population ``sample`` accepts.  A pmf weight C(t,x)*C(N-t,s-x) whose
factors both take the prime form is one product: the exponents of both
factors are summed per prime, and one balanced tree multiplies them, instead
of two trees and a final multiply of two large factors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb, isqrt

from .errors import RangeError

DEFAULT_KAPPA = 128
# Exact draws stay feasible up to populations of 2^EXACT_MAX_BITS: the exact
# keys' width rule (``merge.check_width``) and the cap on ``sample``.
EXACT_MAX_BITS = 20
_MAX_N = 1 << EXACT_MAX_BITS
# The largest kappa ``sample`` accepts.  With kappa >= log2 C(N, s) every
# threshold is exact, and C(N, s) < 2^N, so this cap leaves that room at every
# population ``sample`` accepts while keeping 2^kappa to 128 KiB.
MAX_KAPPA = _MAX_N
# The window starts _WINDOW_SIGMAS standard deviations (plus 8) below the
# mode.  Any value gives the same output; it only trades the steps walked
# against how often the bound cannot decide and the draw falls back to the
# walk from support_min.  Over the 67,962 draws (11,024 windowed) of 800
# seed-1 prp-exact-large ops, the walks took 1.41M steps at 9 sigmas and
# 1.06M at 5, with no fallback at either; 4 fell back 3 times and 3 fell
# back 96 times.
_WINDOW_SIGMAS = 5
# Below this support width the window's isqrt and start weight cost more
# than the steps they skip, so the walk starts at support_min as it always did.
_WINDOW_MIN_SUPPORT = 128
# binomial(n, k) builds the prime-power product once min(k, n-k)^2 reaches
# _PRIME_FORM_MIN * n.  Along that line the product ran 0.8-1.9x as fast as
# math.comb for every n from 2^10 to 2^18 (2-core x86-64, Python 3.11), so the
# switch sits at n = 2^10 for k = n/2 and at n = 2^14 for k = n/8.  On
# lopsided k math.comb stays far faster, since the sieve would still run to n.
_PRIME_FORM_MIN = 256


@dataclass(frozen=True)
class HypergeomParams:
    """Draw ``draws`` balls from a population of ``population`` of which
    ``successes`` are marked; the variate counts marked balls drawn."""

    population: int
    successes: int
    draws: int

    def __post_init__(self):
        if not (0 <= self.successes <= self.population):
            raise RangeError("need 0 <= successes <= population")
        if not (0 <= self.draws <= self.population):
            raise RangeError("need 0 <= draws <= population")

    @property
    def support_min(self) -> int:
        return max(0, self.draws + self.successes - self.population)

    @property
    def support_max(self) -> int:
        return min(self.draws, self.successes)

    def support(self) -> range:
        return range(self.support_min, self.support_max + 1)


def binomial(n: int, k: int) -> int:
    """C(n, k), the same integer as ``math.comb(n, k)``."""
    m = _prime_form(n, k)
    return comb(n, k) if m < 0 else _prime_power_binomial(n, m)


def _prime_form(n: int, k: int) -> int:
    """min(k, n - k) if C(n, k) is built from prime powers, else -1."""
    m = k if k + k <= n else n - k
    return m if m >= 0 and m * m >= _PRIME_FORM_MIN * n and n <= _MAX_N else -1


def _weight(N: int, t: int, s: int, x: int) -> int:
    """w(x) = C(t, x) * C(N-t, s-x) for x in the support: one prime-power
    product when both factors take the prime form."""
    u, v = _prime_form(t, x), _prime_form(N - t, s - x)
    if u < 0 or v < 0:
        return binomial(t, x) * binomial(N - t, s - x)
    return _prime_power_binomial(t, u, N - t, v)


@lru_cache(maxsize=1024)
def _total_weight(N: int, s: int) -> int:
    """C(N, s), the total weight of every hypergeometric pmf over (N, ., s)."""
    return binomial(N, s)


def _prime_power_binomial(n: int, k: int, n2: int = 0, k2: int = 0) -> int:
    """C(n, k) * C(n2, k2) for 0 <= k <= n - k and 0 <= k2 <= n2 - k2 (by
    default C(n, k) alone) as one balanced product of prime powers."""
    pairs = ((n, k), (n2, k2)) if n2 else ((n, k),)
    top = max(n, n2)
    primes = _primes_to(top)
    root = bisect_right(primes, isqrt(top))
    powers = []
    for p in primes[:root]:
        e = 0
        for a, b in pairs:
            c, q = a - b, p
            while q <= a:
                e += a // q - b // q - c // q
                q *= p
        if e:
            powers.append(p**e)
    # above sqrt(a) each exponent in C(a, b) is 0 or 1, and it is 1 for every
    # prime above a - b; a prime that divides both factors is listed twice
    for a, b in pairs:
        c = a - b
        mid, end = bisect_right(primes, c, root), bisect_right(primes, a, root)
        powers += [p for p in primes[root:mid] if a // p - b // p - c // p]
        powers += primes[mid:end]
    while len(powers) > 1:
        odd = powers[-1:] if len(powers) % 2 else []
        powers = [a * b for a, b in zip(powers[::2], powers[1::2])] + odd
    return powers[0] if powers else 1


_sieve = [2]  # the primes <= _sieve_top, ascending
_sieve_top = 2


def _primes_to(n: int) -> list[int]:
    """The primes <= n for n <= 2^EXACT_MAX_BITS, sliced from the shared
    sieve, which first grows to max(n, twice its reach)."""
    global _sieve, _sieve_top
    if n > _sieve_top:
        if n > _MAX_N:
            raise RangeError(f"the prime sieve stops at 2^{EXACT_MAX_BITS}, below {n}")
        top = min(max(n, 2 * _sieve_top), _MAX_N)
        _sieve, _sieve_top = _odd_sieve(top), top
    return _sieve[: bisect_right(_sieve, n)]


def _odd_sieve(n: int) -> list[int]:
    """The primes <= n, for n >= 2, from a sieve over the odd numbers."""
    odd = bytearray([1]) * ((n + 1) // 2)  # odd[i] says whether 2i+1 is prime
    odd[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
    return [2, *compress(range(1, n + 1, 2), odd)]


def pmf_weight(p: HypergeomParams, x: int) -> tuple[int, int]:
    """Exact (numerator, denominator): C(t,x)*C(N-t,s-x) over C(N,s).

    The numerator is zero outside the support.
    """
    denom = _total_weight(p.population, p.draws)
    if x < p.support_min or x > p.support_max:
        return 0, denom
    return _weight(p.population, p.successes, p.draws, x), denom


def sample(p: HypergeomParams, r: int, kappa: int = DEFAULT_KAPPA) -> int:
    """Inverse-CDF draw: smallest x in support with r*C(N,s) < 2^kappa*W(x).

    W(x) is the cumulative weight through x.  Monotone non-decreasing in r;
    total variation from the exact distribution is at most
    support_size * 2^-kappa.

    W is an integer, so the condition is W(x) > q with q = floor(r*C(N,s) /
    2^kappa), computed once.  Supports at least ``_WINDOW_MIN_SUPPORT`` wide
    first try ``_window_sample``; narrower ones, and every draw the window
    cannot certify, walk up from support_min.

    Populations above 2^EXACT_MAX_BITS and kappas above ``MAX_KAPPA`` are
    refused before any work.
    """
    if p.population > _MAX_N:
        raise RangeError(f"exact draws cover populations of at most 2^{EXACT_MAX_BITS}, not {p.population}")
    if not 0 <= kappa <= MAX_KAPPA:
        raise RangeError("kappa must be >= 0" if kappa < 0 else f"kappa must be <= {MAX_KAPPA}")
    if not 0 <= r < (1 << kappa):
        raise RangeError("r must be a kappa-bit unsigned integer")
    N, t, s = p.population, p.successes, p.draws
    lo, hi = p.support_min, p.support_max
    q = (r * _total_weight(N, s)) >> kappa
    if hi - lo >= _WINDOW_MIN_SUPPORT:
        x = _window_sample(N, t, s, lo, hi, q)
        if x is not None:
            return x
    # w(lo) = C(t, lo) * C(N-t, s-lo), and one factor is 1: lo = 0 or lo = s+t-N
    term = binomial(N - t, s) if lo == 0 else binomial(t, lo)
    return _walk(N, t, s, lo, hi, term, q)[0]


def _window_sample(N: int, t: int, s: int, lo: int, hi: int, q: int) -> int | None:
    """The smallest x with W(x) > q, found by a walk from a start a below the
    mode, or None when the walk cannot certify it.

    The pmf is log-concave, so w(j-1)/w(j) only shrinks as j falls below a
    and W(a-1) <= w(a)*rho/(1-rho) =: tail, with rho = w(a-1)/w(a) < 1.  With
    acc = w(a)+...+w(x), W(x) lies in [acc, acc + tail].  The walk steps on
    while acc + tail <= q (so W(x) <= q) and stops at x once acc > q (so
    W(x) > q); tail <= q makes W(a-1) <= q for x = a.  A stop with
    acc <= q < acc + tail is undecided.  rho < 1 because a lies below the
    mode; the rho check only keeps the division safe.
    """
    m = min(max((s + 1) * (t + 1) // (N + 2), lo), hi)
    sigma = isqrt(t * s * (N - t) * (N - s) // (N * N * (N - 1)))
    a = m - _WINDOW_SIGMAS * sigma - 8
    if a <= lo:
        return None
    rn, rd = a * (N - t - s + a), (t - a + 1) * (s - a + 1)
    if rn >= rd:
        return None
    term = _weight(N, t, s, a)
    tail = -(-term * rn // (rd - rn))
    if tail > q:
        return None
    x, acc = _walk(N, t, s, a, hi, term, q - tail)
    return x if x == hi or acc > q else None


def _walk(N: int, t: int, s: int, x: int, hi: int, term: int, limit: int) -> tuple[int, int]:
    """Step up from x, where term = w(x), while x < hi and the partial sum
    from the start stays <= limit; returns the last x and that sum."""
    acc = term
    while x < hi and acc <= limit:
        # C(t,x+1) = C(t,x)*(t-x)/(x+1);  C(N-t,s-x-1) = C(N-t,s-x)*(s-x)/(N-t-s+x+1)
        term = term * ((t - x) * (s - x)) // ((x + 1) * (N - t - s + x + 1))
        acc += term
        x += 1
    return x, acc


def sampler_thresholds(p: HypergeomParams, kappa: int) -> list[tuple[int, int]]:
    """(x, count of r values mapping to x) for the exact sampler partition."""
    denom = _total_weight(p.population, p.draws)
    out = []
    acc = 0
    prev_cut = 0
    for x in p.support():
        acc += _weight(p.population, p.successes, p.draws, x)
        # r maps to <= x  iff  r*denom < acc << kappa  iff  r <= ceil(...) - 1
        cut = min(1 << kappa, -(-(acc << kappa) // denom))
        out.append((x, cut - prev_cut))
        prev_cut = cut
    return out
