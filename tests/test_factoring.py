"""Primality and factorization: exact exponents, honest leftovers, determinism."""

import bisect
import math
import random
from collections import Counter

import pytest

from oracles import Factorization, factor
from wreathcert import (
    DETERMINISTIC_LIMIT,
    FactorConfig,
    is_prime,
    is_prime_certain,
)
from wreathcert.factoring import MAX_SIEVE_LIMIT, _trial_divide, certified_primes, primes_up_to

M89 = 2**89 - 1  # Mersenne prime, above the deterministic range


def test_is_prime_small_cases():
    assert is_prime(43)
    assert not is_prime(2047)  # 23 * 89, strong pseudoprime to base 2
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2) and is_prime(3) and not is_prime(4)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_is_prime_matches_sieve():
    limit = 10_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * ((limit - q * q) // q + 1)
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n]), n


# psi_k, the least strong pseudoprime to the first k prime bases, for the
# k = 1..12 where it changes; the last one passes all twelve bases 2..37
STRONG_PSEUDOPRIMES = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,  # 399165290221 * 798330580441
)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert n < DETERMINISTIC_LIMIT
    assert not is_prime(n)
    assert not is_prime_certain(n)


def test_is_prime_rejects_carmichael_above_deterministic_range():
    # (6k + 1)(12k + 1)(18k + 1) with all three factors prime is a Carmichael
    # number, so a Fermat pseudoprime to base 2; the strong test still fails it
    k = 13679106
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert n == 3317249643051242788534009 > DETERMINISTIC_LIMIT
    assert all(is_prime(f) for f in (6 * k + 1, 12 * k + 1, 18 * k + 1))
    assert pow(2, n - 1, n) == 1
    assert not is_prime(n)


def test_is_prime_above_deterministic_range():
    assert M89 > DETERMINISTIC_LIMIT
    assert is_prime(M89)
    assert not is_prime(M89 * M89)
    assert not is_prime(M89 * (2**107 - 1))
    assert not is_prime_certain(M89)  # prime, but only probabilistically certified
    assert is_prime_certain(43)


def test_factor_examples():
    assert factor(7).factors == ((7, 1),)
    f = factor(58201)
    assert f.factors == ((11, 2), (13, 1), (37, 1))
    assert f.cofactor == 1
    assert factor(9).factors == ((3, 2),)
    assert factor(2047).factors == ((23, 1), (89, 1))


def test_factor_sign_and_units():
    assert factor(-12) == factor(12)
    one = factor(1)
    assert one.factors == () and one.cofactor == 1
    assert factor(-1) == one


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_rejects_trial_bound_past_sieve_cap():
    # the config itself refuses a bound outside [2, MAX_SIEVE_LIMIT], so no
    # caller, factor() or a Wieferich build_certificate, can receive one
    assert factor(10, FactorConfig(trial_bound=MAX_SIEVE_LIMIT)).factors == ((2, 1), (5, 1))
    assert FactorConfig(trial_bound=2).trial_bound == 2
    for bad in (1, MAX_SIEVE_LIMIT + 1, 10**12):
        with pytest.raises(ValueError, match=rf"^trial_bound must be in \[2, {MAX_SIEVE_LIMIT}\], got {bad}$"):
            FactorConfig(trial_bound=bad)
    # wrong types fail here, not later inside the sieve or range()
    for field, bad in (("trial_bound", 2.5), ("trial_bound", True), ("rho_budget", 1.5), ("rho_budget", False)):
        with pytest.raises(TypeError, match=rf"^{field} must be an int, got {type(bad).__name__}$"):
            FactorConfig(**{field: bad})
    with pytest.raises(ValueError, match=r"^rho_budget must be at least 0, got -5$"):
        FactorConfig(rho_budget=-5)
    assert factor(15, FactorConfig(trial_bound=2, rho_budget=0)).cofactor == 15


def test_primes_up_to_matches_trial_division():
    naive = [q for q in range(2, 10**5 + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    # squares of odd primes, and their neighbours, are where an odd-only sieve can slip
    squares = [q * q + d for q in naive if 2 < q <= 101 for d in (-1, 0, 1)]
    for limit in [*range(301), *squares, 10**5]:
        assert list(primes_up_to(limit)) == naive[: bisect.bisect_right(naive, limit)], limit
    assert [list(primes_up_to(limit)) for limit in (0, 1, 2)] == [[], [], [2]]


def naive_factors(m: int) -> dict[int, int]:
    """Prime exponents of m >= 1 by dividing out every d >= 2 in turn."""
    counts: dict[int, int] = {}
    d = 2
    while m > 1:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d += 1
    return counts


def trial_divide(m: int, bound: int) -> tuple[list[int], int]:
    """The primes _trial_divide(m, bound) yields, in order, and the rest it returns."""
    search = _trial_divide(m, bound)
    primes = []
    while True:
        try:
            primes.append(next(search))
        except StopIteration as stop:
            return primes, stop.value


def test_trial_divide_and_factor_match_naive_factorization():
    for m in range(1, 5001):
        want = naive_factors(m)
        assert factor(m) == Factorization(tuple(sorted(want.items())), 1), m
        for bound in range(2, 61):
            primes, rest = trial_divide(m, bound)
            assert primes == sorted(primes), (m, bound)  # ascending, once per multiplicity
            counts = Counter(primes)
            # every prime it yields is <= bound, with its exact exponent
            assert all(q <= bound and want[q] == e for q, e in counts.items()), (m, bound)
            assert rest * math.prod(primes) == m, (m, bound)
            # what is left is 1, a prime, or free of primes <= bound
            left = {q: e for q, e in want.items() if q not in counts}
            assert left == {rest: 1} or all(q > bound for q in left), (m, bound)
    for bound in range(2, 61):
        m = (bound + 1) ** 2  # a square just past the bound, prime or not
        assert factor(m, FactorConfig(trial_bound=bound)) == factor(m), bound


def test_factor_random_complete():
    rng = random.Random(20260809)
    for _ in range(40):
        n = rng.randint(2, 10**12)
        f = factor(n)
        assert f.cofactor == 1, n
        product = 1
        for q, e in f.factors:
            assert is_prime(q)
            assert n % q**e == 0 and n % q ** (e + 1) != 0
            product *= q**e
        assert product == n


def test_factor_rho_splits_semiprime():
    n = 1000003 * 1000033  # both factors beyond the default trial bound
    f = factor(n)
    assert f.factors == ((1000003, 1), (1000033, 1))
    assert f.cofactor == 1


def test_factor_deterministic():
    n = 1000003 * 1000033 * 17
    cfg = FactorConfig(trial_bound=10, rho_budget=10**6, rho_seed=7)
    assert factor(n, cfg) == factor(n, cfg)


def test_factor_honest_composite_leftover():
    p1, p2 = 1000000000000037, 2000000000000021
    cfg = FactorConfig(trial_bound=1000, rho_budget=50, rho_seed=3)
    f = factor(3 * p1 * p2, cfg)
    assert f.factors == ((3, 1),)
    assert f.cofactor == p1 * p2  # proved composite, left unsplit


def test_factor_budget_unlocks_split():
    # rho wants on the order of sqrt(q) steps for the smaller prime q,
    # feasible here at ~3 * 10^5
    p1, p2 = 100000000003, 300000000077
    tiny = factor(p1 * p2, FactorConfig(trial_bound=100, rho_budget=100, rho_seed=3))
    assert tiny.factors == ()
    assert tiny.cofactor == p1 * p2
    full = factor(p1 * p2, FactorConfig(trial_bound=100, rho_budget=10**7, rho_seed=3))
    assert full.cofactor == 1
    assert full.factors == ((p1, 1), (p2, 1))


def test_certified_primes_come_in_search_order():
    # trial division's primes ascending, then rho's with the smaller part of
    # each split first; the probable prime M89 goes to the leftover
    p1, p2 = 1000003, 1000033
    cfg = FactorConfig(trial_bound=100, rho_budget=10**6, rho_seed=3)
    leftover = []
    assert list(certified_primes(-(7 * 2**3 * p2 * p1), cfg, leftover)) == [2, 2, 2, 7, p1, p2]
    assert leftover == []
    assert list(certified_primes(3 * M89, cfg, leftover)) == [3]
    assert leftover == [M89]


def test_factor_pending_prime_cofactor():
    f = factor(2 * M89, FactorConfig(trial_bound=100, rho_budget=1000, rho_seed=1))
    assert f.factors == ((2, 1),)
    assert f.cofactor == M89  # prime, but past the deterministic range


def test_factor_orbit_norm_pending_cofactor():
    # |N(phi^5(1))| at p = 3: trial division finds 139, and the remaining
    # 136-bit cofactor is past DETERMINISTIC_LIMIT, where Miller-Rabin
    # only calls it a probable prime
    f = factor(8050183582883899128838114506334853717591107)
    assert f.factors == ((139, 1),)
    assert f.cofactor == 57914989804920137617540392131905422428713
    assert is_prime(f.cofactor) and not is_prime_certain(f.cofactor)


def test_factor_reconstruction_always():
    rng = random.Random(97)
    cfg = FactorConfig(trial_bound=50, rho_budget=500, rho_seed=5)
    for _ in range(30):
        n = rng.randint(2, 10**18)
        f = factor(n, cfg)
        product = f.cofactor
        for q, e in f.factors:
            product *= q**e
        assert product == n


def test_factorization_value_type():
    f = Factorization(((2, 1), (3, 1)), 1)
    assert f == factor(6)
    g = Factorization(((2, 1), (3, 1)), 1)
    assert f == g
