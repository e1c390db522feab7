"""Primality testing and the prime sieve."""

import bisect
import math

import pytest

from wreathcert import DETERMINISTIC_LIMIT, is_prime, is_prime_certain
from wreathcert.factoring import primes_up_to

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


def test_primes_up_to_matches_trial_division():
    naive = [q for q in range(2, 10**5 + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    # squares of odd primes, and their neighbours, are where an odd-only sieve can slip
    squares = [q * q + d for q in naive if 2 < q <= 101 for d in (-1, 0, 1)]
    for limit in [*range(301), *squares, 10**5]:
        assert list(primes_up_to(limit)) == naive[: bisect.bisect_right(naive, limit)], limit
    assert [list(primes_up_to(limit)) for limit in (0, 1, 2)] == [[], [], [2]]
