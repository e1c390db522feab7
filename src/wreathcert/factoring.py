"""Primality testing and the prime sieve.

is_prime() is Miller-Rabin with thirteen fixed bases for every n.  That
is a proof below DETERMINISTIC_LIMIT and only a probable-prime test above
it, so every verdict that rests on primality (the ring prime, verify's
fingerprint prime) keeps n below the limit: require_odd_prime and
is_prime_certain refuse larger n before they ask.

primes_up_to() is the one prime sieve, over the odd numbers only; the
Wieferich scan walks it, and MAX_SIEVE_LIMIT caps its memory.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from typing import Iterator

# Miller-Rabin with the first thirteen prime bases is a proven primality
# test below this bound, the least strong pseudoprime to all of them
# (Sorenson & Webster 2017); the first twelve pass the composite
# 318665857834031151167461.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
)

# primes_up_to holds a sieve of about limit/2 bytes, so the Wieferich scan
# limit stops it at 50 MB
MAX_SIEVE_LIMIT = 10**8


def _mr_composite(n: int, a: int) -> bool:
    """Strong probable-prime test to a base 1 < a < n; True means a proves n composite."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin with the thirteen bases of _MR_BASES, for every n.

    A proof below DETERMINISTIC_LIMIT; above it a probable-prime test only,
    which is why no verdict reads its answer there.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    return not any(_mr_composite(n, a) for a in _MR_BASES)


def is_prime_certain(n: int) -> bool:
    """True when is_prime(n) holds with a deterministic guarantee."""
    return n < DETERMINISTIC_LIMIT and is_prime(n)


def primes_up_to(limit: int) -> Iterator[int]:
    """The primes q <= limit, ascending, read lazily off a sieve of the odd numbers.

    The sieve holds one byte per odd number up to limit, about limit/2
    bytes; 2 is chained in front.  Callers keep 0 <= limit <= MAX_SIEVE_LIMIT.
    """
    size = limit // 2 + 1  # byte i stands for 2i + 1; range() below stops at limit
    sieve = bytearray([1]) * size
    sieve[0] = 0  # 1 is not prime
    for q in range(3, math.isqrt(limit) + 1, 2):
        if sieve[q // 2]:
            start = q * q // 2
            sieve[start::q] = bytes(len(range(start, size, q)))
    odd_primes = compress(range(1, limit + 1, 2), sieve)
    return chain([2], odd_primes) if limit >= 2 else odd_primes
