"""Primality testing and desk-scale integer factorization.

is_prime() is Miller-Rabin with thirteen fixed bases for every n.  That
is a proof below DETERMINISTIC_LIMIT and only a probable-prime test above
it, so every verdict that rests on primality (the ring prime, a
certificate's witness, verify's fingerprint prime) keeps n below the
limit: require_odd_prime and is_prime_certain refuse larger n before
they ask.

primes_up_to() is the one prime sieve; trial division and the Wieferich
scan both walk it, and MAX_SIEVE_LIMIT caps its memory.

factor() runs trial division up to a configured bound, then a seeded
Brent-variant Pollard rho within an iteration budget.  Results are
honest when incomplete: whatever is left unfactored (probable primes
above the deterministic range, composites the budget did not split) is
returned as one cofactor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
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

# primes_up_to holds a (limit + 1)-byte sieve, so both of its callers, the
# trial bound of factor() and the Wieferich scan limit, stop at 100 MB
MAX_SIEVE_LIMIT = 10**8


@dataclass(frozen=True)
class FactorConfig:
    """Knobs for factor(); the seed makes rho runs reproducible.

    A trial bound or budget that is not an int (a bool included) is refused
    when the config is made, as are a trial bound outside [2, MAX_SIEVE_LIMIT]
    and a negative budget.
    """

    trial_bound: int = 100_000
    rho_budget: int = 10_000_000
    rho_seed: int = 1

    def __post_init__(self):
        for name in ("trial_bound", "rho_budget"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if not 2 <= self.trial_bound <= MAX_SIEVE_LIMIT:
            raise ValueError(f"trial_bound must be in [2, {MAX_SIEVE_LIMIT}], got {self.trial_bound}")
        if self.rho_budget < 0:
            raise ValueError(f"rho_budget must be at least 0, got {self.rho_budget}")


@dataclass(frozen=True)
class Factorization:
    """Multiset of certified prime factors plus an honest leftover.

    |n| = prod(q**e for q, e in factors) * cofactor, exactly.  Every
    listed prime passed a deterministic primality check.  cofactor is 1
    iff the factorization is complete.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int


def _mr_composite(n: int, a: int) -> bool:
    """Strong probable-prime test; True means a proves n composite."""
    a %= n
    if a == 0:
        return False
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
    """The primes q <= limit, ascending, read lazily off a (limit + 1)-byte sieve.

    Callers keep 0 <= limit <= MAX_SIEVE_LIMIT.
    """
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes((limit - q * q) // q + 1)
    return compress(range(limit + 1), sieve)


def _trial_divide(m: int, bound: int, counts: dict[int, int]) -> int:
    """Strip the prime factors q <= bound from m, recording exponents.

    Stops once q^2 exceeds what is left, so the rest it returns is 1, a
    prime, or a number with no prime factor <= bound.
    """
    for q in primes_up_to(min(bound, math.isqrt(m))):
        if q * q > m:
            break
        while m % q == 0:
            counts[q] = counts.get(q, 0) + 1
            m //= q
    return m


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """One-or-more Brent rho attempts on composite odd n.

    Returns (proper factor or None, iterations consumed).  Each
    iteration is one application of the polynomial step map.
    """
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        batch = 128
        g, r, q = 1, 1, 1
        ys = y
        while g == 1 and used < budget:
            x = y
            advance = min(r, budget - used)
            for _ in range(advance):
                y = (y * y + c) % n
            used += advance
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                take = min(batch, r - k, budget - used)
                for _ in range(take):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += take
                g = math.gcd(q, n)
                k += take
            r *= 2
        if g == n:
            # batching overshot the collision; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, used
        # failed attempt (g == 1 with budget spent, or degenerate cycle);
        # retry with fresh constants if budget remains
    return None, used


def factor(n: int, cfg: FactorConfig = FactorConfig()) -> Factorization:
    """Factor |n| by trial division then seeded Brent rho.

    Deterministic for a given (n, cfg).  Raises ValueError for n = 0.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    counts: dict[int, int] = {}
    m = _trial_divide(m, cfg.trial_bound, counts)

    rng = random.Random(cfg.rho_seed)
    budget = cfg.rho_budget
    pending = [m] if m > 1 else []
    leftover: list[int] = []  # probable primes past DETERMINISTIC_LIMIT, composites rho did not split
    while pending:
        c = pending.pop()
        if c == 1:
            continue
        if is_prime(c):
            if c < DETERMINISTIC_LIMIT:
                counts[c] = counts.get(c, 0) + 1
            else:
                leftover.append(c)
            continue
        d = None
        if budget > 0:
            d, used = _brent_rho(c, rng, budget)
            budget -= used
        if d is None:
            leftover.append(c)
        else:
            pending.append(d)
            pending.append(c // d)

    cofactor = math.prod(leftover)
    factors = tuple(sorted(counts.items()))
    check = cofactor
    for q, e in factors:
        check *= q**e
    if check != abs(n):
        raise AssertionError("factorization does not reconstruct its input")
    return Factorization(factors, cofactor)
