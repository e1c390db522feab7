"""Primality testing and a desk-scale search for prime factors.

is_prime() is Miller-Rabin with thirteen fixed bases for every n.  That
is a proof below DETERMINISTIC_LIMIT and only a probable-prime test above
it, so every verdict that rests on primality (the ring prime, a
certificate's witness, verify's fingerprint prime) keeps n below the
limit: require_odd_prime and is_prime_certain refuse larger n before
they ask.

primes_up_to() is the one prime sieve, over the odd numbers only; trial
division and the Wieferich scan both walk it, and MAX_SIEVE_LIMIT caps its
memory.

certified_primes() is the one factoring search: it yields the primes of |n|
below DETERMINISTIC_LIMIT lazily, in the order it finds them, so a caller
that needs one prime (the certificate's witness) stops there and the rest
of n is never factored.  Trial division up to a configured bound comes
first, yielding each prime ascending as it divides it out, so it reads no
prime past the one the caller stops at; then a seeded Brent-variant Pollard
rho within an iteration budget, searching the smaller part of each split
first.  Whatever is left unfactored (probable primes above the
deterministic range, composites the budget did not split) goes to an
honest leftover.  The tests collect the whole stream into a full
factorization (tests/oracles.py).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, compress
from typing import Generator, Iterator

# Miller-Rabin with the first thirteen prime bases is a proven primality
# test below this bound, the least strong pseudoprime to all of them
# (Sorenson & Webster 2017); the first twelve pass the composite
# 318665857834031151167461.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
)

# primes_up_to holds a sieve of about limit/2 bytes, so both of its callers,
# the trial bound of certified_primes() and the Wieferich scan limit, stop at 50 MB
MAX_SIEVE_LIMIT = 10**8


@dataclass(frozen=True)
class FactorConfig:
    """Knobs for certified_primes(); the seed makes rho runs reproducible.

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


def _trial_divide(m: int, bound: int) -> Generator[int, None, int]:
    """Divide the prime factors q <= bound out of m, yielding each q as it goes.

    The primes come ascending, once per multiplicity, so a caller that
    stops at one never has the rest of m divided.  Trial division ends
    once q^2 exceeds what is left, and returns that rest: 1, a prime, or a
    number with no prime factor <= bound.
    """
    for q in primes_up_to(min(bound, math.isqrt(m))):
        if q * q > m:
            break
        while m % q == 0:
            m //= q
            yield q
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
                    q = q * (x - y) % n
                used += take
                g = math.gcd(q, n)
                k += take
            r *= 2
        if g == n:
            # batching overshot the collision; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, used
        # failed attempt (g == 1 with budget spent, or degenerate cycle);
        # retry with fresh constants if budget remains
    return None, used


def certified_primes(n: int, cfg: FactorConfig, leftover: list[int]) -> Iterator[int]:
    """The primes of |n| below DETERMINISTIC_LIMIT, once per multiplicity, as found.

    Trial division's primes come first, ascending, then rho's; each rho
    split is searched smaller part first.  What is left unfactored goes to
    leftover, which is complete once the stream is exhausted.  Deterministic
    for a given (n, cfg).  Raises ValueError for n = 0.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = yield from _trial_divide(abs(n), cfg.trial_bound)

    rng = random.Random(cfg.rho_seed)
    budget = cfg.rho_budget
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if is_prime(c):
            if c < DETERMINISTIC_LIMIT:
                yield c
            else:
                leftover.append(c)  # a probable prime only
            continue
        d = None
        if budget > 0:
            d, used = _brent_rho(c, rng, budget)
            budget -= used
        if d is None:
            leftover.append(c)
        else:
            pending.extend(sorted((d, c // d), reverse=True))
