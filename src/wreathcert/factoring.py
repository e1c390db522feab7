"""Primality testing and desk-scale integer factorization.

is_prime() is deterministic for n below DETERMINISTIC_LIMIT (a fixed
Miller-Rabin base set suffices there); above that it falls back to a
BPSW-style test (strong base-2 Miller-Rabin plus a strong Lucas test
with Selfridge parameters), which has no known counterexamples but is
formally probabilistic.

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

# Miller-Rabin with the first thirteen prime bases is a proven primality
# test below this bound, the least strong pseudoprime to all of them
# (Sorenson & Webster 2017); the first twelve pass the composite
# 318665857834031151167461.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
)


@dataclass(frozen=True)
class FactorConfig:
    """Knobs for factor(); the seed makes rho runs reproducible."""

    trial_bound: int = 100_000
    rho_budget: int = 10_000_000
    rho_seed: int = 1


@dataclass(frozen=True)
class Factorization:
    """Multiset of certified prime factors plus an honest leftover.

    n = prod(q**e for q, e in factors) * cofactor, exactly.  Every
    listed prime passed a deterministic primality check.  cofactor is 1
    iff the factorization is complete.
    """

    n: int
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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            # gcd(|D|, n) > 1; n is far larger than |D| here
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4

    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    # Compute U_d, V_d, Q^d by a left-to-right binary chain (P = 1).
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, V + D * U
            if U % 2:
                U += n
            if V % 2:
                V += n
            U = U // 2 % n
            V = V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test; deterministic below DETERMINISTIC_LIMIT."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < DETERMINISTIC_LIMIT:
        return not any(_mr_composite(n, a) for a in _MR_BASES)
    return not _mr_composite(n, 2) and _strong_lucas_prp(n)


def is_prime_certain(n: int) -> bool:
    """True when is_prime(n) holds with a deterministic guarantee."""
    return n < DETERMINISTIC_LIMIT and is_prime(n)


def _trial_divide(m: int, bound: int, counts: dict[int, int]) -> int:
    """Strip prime factors <= bound from m, recording exponents."""
    for q in (2, 3):
        if q > bound:
            return m
        while m % q == 0:
            counts[q] = counts.get(q, 0) + 1
            m //= q
    q = 5
    step = 2  # alternates 2, 4 to walk 6k +- 1
    while q <= bound and q * q <= m:
        while m % q == 0:
            counts[q] = counts.get(q, 0) + 1
            m //= q
        q += step
        step = 6 - step
    if m > 1 and q * q > m:
        # every candidate below sqrt(m) was tried, so m is prime
        counts[m] = counts.get(m, 0) + 1
        return 1
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
    if cfg.trial_bound < 2:
        raise ValueError("trial_bound must be >= 2")
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
    return Factorization(abs(n), factors, cofactor)
