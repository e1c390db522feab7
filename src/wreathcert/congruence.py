"""Norm congruences along the orbit of 1, and Wieferich machinery.

The headline congruence: the absolute norm of every iterate of 1 under
phi is congruent to 2^p - 1 modulo p^2.  It is checked directly along
the orbit (norm_congruence_check) and in the generalized form for
random points congruent to 1 mod (1 - zeta) (general_congruence_check).
Both compute only the residue, N(x) mod p^2, by running the norm in
Z[zeta]/(p^2): reduction mod p^2 is a ring map that commutes with the
Galois action, so it carries the product of the conjugates of x to that
of the reduced conjugates, and the full integer norm is never formed.
Both take the step phi in Z[zeta]/(p^2) too: phi has coefficients in
Z[zeta], so reduction commutes with phi as well.  The orbit check walks
the reduced orbit of 1, which is the orbit of 1 reduced, and builds no
exact orbit point; the lift check builds each random lift x exactly and
only phi(x) reduced.

Two lemmas say why the residue is 2^p - 1 at every level; pi = 1 - zeta:

* Lemma A: x = 1 mod pi gives phi(x) = 2 - zeta mod p*pi.  Proof: x - 1
  lies in (pi), so (x - 1)^p lies in pi^p Z[zeta] = p*pi Z[zeta], since
  (pi)^(p-1) = (p).
* Lemma B: N(a + p*pi*t) = N(a) mod p^2 for all a, t in Z[zeta].  Proof:
  expanding the product of the conjugates, the term linear in p is
  p*Tr(pi*t*a'), a' the product of the other conjugates of a, and the
  trace of any element of (pi) lies in pZ; the other terms carry p^2.

So N(phi(x)) = N(2 - zeta) = 2^p - 1 mod p^2 for every x = 1 mod pi, and
every point of the orbit of 1 is 1 mod pi (dynamics.orbit_congruence_check).

Wieferich primes (2^(p-1) = 1 mod p^2) are the one hypothesis the
certificate pipeline cannot discharge.  wieferich_check tests one p;
wieferich_scan tests a block of primes per pow, modulo the product of
their squares.  is_pth_power_mod_p2 decides p-th powers mod p^2: p is
Wieferich exactly when the norm residue 2^p - 1 is one, so only then can
the congruence not rule out p-th-power norms.  The tests check that
equivalence, compare the scan with one pow per prime, and compare the
p-th-power criterion with brute-force enumeration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice

from .cyclotomic import CycInt, one_minus_zeta, require_odd_prime, require_ring_prime
from .dynamics import phi_at
from .factoring import MAX_SIEVE_LIMIT, primes_up_to

PASS = "PASS"
FAIL = "FAIL"

# norm_congruence_check takes time and memory linear in n_max; the cap
# bounds a run at p = 101 to about 2 s on a 2-vCPU x86-64 host
MAX_LEVELS = 1000


def expected_residue(p: int) -> int:
    """(2^p - 1) mod p^2, the constant every orbit norm must hit."""
    require_odd_prime(p)
    p2 = p * p
    return (pow(2, p, p2) - 1) % p2


@dataclass(frozen=True)
class CongruenceItem:
    index: int  # iterate level, or trial number
    residue: int
    status: str
    note: str = ""  # always empty; kept as a field of the JSON report


@dataclass(frozen=True)
class CongruenceReport:
    p: int
    expected: int
    mode: str  # "orbit-norms" or "randomized-lift"
    seed: int | None
    coeff_bound: int | None
    items: tuple[CongruenceItem, ...]
    passed: bool


def require_max_levels(n_max: int) -> int:
    """Validate an orbit depth: 1 <= n_max <= MAX_LEVELS; return it."""
    if not 1 <= n_max <= MAX_LEVELS:
        raise ValueError(f"need 1 <= n_max <= {MAX_LEVELS}, got {n_max}")
    return n_max


def _report(p: int, mode: str, residues: list[int], seed=None, coeff_bound=None) -> CongruenceReport:
    """The report on residues 1, 2, ...: each PASSes when it is 2^p - 1 mod p^2."""
    want = expected_residue(p)
    items = tuple(CongruenceItem(i, r, PASS if r == want else FAIL) for i, r in enumerate(residues, 1))
    passed = all(item.status == PASS for item in items)
    return CongruenceReport(p, expected=want, mode=mode, seed=seed, coeff_bound=coeff_bound, items=items, passed=passed)


def norm_congruence_check(p: int, n_max: int) -> CongruenceReport:
    """Check norm(phi^n(1)) mod p^2 for n = 1..n_max, in Z[zeta]/(p^2)."""
    require_ring_prime(p)
    require_max_levels(n_max)
    p2 = p * p
    residues = []
    x = CycInt.one(p)
    for _ in range(n_max):
        x = phi_at(x, p2)
        residues.append(x.norm(p2))
    return _report(p, "orbit-norms", residues)


def general_congruence_check(
    p: int,
    trials: int,
    coeff_bound: int,
    seed: int,
) -> CongruenceReport:
    """Check norm(phi(x)) mod p^2 for random x congruent to 1 mod (1 - zeta).

    Samples x = 1 + (1 - zeta) * r with the coordinates of r uniform in
    [-coeff_bound, coeff_bound], reproducibly from the seed.
    """
    require_ring_prime(p)
    if trials < 1:
        raise ValueError("need trials >= 1")
    if coeff_bound < 1:
        raise ValueError("need coeff_bound >= 1")
    p2 = p * p
    pi = one_minus_zeta(p)
    one = CycInt.one(p)
    rng = random.Random(seed)
    residues = []
    for _ in range(trials):
        r = CycInt(p, [rng.randint(-coeff_bound, coeff_bound) for _ in range(p - 1)])
        residues.append(phi_at(one + pi * r, p2).norm(p2))
    return _report(p, "randomized-lift", residues, seed, coeff_bound)


# -- Wieferich primes ---------------------------------------------------


def wieferich_check(p: int) -> bool:
    """True iff 2^(p-1) = 1 mod p^2.  Works for any odd prime."""
    require_odd_prime(p)
    return pow(2, p - 1, p * p) == 1


# primes per block of wieferich_scan: a block of 8 was fastest here, and
# 64 or more is slower than one pow per prime
_SCAN_BLOCK = 8


def require_scan_limit(limit: int) -> int:
    """Validate a Wieferich scan limit: 3 <= limit <= MAX_SIEVE_LIMIT; return it."""
    if not 3 <= limit <= MAX_SIEVE_LIMIT:
        raise ValueError(f"need 3 <= limit <= {MAX_SIEVE_LIMIT}, got {limit}")
    return limit


def wieferich_scan(limit: int) -> list[int]:
    """All Wieferich primes up to limit, ascending.

    The odd primes are tested in blocks q_1 < ... < q_k sharing one modulus
    M = prod q_j^2: r = 2^(q_1 - 1) mod M comes from one pow, each later
    2^(q_j - 1) mod M from r by a shift of q_j - q_(j-1) bits and one
    reduction, and since q_j^2 divides M, r mod q_j^2 is 2^(q_j - 1) mod
    q_j^2 exactly.
    """
    require_scan_limit(limit)
    odd_primes = islice(primes_up_to(limit), 1, None)
    found = []
    while block := list(islice(odd_primes, _SCAN_BLOCK)):
        modulus = math.prod([q * q for q in block])
        prev = block[0]
        r = pow(2, prev - 1, modulus)
        for q in block:
            r = (r << q - prev) % modulus
            prev = q
            if r % (q * q) == 1:
                found.append(q)
    return found


# -- p-th powers mod p^2 -------------------------------------------------


def is_pth_power_mod_p2(a: int, p: int) -> bool:
    """Decide whether a is a p-th power mod p^2 (fast criterion).

    The unit group mod p^2 is cyclic of order p(p-1), so a unit is a
    p-th power exactly when its (p-1)-st power is 1; a multiple of p is
    a p-th power exactly when it is 0 mod p^2.
    """
    require_odd_prime(p)
    a %= p * p
    if a % p == 0:
        return a == 0
    return pow(a, p - 1, p * p) == 1

