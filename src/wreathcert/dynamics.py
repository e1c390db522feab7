"""The map phi(z) = (z - 1)^p + 2 - zeta and its orbits over Z[zeta_p].

phi_at is the one definition of phi: it evaluates the closed form
phi(x) = (x - 1)^p + (2 - zeta), with the p-th power taken by
square-and-multiply, O(log p) ring multiplies per step.  Certificates,
their verification, the norm congruence and the structural checks all
evaluate it, and none expands an iterate, whose degree is p^n while a
point's coefficients merely grow p-fold per step.
That growth is still doubly exponential in n, so the exact orbit that
certificates and their verification walk carries a fixed size cap,
MAX_COEFF_BITS (SizeLimitError); the orbit congruence steps with
phi_at(x, p^2) instead, whose coefficients stay below p^2, so it needs
no cap.

The structural checks read phi's values and the binomials of its
closed form, and hold for every n by a one-step induction, so their
cost does not depend on n:

* fixed_point_check: phi(0) = 1 - zeta and phi(1 - zeta) = 1 - zeta,
  so phi^s(0) = 1 - zeta for every s >= 1.
* orbit_congruence_check: phi(1) = 1 mod (1 - zeta).  A polynomial over
  Z[zeta] maps congruent points to congruent values, so phi^t(1) = 1
  mod (1 - zeta) for every t >= 0.
* eisenstein_check: (z - 1)^p is monic of degree p and its coefficients
  of z^1..z^(p-1), +-C(p, i), are divisible by p, so phi = z^p + phi(0)
  mod p.  By Frobenius in (Z[zeta]/p)[z], phi^n = z^(p^n) + phi^n(0)
  mod p, and phi^n(0) = 1 - zeta by the fixed-point facts: phi^n is
  monic, Eisenstein at (1 - zeta), with constant term exactly 1 - zeta.

The tests compare these verdicts, and phi_at, with the expanded iterate
that tests/oracles.py builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .cyclotomic import CycInt, one_minus_zeta, require_ring_prime
from .errors import RingMismatchError, SizeLimitError

MAX_COEFF_BITS = 1 << 20


@lru_cache(maxsize=None)
def _two_minus_zeta(p: int) -> CycInt:
    """The constant 2 - zeta of phi, formed once per p."""
    return CycInt(p, (2, -1))


def phi_at(x: CycInt, modulus: int | None = None) -> CycInt:
    """phi(x) = (x - 1)^p + (2 - zeta), with the power by square-and-multiply.

    O(log p) ring multiplies, where Horner's rule on the expanded phi
    takes p.  With a modulus m the power runs in (Z/m)[zeta] and the
    result is phi(x) with each coordinate reduced into [0, m).
    """
    p = x.p
    y = pow(x - 1, p, modulus) + _two_minus_zeta(p)
    return y if modulus is None else CycInt._of(p, tuple(c % modulus for c in y.coeffs))


def _coeff_bits(x: CycInt) -> int:
    return max((c.bit_length() for c in x.coeffs), default=0)


def orbit_points(p: int, x0: CycInt, n: int) -> Iterator[CycInt]:
    """Iterator over phi^k(x0) for k = 1..n, guarding coefficient growth.

    p, n and the ring of x0 are checked at the call.  The iterator
    raises SizeLimitError before a step whose result would clearly
    exceed MAX_COEFF_BITS (one step multiplies bit sizes by about p), or
    after a step that did.
    """
    require_ring_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    if x0.p != p:
        raise RingMismatchError(f"start point lives in Z[zeta_{x0.p}], expected p={p}")
    return _capped_orbit(p, x0, n)


def _capped_orbit(p: int, x0: CycInt, n: int) -> Iterator[CycInt]:
    x = x0
    for _ in range(n):
        if (_coeff_bits(x) + 8) * p > MAX_COEFF_BITS:
            raise SizeLimitError(
                f"iterate coefficients near {_coeff_bits(x)} bits; next step would exceed "
                f"the {MAX_COEFF_BITS}-bit cap"
            )
        x = phi_at(x)
        if _coeff_bits(x) > MAX_COEFF_BITS:
            raise SizeLimitError(f"iterate coefficients exceed the {MAX_COEFF_BITS}-bit cap")
        yield x


def iterate_point(p: int, n: int, x0: CycInt) -> CycInt:
    """phi^n(x0) by repeated evaluation (never by expanding phi^n)."""
    x = x0
    for x in orbit_points(p, x0, n):
        pass
    return x


# -- structural fact checks --------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Outcome of one structural check, with failures spelled out."""

    check: str
    p: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "REFUTED"


def _phi_fixes_pi(p: int) -> list[str]:
    """Failures of phi(0) = 1 - zeta = phi(1 - zeta)."""
    target = one_minus_zeta(p)
    failures = []
    if phi_at(CycInt.zero(p)) != target:
        failures.append("phi(0) differs from 1 - zeta")
    if phi_at(target) != target:
        failures.append("1 - zeta is not a fixed point of phi")
    return failures


def eisenstein_check(p: int) -> StructureReport:
    """Check phi^n is Eisenstein at the prime above p, from phi alone.

    The coefficients of z^1..z^(p-1) in phi are +-C(p, i), so they must
    be divisible by p; (z - 1)^p is monic of degree p by construction.
    Then phi = z^p + phi(0) mod p, and by induction with Frobenius
    phi^n = z^(p^n) + phi^n(0) mod p; phi^n is monic, and its constant
    term phi^n(0) is exactly 1 - zeta when phi(0) = 1 - zeta =
    phi(1 - zeta).  The verdict holds for every n.
    """
    require_ring_prime(p)
    failures = [f"coefficient of z^{i} is not divisible by {p}" for i in range(1, p) if math.comb(p, i) % p]
    failures += _phi_fixes_pi(p)
    return StructureReport("eisenstein", p, tuple(failures))


def fixed_point_check(p: int) -> StructureReport:
    """Check that 1 - zeta absorbs the orbit of 0.

    phi(0) = 1 - zeta and phi(1 - zeta) = 1 - zeta give phi^s(0) = 1 - zeta
    for every s >= 1 by induction.
    """
    require_ring_prime(p)
    return StructureReport("fixed_point", p, tuple(_phi_fixes_pi(p)))


def orbit_congruence_check(p: int) -> StructureReport:
    """Check phi^t(1) stays congruent to 1 mod (1 - zeta), for every t.

    phi has coefficients in Z[zeta], so x = 1 mod (1 - zeta) gives
    phi(x) = phi(1) mod (1 - zeta); phi(1) = 1 mod (1 - zeta) then carries
    the congruence along the whole orbit.
    """
    require_ring_prime(p)
    failures = []
    if not phi_at(CycInt.one(p)).congruent_mod_pi(1):
        failures.append("phi(1) is not congruent to 1 mod (1 - zeta)")
    return StructureReport("orbit_congruence", p, tuple(failures))
