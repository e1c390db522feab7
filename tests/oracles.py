"""Second algorithms that the tests compare the library's results with,
and the math that only the tests use.

Each of these answers a question the library answers another way:

* phi itself, expanded by the binomial theorem and composed into the
  expanded iterate phi^n (iterate_poly, a CycPoly of degree p^n), where
  the library evaluates the closed form (phi_at) point by point;
* the structural facts, read off the expanded iterate and off explicit
  orbit walks with its Horner evaluation, where the library reads them
  off phi_at's values and the binomials by induction;
* whether an integer is a p-th power, by its exact integer p-th root
  (iroot), where a certificate decides each level from its norm mod p^2;
* the group order by the recursion |W_1| = p, |W_k| = |W_(k-1)|^p * p,
  where the library uses the closed formula p^((p^n - 1)/(p - 1));
* ring multiply by the schoolbook convolution of the coefficient
  vectors, which the library's exact _mul runs too; the independent
  check of _mul is test_mul_mod_matches_reduced_exact_product, which
  compares its product, reduced mod m, with the packed big-integer
  product of cyclotomic.ring(p, m) at all 25 ring primes;
* polynomial multiply by the schoolbook sum of CycInt products, where
  CycPoly lays both polynomials out in one integer vector and convolves
  that once with the library's _convolve.

Two more answer questions no production path asks, so the tests tie them
to each other or to what the library does compute:

* the (1 - zeta)-adic valuation, by repeated exact division by
  (1 - zeta) in O(p) per division; the tests compare that division with
  a second one through the complement product prod_{k=2}^{p-1} (1 - zeta^k),
  whose product with (1 - zeta) is p, and tie the valuation to
  multiplication by (1 - zeta) and to the norm, which p divides exactly
  when the valuation is positive;
* p-th powers mod p^2, by the cyclic unit group and by enumerating x^p
  for every residue x, which the tests compare.
"""

import math
from functools import lru_cache
from itertools import accumulate

from wreathcert import CycInt, RingMismatchError, one_minus_zeta, require_ring_prime, zeta
from wreathcert.cyclotomic import _convolve, _wrap

# -- the expanded iterate ----------------------------------------------------


class CycPoly:
    """Immutable polynomial in z with CycInt coefficients, ascending, canonical."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        require_ring_prime(p)
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, CycInt):
                raise TypeError("CycPoly coefficients must be CycInt")
            if c.p != p:
                raise RingMismatchError(f"coefficient ring Z[zeta_{c.p}] does not match p={p}")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, CycPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CycPoly({self.p}, degree={self.degree})"

    def __call__(self, x: CycInt) -> CycInt:
        """Evaluate by Horner's rule."""
        if not isinstance(x, CycInt):
            raise TypeError("evaluation point must be a CycInt")
        if x.p != self.p:
            raise RingMismatchError(f"point in Z[zeta_{x.p}], polynomial over Z[zeta_{self.p}]")
        acc = CycInt.zero(self.p)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other):
        """Product with a CycPoly over the same ring; anything else is NotImplemented."""
        if not isinstance(other, CycPoly):
            return NotImplemented
        if other.p != self.p:
            raise RingMismatchError(f"cannot multiply polynomials over p={self.p} and p={other.p}")
        if self.is_zero() or other.is_zero():
            return CycPoly(self.p, ())
        p = self.p
        # one integer convolution: z^i zeta^k sits at i * w + k, and a ring
        # product reaches only zeta^(2p - 4), so slots of w = 2p - 3 never overlap
        w = 2 * p - 3
        prod = _convolve(_slotted(self.coeffs, w), _slotted(other.coeffs, w))
        out = [CycInt._of(p, _wrap(prod[i * w : (i + 1) * w], p)) for i in range(self.degree + other.degree + 1)]
        return CycPoly(p, out)


def _slotted(coeffs, w: int) -> list:
    """The coefficient tuples of CycInts laid w apart in one zero-padded list."""
    flat = [0] * (len(coeffs) * w)
    for i, c in enumerate(coeffs):
        flat[i * w : i * w + len(c.coeffs)] = c.coeffs
    return flat


def iterate_poly(p: int, n: int) -> CycPoly:
    """The fully expanded n-th iterate of phi, of degree p^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    one, tail = CycPoly(p, (CycInt.one(p),)), CycInt(p, (2, -1))
    g = CycPoly(p, (CycInt.zero(p), CycInt.one(p)))  # z, so g = phi after one step
    for _ in range(n):
        # phi(g) = (g - 1)^p + (2 - zeta): shift the constant term, raise to
        # the p-th power by square-and-multiply, shift it back by 2 - zeta
        base, result, e = CycPoly(p, (g.coeffs[0] - 1,) + g.coeffs[1:]), one, p
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        g = CycPoly(p, (result.coeffs[0] + tail,) + result.coeffs[1:])
    return g


# -- phi and the structural facts --------------------------------------------


def phi_by_binomials(p: int) -> CycPoly:
    """phi = (z - 1)^p + 2 - zeta, expanded term by term by the binomial theorem."""
    coeffs = [one_minus_zeta(p)]  # (-1)^p + 2 - zeta
    for i in range(1, p + 1):
        c = math.comb(p, i)
        if (p - i) % 2:
            c = -c
        coeffs.append(CycInt.from_int(p, c))
    return CycPoly(p, coeffs)


def expanded_eisenstein_failures(p: int, n: int) -> list[str]:
    """Eisenstein shape of the expanded phi^n at the prime above p."""
    f = iterate_poly(p, n)
    failures = []
    if f.coeffs[-1] != 1:
        failures.append("leading coefficient differs from 1")
    if f.coeffs[0] != one_minus_zeta(p):
        failures.append("constant term differs from 1 - zeta")
    for i in range(1, f.degree):
        if any(c % p for c in f.coeffs[i].coeffs):
            failures.append(f"coefficient of z^{i} is not divisible by {p}")
    return failures


def walked_fixed_point_failures(p: int, s_max: int) -> list[str]:
    """phi^s(0) = 1 - zeta for s = 1..s_max, iterate by iterate."""
    f = iterate_poly(p, 1)
    target = one_minus_zeta(p)
    failures = []
    x = CycInt.zero(p)
    for s in range(1, s_max + 1):
        x = f(x)
        if x != target:
            failures.append(f"iterate {s} of 0 differs from 1 - zeta")
    return failures


def walked_orbit_congruence_failures(p: int, t_max: int) -> list[str]:
    """phi^t(1) = 1 mod (1 - zeta) for t = 0..t_max, iterate by iterate."""
    f = iterate_poly(p, 1)
    one = CycInt.one(p)
    failures = []
    x = one
    for t in range(t_max + 1):
        if t:
            x = f(x)
        if not x.congruent_mod_pi(one):
            failures.append(f"iterate {t} of 1 is not congruent to 1 mod (1 - zeta)")
    return failures


# -- integer roots ------------------------------------------------------------


def iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 0, floor(n^(1/k)), by Newton's method from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# -- group order -----------------------------------------------------------


def group_order_recursive(p: int, n: int) -> int:
    """|W_n| from |W_1| = p and |W_k| = |W_(k-1)|^p * p."""
    order = p
    for _ in range(n - 1):
        order = order**p * p
    return order


# -- ring multiply ---------------------------------------------------------


def mul_schoolbook(a, b, p: int) -> tuple:
    """Product of two reduced coefficient tuples, term by term."""
    prod = [0] * (2 * p - 3)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    # exponents >= p wrap around through zeta^p = 1, zeta^(p-1) folds back
    for e in range(p, 2 * p - 3):
        prod[e - p] += prod[e]
    top = prod[p - 1]
    return tuple(c - top for c in prod[: p - 1])


def poly_mul_schoolbook(f: CycPoly, g: CycPoly) -> CycPoly:
    """f * g as the sum of f_i g_j z^(i + j), one ring product per pair."""
    out = [CycInt.zero(f.p)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return CycPoly(f.p, out)


# -- the prime above p -----------------------------------------------------


@lru_cache(maxsize=None)
def pi_complement(p: int) -> CycInt:
    """prod_{k=2}^{p-1} (1 - zeta^k); times (1 - zeta) this equals p."""
    acc = CycInt.one(p)
    for k in range(2, p):
        acc = acc * (CycInt.one(p) - zeta(p, k))
    return acc


def divide_by_pi(x: CycInt) -> CycInt | None:
    """x / (1 - zeta) in O(p), or None when not exact.

    Lift x to Z[X]/(X^p - 1) with a zero coefficient of X^(p - 1); it is
    x + t (1 + X + ... + X^(p - 1)) for any integer t in Z[zeta].  The
    image of 1 - X has coefficient sum 0, so the division is exact iff p
    divides the sum s of x's coefficients, and with t = -s/p the quotient
    Q solves Q_i - Q_(i-1) = x_i + t: its coefficients are the prefix sums.
    """
    p = x.p
    s = sum(x.coeffs)
    if s % p:
        return None
    t = -s // p
    return CycInt(p, tuple(accumulate(c + t for c in x.coeffs)))


def divide_by_pi_complement(x: CycInt) -> CycInt | None:
    """x / (1 - zeta) as x * pi_complement(p) / p, or None when not exact."""
    p = x.p
    prod = x * pi_complement(p)
    if any(c % p for c in prod.coeffs):
        return None
    return CycInt(p, tuple(c // p for c in prod.coeffs))


def pi_valuation(x: CycInt) -> int | float:
    """The exponent of (1 - zeta) in x, by repeated division; math.inf for zero."""
    if x.is_zero():
        return math.inf
    v = 0
    while (x := divide_by_pi(x)) is not None:
        v += 1
    return v


# -- p-th powers mod p^2 -----------------------------------------------------


def is_pth_power_mod_p2(a: int, p: int) -> bool:
    """Whether a is a p-th power mod p^2, by the structure of the unit group.

    The unit group mod p^2 is cyclic of order p(p-1), so a unit is a
    p-th power exactly when its (p-1)-st power is 1; a multiple of p is
    a p-th power exactly when it is 0 mod p^2.
    """
    p2 = p * p
    a %= p2
    if a % p == 0:
        return a == 0
    return pow(a, p - 1, p2) == 1


def is_pth_power_mod_p2_bruteforce(a: int, p: int) -> bool:
    """Try every residue x in [0, p^2)."""
    p2 = p * p
    a %= p2
    return any(pow(x, p, p2) == a for x in range(p2))


@lru_cache(maxsize=None)
def pth_power_residues_mod_p2(p: int) -> frozenset[int]:
    """The set {x^p mod p^2} over all residues x, enumerated once."""
    p2 = p * p
    return frozenset(pow(x, p, p2) for x in range(p2))
