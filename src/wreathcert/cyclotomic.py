"""Exact arithmetic in the ring of integers Z[zeta_p], p an odd prime.

Elements are stored in the power basis {1, zeta, ..., zeta^(p-2)} as a
tuple of p-1 arbitrary-precision integers, always fully reduced: a
zeta^(p-1) term is eliminated through zeta^(p-1) = -(1 + zeta + ... +
zeta^(p-2)), so equality is a plain vector comparison.

The absolute norm is the product of all Galois conjugates, taken
along the cyclic group Gal(Q(zeta_p)/Q).  With sigma: zeta -> zeta^g for
a primitive root g mod p, the partial products y_k = prod_{i<k}
sigma^i(x) satisfy y_(a+b) = y_a * sigma^a(y_b), so walking the bits of
p - 1 reaches N(x) = y_(p-1) in O(log p) ring multiplies.  The
multi-modular resultant in tests/resultant_oracle.py is the independent
algorithm the tests compare against.  Given a modulus m, the same chain
runs in (Z/m)[zeta] and returns N(x) mod m.

The exact ring multiply convolves the two coefficient vectors by the
schoolbook loop, skipping zero coefficients, and then wraps exponents
through zeta^p = 1.  Polynomials over Z[zeta] multiply through the same
two steps (dynamics.CycPoly).  The multiply mod m, whose
coefficients stay below m, is one big-integer product instead: Kronecker
substitution packs each operand into one int with a slot of 1, 2, 4 or 8
bytes per coefficient (_mul_mod); a modulus too wide for 8-byte slots
reduces the exact product.

The prime ideal generated by (1 - zeta) is the unique prime above p
(p factors as its (p-1)-st power).  Division by (1 - zeta) is exact
division by prefix sums: x = (1 - zeta) y with s = y_(p-2) reads
x_0 + ... + x_i = y_i + (i + 1) s, and at i = p - 2 the coordinate sum
of x is p s.  The tests compare it with multiplication by the
complement product prod_{k=2}^{p-1} (1 - zeta^k).

All values are immutable; every operation returns a new element.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from struct import Struct

from .errors import RingMismatchError
from .factoring import DETERMINISTIC_LIMIT, is_prime

# Ring degree is p-1; construction rejects larger primes so vector
# sizes stay sane.  Pure-integer checks (Wieferich etc.) do not go
# through this bound.
MAX_RING_PRIME = 101


@lru_cache(maxsize=32)
def require_odd_prime(p: int) -> int:
    """Validate that p is an odd prime, proved so deterministically; return it.

    p at or above DETERMINISTIC_LIMIT is refused before any primality
    test, and named by its bit length: is_prime is only probabilistic
    there, and slow on hostile input of thousands of digits.  The cache is
    bounded, because a library loop may check millions of distinct p.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError(f"prime must be an int, got {type(p).__name__}")
    if p >= DETERMINISTIC_LIMIT:
        raise ValueError(
            f"a {p.bit_length()}-bit integer is past the deterministic primality range "
            f"(p < {DETERMINISTIC_LIMIT})"
        )
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p


def require_ring_prime(p: int) -> int:
    """Validate p for ring arithmetic: odd prime and <= MAX_RING_PRIME."""
    require_odd_prime(p)
    if p > MAX_RING_PRIME:
        raise ValueError(f"ring arithmetic supports p <= {MAX_RING_PRIME}, got {p}")
    return p


class CycInt:
    """An element of Z[zeta_p] in canonical power-basis form."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        """Build from raw coefficients for zeta^0..zeta^(p-1).

        Accepts up to p entries; a zeta^(p-1) entry is folded into the
        stored p-1 coordinates.  Longer input is rejected.
        """
        require_ring_prime(p)
        raw = list(coeffs)
        if len(raw) > p:
            raise ValueError(f"got {len(raw)} coefficients, at most {p} allowed for p={p}")
        for c in raw:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        raw.extend([0] * (p - len(raw)))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", _fold(raw, p))

    @classmethod
    def _of(cls, p: int, coeffs: tuple) -> CycInt:
        """Wrap a reduced tuple of p - 1 ints from ring arithmetic, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, p: int, value: int) -> CycInt:
        return cls(p, (value,))

    @classmethod
    def zero(cls, p: int) -> CycInt:
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> CycInt:
        return cls.from_int(p, 1)

    # -- basic protocol ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, CycInt):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CycInt({self.p}, {list(self.coeffs)})"

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise RingMismatchError(f"cannot combine Z[zeta_{self.p}] with Z[zeta_{other.p}]")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return CycInt._of(self.p, (other,) + (0,) * (self.p - 2))
        return None

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt._of(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt._of(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycInt._of(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt._of(self.p, _mul(self.coeffs, other.coeffs, self.p))

    __rmul__ = __mul__

    def __pow__(self, e: int, modulus: int | None = None) -> CycInt:
        """self^e for an int e >= 0, by square-and-multiply.

        pow(x, e, m) reduces x and every product mod m, so the result is
        x^e with each coordinate reduced into [0, m).
        """
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        if e < 0:
            raise ValueError("ring elements have no negative powers")
        p, x = self.p, _reduce(self.coeffs, _require_modulus(modulus))
        if e == 0:
            return CycInt._of(p, _reduce((1,) + (0,) * (p - 2), modulus))
        acc = x
        for bit in bin(e)[3:]:
            acc = _mul_mod(acc, acc, p, modulus)
            if bit == "1":
                acc = _mul_mod(acc, x, p, modulus)
        return CycInt._of(p, acc)

    # -- Galois action ------------------------------------------------

    def conjugate(self, k: int) -> CycInt:
        """Apply the automorphism zeta -> zeta^k (k coprime to p)."""
        k %= self.p
        if k == 0:
            raise ValueError("automorphism index must be nonzero mod p")
        return CycInt._of(self.p, _conj(self.coeffs, k, self.p))

    # -- norm ----------------------------------------------------------

    def norm(self, modulus: int | None = None) -> int:
        """Absolute norm: the product of all p - 1 Galois conjugates.

        sigma^i maps zeta to zeta^(g^i) for a primitive root g mod p.  The
        partial products y_k = prod_{i<k} sigma^i(x) obey y_(a+b) = y_a *
        sigma^a(y_b); doubling (y_2k = y_k * sigma^k(y_k)) and stepping
        (y_(k+1) = y_k * sigma^k(x)) along the bits of p - 1 reach
        N(x) = y_(p-1) in O(log p) multiplies.  The product must reduce
        to a rational integer; anything else indicates an arithmetic bug.
        The tests check it against the independent resultant in
        tests/resultant_oracle.py.

        With a modulus m >= 1 the result is N(x) mod m, in [0, m), and the
        same chain runs in (Z/m)[zeta]: x and every product are reduced
        mod m.  That is exact, because reduction mod m is a ring map
        Z[zeta] -> (Z/m)[zeta] that commutes with every zeta -> zeta^k,
        so it carries the orbit product to N(x) mod m; the coefficients
        stay below m instead of growing to the size of the norm.
        """
        p, x = self.p, _reduce(self.coeffs, _require_modulus(modulus))
        g = _primitive_root(p)
        y, k = x, 1
        for bit in bin(p - 1)[3:]:
            y = _mul_mod(y, _conj(y, pow(g, k, p), p), p, modulus)
            k *= 2
            if bit == "1":
                y = _mul_mod(y, _conj(x, pow(g, k, p), p), p, modulus)
                k += 1
        if any(y[1:]):
            raise AssertionError(f"Galois orbit product is not rational: {CycInt(p, y)!r}")
        return y[0]

    # -- the prime above p ---------------------------------------------

    def divide_by_pi(self) -> CycInt | None:
        """Exact quotient by (1 - zeta), or None when not divisible.

        x is divisible exactly when its coordinate sum S (its image under
        zeta -> 1) is divisible by p; then with s = S / p the quotient has
        coordinates y_i = (x_0 + ... + x_i) - (i + 1) s.
        """
        s, r = divmod(sum(self.coeffs), self.p)
        if r:
            return None
        prefixes = accumulate(self.coeffs)
        return CycInt._of(self.p, tuple(x - i * s for i, x in enumerate(prefixes, 1)))

    def pi_valuation(self) -> int | float:
        """Exact (1 - zeta)-adic valuation; math.inf for zero."""
        if self.is_zero():
            return math.inf
        v = 0
        x = self
        while True:
            y = x.divide_by_pi()
            if y is None:
                return v
            v += 1
            x = y

    def congruent_mod_pi(self, other) -> bool:
        """True when self - other lies in the ideal (1 - zeta)."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("expected a ring element or int")
        return sum(a - b for a, b in zip(self.coeffs, other.coeffs)) % self.p == 0


def zeta(p: int, k: int = 1) -> CycInt:
    """The root of unity zeta_p^k as a ring element."""
    require_ring_prime(p)
    raw = [0] * p
    raw[k % p] = 1
    return CycInt(p, raw)


def one_minus_zeta(p: int) -> CycInt:
    """Generator of the unique prime ideal above p."""
    return CycInt(p, (1, -1))


# -- kernels on reduced coefficient tuples ----------------------------


def _fold(raw, p: int) -> tuple:
    """Reduce coefficients of zeta^0..zeta^(p-1) to the p-1 stored ones."""
    top = raw[p - 1]
    if top:
        return tuple(c - top for c in raw[: p - 1])
    return tuple(raw[: p - 1])


def _mul(a, b, p: int) -> tuple:
    """Product of two reduced coefficient tuples."""
    return _wrap(_convolve(a, b), p)


def _wrap(prod: list, p: int) -> tuple:
    """Reduce a product's coefficients of zeta^0..zeta^(2p-4), in place, to the stored p - 1."""
    # exponents >= p wrap around through zeta^p = 1
    for e in range(p, len(prod)):
        prod[e - p] += prod[e]
    return _fold(prod, p)


def _mul_mod(a, b, p: int, m: int | None) -> tuple:
    """Product of two coefficient tuples, reduced mod m into [0, m); exact when m is None.

    Each operand, reduced into [0, m), is packed into one int of
    _kronecker_layout's w-byte slots, one per coefficient, so the slots of
    the one big-integer product hold the product polynomial's coefficients.
    One mask and one shift wrap zeta^p = 1; the p slots are unpacked, the
    zeta^(p-1) slot is folded into the others, and each is reduced mod m.
    A modulus too wide for the slots reduces the exact product instead.
    The operands may have any sign and size.
    """
    if m is None:
        return _mul(a, b, p)
    layout = _kronecker_layout(p, m)
    if layout is None:
        return _reduce(_mul(_reduce(a, m), _reduce(b, m), p), m)
    w, slots, shift, mask = layout
    packed = _pack(a, m, slots)
    prod = packed * (packed if a is b else _pack(b, m, slots))
    prod = (prod & mask) + (prod >> shift)
    top = prod >> shift - 8 * w  # the zeta^(p-1) slot
    coeffs = slots.unpack_from(prod.to_bytes(w * p, "little"))
    return tuple([(c - top) % m for c in coeffs])


@lru_cache(maxsize=256)
def _kronecker_layout(p: int, m: int) -> tuple | None:
    """Slot width w in bytes for _mul_mod in (Z/m)[zeta_p], and what packs the slots.

    Once zeta^p = 1 has wrapped the product, the slot of zeta^k holds the sum
    of a_i b_j over i + j = k mod p with 0 <= i, j <= p - 2: at most p - 1
    products, each at most (m - 1)^2.  So w bytes with (p - 1)(m - 1)^2 <
    256^w never carry into the next slot, before the wrap or after it.  The
    smallest such w of 1, 2, 4 or 8 bytes (8 covers every m = p^2 with p <=
    MAX_RING_PRIME) is packed and unpacked by one struct call.  Returns (w,
    struct, shift, mask), where shift and mask cut the product at zeta^p, or
    None when 8 bytes are too narrow.  The cache is bounded, because
    verify's fingerprint moduli are random primes.
    """
    bits = ((p - 1) * (m - 1) ** 2).bit_length()
    for w, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
        if bits <= 8 * w:
            shift = 8 * w * p
            return w, Struct(f"<{p - 1}{code}"), shift, (1 << shift) - 1
    return None


def _pack(a, m: int, slots: Struct) -> int:
    """The coefficients of a, reduced into [0, m), as one int of the slots' width."""
    return int.from_bytes(slots.pack(*[c % m for c in a]), "little")


def _reduce(a, m: int | None) -> tuple:
    """Each coefficient mod m, in [0, m); a itself when m is None."""
    return a if m is None else tuple(c % m for c in a)


def _require_modulus(m: int | None) -> int | None:
    """Validate an optional modulus: None or an int m >= 1; return it."""
    if m is not None:
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"modulus must be an int, got {type(m).__name__}")
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
    return m


def _convolve(a, b) -> list:
    """Coefficients of the product of two polynomials given as coefficient sequences.

    The schoolbook loop, skipping the zero coefficients of either operand;
    the operands may differ in length.
    """
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return prod


def _conj(a, k: int, p: int) -> tuple:
    """Image of a reduced coefficient tuple under zeta -> zeta^k, k a unit mod p."""
    raw = [0] * p
    for i, c in enumerate(a):
        if c:
            raw[i * k % p] += c
    return _fold(raw, p)


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group (Z/pZ)^*."""
    n = p - 1
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    return next(g for g in range(2, p) if all(pow(g, n // d, p) != 1 for d in divisors))
