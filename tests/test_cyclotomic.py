"""Ring arithmetic in Z[zeta_p]: construction, operations, norms, valuations."""

import math
import random

import pytest

import oracles
import resultant_oracle
import zeta3_oracle as oracle
from wreathcert import cyclotomic
from wreathcert import (
    MAX_RING_PRIME,
    CycInt,
    RingMismatchError,
    one_minus_zeta,
    require_odd_prime,
    require_ring_prime,
    zeta,
)

SUPPORTED_PRIMES = [p for p in range(3, MAX_RING_PRIME + 1) if all(p % q for q in range(2, p))]


def rand_elem(rng, p, bound=10**6):
    return CycInt(p, [rng.randint(-bound, bound) for _ in range(p - 1)])


def conj_coeffs(a, k, p, m=None):
    """Coefficients a under zeta -> zeta^k, by the kernel the norm runs, mod m unless m is None."""
    return tuple(cyclotomic._conj(a, *cyclotomic._conj_table(p, k), m))


def conj(a, k):
    """a under zeta -> zeta^k, by the kernel the norm runs."""
    return CycInt(a.p, conj_coeffs(a.coeffs, k, a.p))


# -- construction -------------------------------------------------------


def test_top_term_reduction():
    assert CycInt(3, (0, 0, 1)).coeffs == (-1, -1)  # zeta^2 = -1 - zeta
    assert CycInt(3, (2, -1)).coeffs == (2, -1)
    assert CycInt(5, (0, 0, 0, 0, 1)).coeffs == (-1, -1, -1, -1)


def test_short_input_padded():
    assert CycInt(5, (7,)).coeffs == (7, 0, 0, 0)
    assert CycInt(5).coeffs == (0, 0, 0, 0)


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        CycInt(3, (1, 2, 3, 4))


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        CycInt(3, (1.5, 0))
    with pytest.raises(TypeError):
        CycInt(3, (True, 0))


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, -3, 0])
def test_bad_primes_rejected(bad):
    with pytest.raises(ValueError):
        CycInt(bad, (1,))


def test_ring_bound_enforced():
    with pytest.raises(ValueError):
        CycInt(103, (1,))  # odd prime, but past the ring degree bound
    require_odd_prime(103)  # still a perfectly good odd prime
    with pytest.raises(ValueError):
        require_ring_prime(103)


def test_prime_type_checked():
    with pytest.raises(TypeError):
        require_odd_prime(3.0)


def test_uncertain_primes_rejected_by_size():
    # 2^89 - 1 is prime, but only probabilistically testable here
    with pytest.raises(ValueError, match="a 89-bit integer is past the deterministic primality range"):
        require_odd_prime(2**89 - 1)


def test_roundtrip_is_identity():
    rng = random.Random(101)
    for p in (3, 5, 11):
        for _ in range(50):
            x = rand_elem(rng, p)
            assert CycInt(p, x.coeffs) == x


# -- ring operations ----------------------------------------------------


def test_add_examples():
    assert CycInt(3, (2, -1)) + CycInt(3, (-1, 1)) == CycInt.one(3)
    a = CycInt(3, (4, -9))
    assert a + (-a) == CycInt.zero(3)
    assert (CycInt(3, (1, 2)) + CycInt(3, (3, 4))).coeffs == (4, 6)


def test_sub_neg():
    a, b = CycInt(5, (1, 2, 3, 4)), CycInt(5, (4, 3, 2, 1))
    assert a - b == CycInt(5, (-3, -1, 1, 3))
    assert -(a - b) == b - a


def test_mul_examples():
    pi = one_minus_zeta(3)
    assert pi * pi == CycInt(3, (0, -3))  # -3 zeta
    assert pi * CycInt(3, (2, 1)) == CycInt.from_int(3, 3)
    rng = random.Random(5)
    for p in (3, 7):
        a = rand_elem(rng, p)
        assert a * CycInt.one(p) == a
        assert a * CycInt.zero(p) == CycInt.zero(p)


def test_pow_matches_repeated_multiply():
    rng = random.Random(23)
    for p, top in ((3, 9), (5, 7), (11, 13), (61, 4), (101, 5)):
        a = rand_elem(rng, p)
        want = CycInt.one(p)
        for e in range(top):
            assert a**e == want
            want = want * a
    with pytest.raises(ValueError):
        CycInt.one(3) ** -1


def mul_inputs(rng, p):
    """Pairs of coefficient tuples of every shape the multiply must survive."""
    n = p - 1
    zero, one = (0,) * n, (1,) + (0,) * (n - 1)

    def dense(bits):
        return tuple(rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n))

    def sparse(bits):
        return tuple(rng.getrandbits(bits) if rng.random() < 0.15 else 0 for _ in range(n))

    def negative(bits):
        return tuple(-rng.getrandbits(bits) - 1 for _ in range(n))

    yield dense(20), dense(20)
    yield sparse(30), dense(30)
    yield sparse(30), sparse(30)
    yield zero, dense(30)
    yield dense(30), zero
    yield one, dense(30)
    yield dense(30), one
    yield negative(40), negative(40)
    yield negative(40), dense(40)
    yield dense(3000), dense(3000)
    yield negative(3000), sparse(3000)
    yield dense(3000), dense(2)
    yield (1,) * n, dense(3000)
    a = dense(64)
    yield a, a


@pytest.mark.parametrize("p", [13, 17, 19, 31, 61, 101])
def test_mul_matches_schoolbook_across_the_cutoff(p):
    # vectors of 12 coefficients, the longest any p <= 13 makes, up to the
    # 100 of the largest ring prime, with coefficients of up to 3000 bits.
    # The name, from a Karatsuba cutoff since removed, is kept so the test
    # ids stay; oracles.mul_schoolbook is now the same loop as _mul, so the
    # independent check of _mul is test_mul_mod_matches_reduced_exact_product
    rng = random.Random(p)
    for a, b in mul_inputs(rng, p):
        want = oracles.mul_schoolbook(a, b, p)
        assert cyclotomic._mul(a, b, p) == want
        assert CycInt(p, a) * CycInt(p, b) == CycInt(p, want)
    # operands of unequal length, as CycPoly's slotted vectors are, against
    # each product coefficient summed on its own
    a = [rng.randint(-(2**64), 2**64) for _ in range(p - 1)]
    b = [rng.randint(-(2**64), 2**64) if rng.random() < 0.5 else 0 for _ in range(7)]
    for x, y in ((a, b), (b, a)):
        want = [sum(x[i] * y[k - i] for i in range(len(x)) if 0 <= k - i < len(y)) for k in range(len(x) + len(y) - 1)]
        assert cyclotomic._convolve(x, y) == want


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_mul_mod_matches_reduced_exact_product(p):
    # the multiply of the ring for (p, m) against the exact product reduced
    # afterwards: all-(m - 1) operands fill a slot to its bound
    # (p - 1)(m - 1)^2, and a conjugate of a reduced tuple has negative
    # entries, so reduce meets those before pack.  Each slot width w of 1,
    # 2, 4 and 8 bytes is met at the largest m with that bound below 256^w
    # and at the next m up, which needs the next width; 2^61 - 1 and a
    # modulus that puts the bound just past 2^72 fit no 8-byte slot, so
    # they reduce the exact product.
    def width(m):
        return cyclotomic.ring(p, m).width

    moduli = [1, p * p, 2**61 - 1, math.isqrt(2**72 // (p - 1)) + 2]
    assert width(moduli[2]) is None and width(moduli[3]) is None
    for w, wider in ((1, 2), (2, 4), (4, 8), (8, None)):
        top = math.isqrt((256**w - 1) // (p - 1)) + 1
        assert width(top) == w and width(top + 1) == wider
        moduli += [top, top + 1]
    rng = random.Random(p)
    for m in moduli:
        ring = cyclotomic.ring(p, m)
        reduced = tuple(rng.randrange(m) for _ in range(p - 1))
        cases = [
            ((m - 1,) * (p - 1), (m - 1,) * (p - 1)),
            (reduced, conj_coeffs(reduced, 2, p)),
            (tuple(rng.randint(-(m**2), m**2) for _ in range(p - 1)), reduced),
        ]
        for a, b in cases:
            for x, y in ((a, b), (a, a), (b, b)):
                want = [c % m for c in cyclotomic._mul(x, y, p)]
                assert ring.mul(ring.pack(ring.reduce(x)), ring.pack(ring.reduce(y))) == want


def _power(x, e):
    """x^e by square-and-multiply on exact ring elements."""
    acc = CycInt.one(x.p)
    for bit in bin(e)[2:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * x
    return acc


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_packed_pow_and_norm_match_reduced_exact_results(p):
    # pow and norm of the ring for (p, m), with the operand packed once and
    # each product re-packed, against exact powers reduced afterwards and
    # the resultant norm: N(x^e) = N(x)^e.  p^2 takes the packed multiply,
    # 2^40 3^5 7 and 2^61 - 1 the reduced exact product, and 1 a width of
    # one byte whose every coefficient is 0.
    rng = random.Random(300 + p)
    x = rand_elem(rng, p, 5)
    norm = resultant_oracle.norm(x.coeffs, p)
    powers = {e: _power(x, e) for e in (0, 1, 2, p, 2 * p + 1)}
    for m in (1, p * p, 2**40 * 3**5 * 7, 2**61 - 1):
        ring = cyclotomic.ring(p, m)
        assert (ring.width is not None) == (m in (1, p * p))
        for e, exact in powers.items():
            got = pow(x, e, m)
            assert got == CycInt(p, [c % m for c in exact.coeffs]), (m, e)
            assert tuple(ring.pow(ring.reduce(x.coeffs), e)) == got.coeffs
            assert got.norm(m) == pow(norm, e, m), (m, e)


def test_int_operands():
    a = CycInt(3, (2, -1))
    assert a - 1 == CycInt(3, (1, -1))
    assert 1 + a == CycInt(3, (3, -1))
    assert 2 * a == CycInt(3, (4, -2))
    assert a == 2 - zeta(3)
    assert a and not a - a
    # an int is the only operand besides a ring element; a str or float is none
    for op in (lambda: a + 1.5, lambda: a - "a", lambda: "a" - a, lambda: a * 1.5, lambda: a**1.5):
        with pytest.raises(TypeError):
            op()
    assert a != "a" and not a == 1.5


def test_mismatched_rings_rejected():
    a, b = CycInt.one(3), CycInt.one(5)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(RingMismatchError):
        a.congruent_mod_pi(b)


def test_mul_matches_oracle_p3():
    rng = random.Random(17)
    for _ in range(200):
        xa, xb = rng.randint(-999, 999), rng.randint(-999, 999)
        ya, yb = rng.randint(-999, 999), rng.randint(-999, 999)
        got = CycInt(3, (xa, xb)) * CycInt(3, (ya, yb))
        assert got.coeffs == oracle.mul((xa, xb), (ya, yb))


def test_immutability():
    a = CycInt.one(3)
    with pytest.raises(AttributeError):
        a.coeffs = (9, 9)
    # so it hashes by value
    assert hash(a) == hash(CycInt(3, (1,)))
    assert {a, CycInt.from_int(3, 1), CycInt.one(5)} == {a, CycInt.one(5)}


# -- Galois action ------------------------------------------------------


def test_conjugate_examples():
    assert conj(one_minus_zeta(3), 2) == CycInt(3, (2, 1))  # 1 - zeta^2
    assert conj(zeta(5), 2) == zeta(5, 2)
    a = CycInt(7, (1, 2, 3, 4, 5, 6))
    assert conj(a, 1) == a


def test_conjugate_composes():
    rng = random.Random(23)
    for p in (3, 5, 11):
        a = rand_elem(rng, p, 50)
        for k in range(1, p):
            for k2 in range(1, p):
                assert conj(conj(a, k), k2) == conj(a, k * k2 % p)


def test_conjugate_matches_oracle_p3():
    rng = random.Random(29)
    for _ in range(100):
        x = (rng.randint(-999, 999), rng.randint(-999, 999))
        assert conj_coeffs(x, 2, 3) == oracle.conj(x)


# -- norms ---------------------------------------------------------------


def test_norm_examples():
    assert CycInt(3, (2, -1)).norm() == 7  # Phi_3(2) = 2^3 - 1
    assert one_minus_zeta(5).norm() == 5
    assert CycInt(3, (-1, -7)).norm() == 43
    assert CycInt.zero(7).norm() == 0
    assert CycInt.one(7).norm() == 1
    assert CycInt.from_int(5, -2).norm() == 16  # (-2)^(p-1)


def test_norm_matches_p3_formula():
    rng = random.Random(31)
    for _ in range(300):
        x = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert CycInt(3, x).norm() == oracle.norm(x)


def test_norm_cross_algorithms():
    # p - 1 = 2, 4, 6, 10, 12, 30, 60, 100: every bit pattern the orbit chain walks
    rng = random.Random(37)
    for p, cases in ((3, 100), (5, 100), (7, 100), (11, 100), (13, 50), (31, 10), (61, 4), (101, 2)):
        for _ in range(cases):
            a = rand_elem(rng, p)
            assert a.norm() == resultant_oracle.norm(a.coeffs, p)


def test_norm_deep_orbit_point_p3():
    x = oracle.orbit_of_one(8)[-1]  # phi^8(1), about 1900 bits per coefficient
    n = CycInt(3, x).norm()
    assert n == oracle.norm(x) == resultant_oracle.norm(x, 3)


def test_norm_mod_matches_norm():
    # p^2, a composite, the 61-bit Mersenne prime 2^61 - 1, and 1
    rng = random.Random(53)
    for p, cases in ((3, 40), (5, 40), (7, 20), (11, 20), (13, 10), (31, 4), (61, 2), (101, 1)):
        for _ in range(cases):
            x = rand_elem(rng, p)
            exact = x.norm()
            for m in (p * p, 2**40 * 3**5 * 7, 2**61 - 1, 1):
                assert x.norm(m) == exact % m


def test_norm_rejects_irrational_product(monkeypatch):
    # with a conjugation that returns its input, the orbit product is
    # x^(p-1) = -3 zeta
    monkeypatch.setattr(cyclotomic, "_conj", lambda a, gather, top, m: a)
    with pytest.raises(AssertionError, match="not rational"):
        one_minus_zeta(3).norm()
    # reduced mod 9 it is 6 zeta, still not rational
    with pytest.raises(AssertionError, match="not rational"):
        one_minus_zeta(3).norm(9)


@pytest.mark.parametrize("bad", [0, -9, True, 9.0, "9"])
def test_norm_modulus_rejects_bad_values(bad):
    # with the rings of 1 and 9 cached, True and 9.0 must not reach them
    assert one_minus_zeta(5).norm(1) == 0 and one_minus_zeta(5).norm(9) == 5
    with pytest.raises((ValueError, TypeError)):
        one_minus_zeta(5).norm(bad)
    with pytest.raises((ValueError, TypeError)):
        pow(one_minus_zeta(5), 2, bad)


def test_norm_multiplicative():
    rng = random.Random(41)
    for p in (3, 5, 7, 11):
        for _ in range(100):
            a, b = rand_elem(rng, p), rand_elem(rng, p)
            assert (a * b).norm() == a.norm() * b.norm()


def test_norm_invariant_under_conjugation():
    rng = random.Random(43)
    for p in (3, 5, 11):
        a = rand_elem(rng, p)
        n = a.norm()
        for k in range(1, p):
            assert conj(a, k).norm() == n


def test_norm_of_huge_coefficients():
    # a 2000-bit norm against the closed p = 3 formula
    rng = random.Random(47)
    a = CycInt(3, (rng.randint(-(10**300), 10**300), rng.randint(-(10**300), 10**300)))
    assert a.norm() == oracle.norm(a.coeffs)


# -- the prime above p ----------------------------------------------------


def test_pi_valuation_examples():
    assert oracles.pi_valuation(one_minus_zeta(5)) == 1
    assert oracles.pi_valuation(CycInt.from_int(3, 3)) == 2  # totally ramified: v(p) = p - 1
    assert oracles.pi_valuation(CycInt(3, (2, -1))) == 0
    assert oracles.pi_valuation(CycInt.zero(3)) == math.inf


def test_divide_by_pi_examples():
    for divide in (oracles.divide_by_pi, oracles.divide_by_pi_complement):
        q = divide(CycInt.from_int(3, 3))
        assert q == CycInt(3, (2, 1))
        assert q.norm() == 3
        assert divide(CycInt(3, (2, -1))) is None
        assert divide(one_minus_zeta(3)) == CycInt.one(3)


def test_divide_by_pi_inverts_multiplication():
    # the O(p) prefix-sum division, and at p <= 13 the division through the
    # complement product as a cross-check, on exact and inexact quotients
    rng = random.Random(53)
    for p in (3, 5, 7, 11, 13, 101):
        pi = one_minus_zeta(p)
        for _ in range(50):
            a = rand_elem(rng, p, 1000)
            assert oracles.divide_by_pi(pi * a) == a
            if p <= 13:
                for x in (a, pi * a, CycInt.from_int(p, p) * a):
                    assert oracles.divide_by_pi(x) == oracles.divide_by_pi_complement(x)


def test_valuation_additivity():
    rng = random.Random(59)
    for p in (3, 5, 7):
        pi = one_minus_zeta(p)
        for _ in range(60):
            a, b = rand_elem(rng, p, 1000), rand_elem(rng, p, 1000)
            if a.is_zero() or b.is_zero():
                continue
            for _ in range(rng.randint(0, 2)):
                a = a * pi
            assert oracles.pi_valuation(a * b) == oracles.pi_valuation(a) + oracles.pi_valuation(b)


def test_valuation_iff_norm_divisible():
    rng = random.Random(61)
    for p in (3, 5, 11):
        for _ in range(100):
            a = rand_elem(rng, p, 100)
            if a.is_zero():
                continue
            assert (oracles.pi_valuation(a) >= 1) == (a.norm() % p == 0)


def test_ramification_every_supported_p():
    for p in SUPPORTED_PRIMES:
        assert one_minus_zeta(p).norm() == p
        assert oracles.pi_valuation(CycInt.from_int(p, p)) == p - 1


def test_congruent_mod_pi():
    assert CycInt(3, (2, -1)).congruent_mod_pi(CycInt.one(3))
    assert not CycInt.one(3).congruent_mod_pi(CycInt.zero(3))
    assert zeta(5).congruent_mod_pi(CycInt.one(5))
    a = CycInt(7, (4, 1, 0, -2, 5, 3))
    assert a.congruent_mod_pi(a)
    assert a.congruent_mod_pi(4) and not a.congruent_mod_pi(5)  # 4 + 1 - 2 + 5 + 3 = 11 = 4 mod 7
    with pytest.raises(TypeError):
        a.congruent_mod_pi("a")
