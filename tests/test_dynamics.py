"""The map phi, point orbits, structural checks, and the expanded iterate of the oracles."""

import math
import random
from types import SimpleNamespace

import pytest

import oracles
import zeta3_oracle as oracle
from oracles import CycPoly, iterate_poly
from wreathcert import (
    CycInt,
    RingMismatchError,
    SizeLimitError,
    dynamics,
    eisenstein_check,
    fixed_point_check,
    iterate_point,
    one_minus_zeta,
    orbit_congruence_check,
    orbit_points,
    phi_at,
    zeta,
)


def test_phi_p3_coefficients():
    f = iterate_poly(3, 1)
    # z^3 - 3 z^2 + 3 z + (1 - zeta)
    assert f.degree == 3
    assert f.coeffs[0] == one_minus_zeta(3)
    assert f.coeffs[1] == 3
    assert f.coeffs[2] == -3
    assert f.coeffs[3] == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_phi_shape(p):
    f = iterate_poly(p, 1)
    assert f.degree == p
    assert f.coeffs[-1] == 1
    assert f.coeffs[0] == one_minus_zeta(p)
    assert f.coeffs[p - 1] == -p  # binomial(p, p-1) * (-1)


def test_eval_examples():
    f = iterate_poly(3, 1)
    assert f(CycInt.one(3)) == CycInt(3, (2, -1))
    assert f(CycInt.zero(3)) == one_minus_zeta(3)
    empty = CycPoly(3, ())
    assert empty(CycInt(3, (5, 7))) == CycInt.zero(3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 61, 101])
def test_phi_at_matches_horner(p):
    f = oracles.phi_by_binomials(p)
    rng = random.Random(p)
    points = [CycInt(p, [rng.randint(-99, 99) for _ in range(p - 1)]) for _ in range(2)]
    points += list(orbit_points(p, CycInt.one(p), 3 if p < 10 else 2 if p < 30 else 1))
    for x in points:
        assert phi_at(x) == f(x)


def test_modular_phi_at_and_pow_match_exact_reduced():
    rng = random.Random(71)
    for p in (3, 5, 7, 13, 31):
        for _ in range(5):
            x = CycInt(p, [rng.randint(-(10**6), 10**6) for _ in range(p - 1)])
            for m in (p * p, 2**61 - 1, 1):
                assert phi_at(x, m) == CycInt(p, [c % m for c in phi_at(x).coeffs])
                for e in (0, 1, 2, p, 2 * p + 1):
                    assert pow(x, e, m) == CycInt(p, [c % m for c in (x**e).coeffs])


def test_eval_ring_mismatch():
    with pytest.raises(RingMismatchError):
        iterate_poly(3, 1)(CycInt.one(5))


def test_iterate_point_examples():
    one = CycInt.one(3)
    assert iterate_point(3, 1, one) == CycInt(3, (2, -1))
    assert iterate_point(3, 2, one) == CycInt(3, (-1, -7))
    assert iterate_point(3, 3, one) == CycInt(3, (-55, 209))
    assert iterate_point(3, 4, one) == CycInt(3, (16292123, 9304679))


def test_iterate_point_matches_oracle():
    got = list(orbit_points(3, CycInt.one(3), 6))
    want = oracle.orbit_of_one(6)
    assert [x.coeffs for x in got] == want


def test_iterate_point_validates():
    # the point and the expanded iterate both need n >= 1
    with pytest.raises(ValueError):
        iterate_point(3, 0, CycInt.one(3))
    with pytest.raises(ValueError):
        iterate_poly(3, 0)
    with pytest.raises(RingMismatchError):
        iterate_point(3, 1, CycInt.one(5))


def test_orbit_points_validates_before_iterating():
    with pytest.raises(ValueError):
        orbit_points(3, CycInt.one(3), 0)
    with pytest.raises(RingMismatchError):
        orbit_points(3, CycInt.one(5), 1)
    with pytest.raises(ValueError):
        orbit_points(4, CycInt.one(3), 1)


def test_semigroup_law():
    rng = random.Random(67)
    for p in (3, 5):
        for _ in range(10):
            x = CycInt(p, [rng.randint(-3, 3) for _ in range(p - 1)])
            for m in (1, 2):
                for n in (1, 2):
                    whole = iterate_point(p, m + n, x)
                    parts = iterate_point(p, n, iterate_point(p, m, x))
                    assert whole == parts


def test_size_cap_point_iteration(monkeypatch):
    with pytest.raises(SizeLimitError):
        iterate_point(3, 30, CycInt.one(3))
    monkeypatch.setattr("wreathcert.dynamics.MAX_COEFF_BITS", 16)
    with pytest.raises(SizeLimitError):
        iterate_point(3, 3, CycInt.one(3))


def test_iterate_poly_shape():
    for p in (3, 5, 7, 11, 13, 31, 61, 101):
        assert iterate_poly(p, 1) == oracles.phi_by_binomials(p)
    g = iterate_poly(3, 2)
    assert g.degree == 9
    assert g.coeffs[-1] == 1
    assert g.coeffs[0] == one_minus_zeta(3)
    assert iterate_poly(5, 2).degree == 25


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 2)])
def test_iterate_poly_matches_point_iteration(p, n):
    g = iterate_poly(p, n)
    assert g(CycInt.one(p)) == iterate_point(p, n, CycInt.one(p))
    rng = random.Random(71)
    for _ in range(5):
        x = CycInt(p, [rng.randint(-2, 2) for _ in range(p - 1)])
        assert g(x) == iterate_point(p, n, x)


def test_iterate_poly_constant_term_exact():
    for p, n in [(3, 4), (5, 2), (7, 2)]:
        assert iterate_poly(p, n).coeffs[0] == one_minus_zeta(p)


def test_poly_arithmetic_basics():
    p = 5
    f = iterate_poly(p, 1)
    g = f * f
    assert g.degree == 2 * p
    assert g.coeffs[0] == one_minus_zeta(p) * one_minus_zeta(p)


@pytest.mark.parametrize(
    "op",
    [
        lambda f: f + f,
        lambda f: f - f,
        lambda f: -f,
        lambda f: f * 3,
        lambda f: 3 * f,
        lambda f: f * zeta(3),
    ],
    ids=["add", "sub", "neg", "mul_int", "rmul_int", "mul_cycint"],
)
def test_poly_has_no_ring_arithmetic_beyond_multiply(op):
    with pytest.raises(TypeError):
        op(iterate_poly(3, 1))


@pytest.mark.parametrize("p", [3, 13, 17])
def test_poly_mul_matches_schoolbook(p):
    rng = random.Random(p)

    def poly(length, bits):
        return CycPoly(p, [CycInt(p, [rng.randint(-(2**bits), 2**bits) for _ in range(p - 1)]) for _ in range(length)])

    for la, lb, bits in ((1, 1, 8), (1, 7, 8), (4, 9, 60), (9, 4, 3), (6, 6, 200)):
        f, g = poly(la, bits), poly(lb, bits)
        assert f * g == oracles.poly_mul_schoolbook(f, g), (la, lb, bits)
        assert f.degree + g.degree == (f * g).degree
    f = poly(3, 8)
    assert f * CycPoly(p, ()) == CycPoly(p, ()) == CycPoly(p, ()) * f
    three = CycPoly(p, (CycInt.from_int(p, 3),))
    assert f * three == three * f == oracles.poly_mul_schoolbook(f, three)


def test_poly_mixed_rings_rejected():
    with pytest.raises(RingMismatchError):
        iterate_poly(3, 1) * iterate_poly(5, 1)
    with pytest.raises(RingMismatchError):
        CycPoly(3, (CycInt.one(5),))


# -- structural fact checks ----------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_eisenstein_small(p, n):
    report = eisenstein_check(p)
    assert report.passed
    assert report.status == "PASS"
    assert report.failures == ()
    assert oracles.expanded_eisenstein_failures(p, n) == []


def test_fixed_point_small():
    for p in (3, 7):
        report = fixed_point_check(p)
        assert report.passed, report.failures


def test_orbit_congruence_small():
    for p in (3, 5):
        report = orbit_congruence_check(p)
        assert report.passed, report.failures


ORACLE_OF = {
    eisenstein_check: oracles.expanded_eisenstein_failures,
    fixed_point_check: oracles.walked_fixed_point_failures,
    orbit_congruence_check: oracles.walked_orbit_congruence_failures,
}
STRUCTURE_ORACLE_POINTS = [(3, n) for n in range(1, 7)] + [(5, n) for n in range(1, 4)] + [(7, 1), (7, 2)]


@pytest.mark.parametrize("p,n", STRUCTURE_ORACLE_POINTS)
def test_structure_checks_match_oracles(p, n):
    # the expanded iterate and the orbit walks settle level n directly;
    # the checks settle every level at once from phi
    for check, oracle_failures in ORACLE_OF.items():
        assert check(p).passed == (oracle_failures(p, n) == [])


def test_structure_checks_validate():
    for check in ORACLE_OF:
        for p in (1, 9, 103):
            with pytest.raises(ValueError):
                check(p)


def broken_map(monkeypatch, p, index, delta):
    """Patch dynamics so that phi's coefficient of z^index is off by delta.

    Index 0 shifts the constant of phi_at; a middle index shifts C(p, index)
    in the binomials eisenstein_check reads.  Returns the broken phi_at and
    comb, so a test can show the mutant breaks the fact it claims to.
    """
    bad_phi_at, bad_comb = phi_at, math.comb
    if index == 0:

        def bad_phi_at(x, modulus=None):
            return phi_at(x, modulus) + delta

        monkeypatch.setattr(dynamics, "phi_at", bad_phi_at)
    else:

        def bad_comb(n, k):
            return math.comb(n, k) + (delta if (n, k) == (p, index) else 0)

        monkeypatch.setattr(dynamics, "math", SimpleNamespace(comb=bad_comb))
    return bad_phi_at, bad_comb


# (index, delta): z^1 no longer divisible by p; phi(0) = 2 - zeta, which
# also moves 1 - zeta off itself and makes phi(1) = 2 mod (1 - zeta)
BROKEN_PHI = [
    (1, 1, eisenstein_check, "coefficient of z^1 is not divisible by 5"),
    (0, 1, eisenstein_check, "phi(0) differs from 1 - zeta"),
    (0, 1, fixed_point_check, "phi(0) differs from 1 - zeta"),
    (0, 1, fixed_point_check, "1 - zeta is not a fixed point of phi"),
    (0, 1, orbit_congruence_check, "phi(1) is not congruent to 1 mod (1 - zeta)"),
]


@pytest.mark.parametrize("index,delta,check,message", BROKEN_PHI)
def test_structure_checks_refute_broken_phi(monkeypatch, index, delta, check, message):
    p = 5
    bad_phi_at, bad_comb = broken_map(monkeypatch, p, index, delta)
    report = check(p)
    assert report.status == "REFUTED" and not report.passed
    assert message in report.failures
    # the mutant itself breaks the fact the message names
    target = one_minus_zeta(p)
    broken = {
        "coefficient of z^1 is not divisible by 5": bad_comb(p, 1) % p != 0,
        "phi(0) differs from 1 - zeta": bad_phi_at(CycInt.zero(p)) != target,
        "1 - zeta is not a fixed point of phi": bad_phi_at(target) != target,
        "phi(1) is not congruent to 1 mod (1 - zeta)": not bad_phi_at(CycInt.one(p)).congruent_mod_pi(1),
    }
    assert broken[message]


def test_orbit_congruence_norm_equivalent():
    # p never divides norm(phi^t(1)); same fact at the rational level
    for p in (3, 5):
        x = CycInt.one(p)
        for _ in range(3):
            x = phi_at(x)
            assert x.norm() % p != 0
