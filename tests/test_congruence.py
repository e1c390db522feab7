"""Norm congruences, Wieferich checks, p-th powers mod p^2."""

import random
from itertools import islice

import pytest

import resultant_oracle
import zeta3_oracle as oracle
from oracles import (
    divide_by_pi,
    is_pth_power_mod_p2,
    is_pth_power_mod_p2_bruteforce,
    phi_by_binomials,
    pth_power_residues_mod_p2,
)
from wreathcert import (
    CycInt,
    expected_residue,
    general_congruence_check,
    norm_congruence_check,
    one_minus_zeta,
    require_odd_prime,
    wieferich_check,
    wieferich_scan,
)
from wreathcert import cyclotomic
from wreathcert.congruence import MAX_LEVELS
from wreathcert.dynamics import orbit_points, phi_at
from wreathcert.factoring import MAX_SIEVE_LIMIT, primes_up_to


def test_expected_residues():
    assert expected_residue(3) == 7
    assert expected_residue(5) == 6
    assert expected_residue(7) == 29
    assert expected_residue(11) == 111
    assert expected_residue(13) == 79
    for p in (1093, 3511):
        assert expected_residue(p) == (2**p - 1) % p**2


def test_norm_congruence_p3():
    report = norm_congruence_check(3, 3)
    assert report.passed
    assert report.expected == 7
    assert [item.residue for item in report.items] == [7, 7, 7]
    # the underlying norms, via the independent p=3 oracle
    assert [oracle.norm(x) for x in oracle.orbit_of_one(3)] == [7, 43, 58201]
    assert 58201 % 9 == 7


def test_norm_congruence_passes_deep_orbits():
    # the exact orbit point of level 14 at p = 3 would pass 2^20 bits;
    # the walk in Z[zeta]/(p^2) has no such limit
    report = norm_congruence_check(3, 20)
    assert report.passed
    assert [item.residue for item in report.items] == [7] * 20
    assert norm_congruence_check(3, MAX_LEVELS).passed


def test_norm_congruence_validates():
    with pytest.raises(ValueError):
        norm_congruence_check(3, 0)
    with pytest.raises(ValueError):
        norm_congruence_check(3, MAX_LEVELS + 1)
    with pytest.raises(ValueError):
        norm_congruence_check(4, 2)


def test_general_congruence_passes():
    for p in (3, 5):
        report = general_congruence_check(p, 25, 100, seed=99)
        assert report.passed
        assert report.expected == expected_residue(p)
        assert len(report.items) == 25
        assert report.seed == 99


def test_general_congruence_deterministic():
    a = general_congruence_check(5, 10, 50, seed=1234)
    b = general_congruence_check(5, 10, 50, seed=1234)
    assert a == b


def test_general_congruence_hand_cases():
    # lifts x of 1 mod (1 - zeta) chosen by hand, p = 3
    f = phi_by_binomials(3)
    # r = 0: x = 1, the plain n = 1 case
    assert f(CycInt.one(3)).norm() % 9 == 7
    # r = 1: x = 2 - zeta, so phi(x) = phi^2(1) with norm 43
    x = CycInt.one(3) + one_minus_zeta(3)
    value = f(x)
    assert value == CycInt(3, (-1, -7))
    assert value.norm() == 43 and 43 % 9 == 7
    # r = -zeta: x = 1 - zeta + zeta^2 = -2 zeta
    x = CycInt.one(3) + one_minus_zeta(3) * CycInt(3, (0, -1))
    assert x == CycInt(3, (0, -2))
    assert f(x).norm() % 9 == 7


def test_general_congruence_residues_match_exact_norms():
    # the library reduces the norm mod p^2 as it goes; the test reduces the
    # full integer norm of the same points, regenerated from the same seed.
    # At m = p^2 the lift's ring packs 1-byte slots at p = 3, 2-byte at 5,
    # 4-byte at 11 and 31, and 8-byte at 101, where one exact norm of a
    # point with coordinates of r in [-1, 1] has 27072 bits and takes 2-3 s
    for p, trials, bound in ((3, 20, 10**6), (5, 20, 10**6), (11, 5, 10**6), (31, 2, 10**6), (101, 1, 1)):
        assert cyclotomic.ring(p, p * p).width == {3: 1, 5: 2, 11: 4, 31: 4, 101: 8}[p]
        report = general_congruence_check(p, trials, bound, seed=7)
        rng = random.Random(7)
        exact = []
        for _ in range(trials):
            r = CycInt(p, [rng.randint(-bound, bound) for _ in range(p - 1)])
            x = CycInt.one(p) + one_minus_zeta(p) * r
            exact.append(phi_at(x).norm() % p**2)
        assert [item.residue for item in report.items] == exact


def test_norm_congruence_residues_match_exact_norms():
    for p, n in ((3, 8), (5, 4), (7, 3), (11, 3), (13, 2), (61, 2)):
        report = norm_congruence_check(p, n)
        exact = [x.norm() % p**2 for x in orbit_points(p, CycInt.one(p), n)]
        assert [item.residue for item in report.items] == exact


LEMMA_PRIMES = [3, 5, 7, 11, 13, 31, 61, 101]


def _random_element(rng, p, bound=99):
    return CycInt(p, [rng.randint(-bound, bound) for _ in range(p - 1)])


@pytest.mark.parametrize("p", LEMMA_PRIMES)
def test_lemma_a_phi_is_two_minus_zeta_mod_p_pi(p):
    # x = 1 mod pi gives (x - 1)^p in pi^p Z[zeta] = p pi Z[zeta]
    rng = random.Random(1000 + p)
    pi = one_minus_zeta(p)
    for _ in range(20):
        x = CycInt.one(p) + pi * _random_element(rng, p)
        quotient = divide_by_pi(phi_at(x) - CycInt(p, (2, -1)))
        assert quotient is not None, (p, x)
        assert all(c % p == 0 for c in quotient.coeffs), (p, x)


@pytest.mark.parametrize("p", LEMMA_PRIMES)
def test_lemma_b_norm_is_constant_mod_p2_on_cosets_of_p_pi(p):
    # N(a + p pi t) = N(a) mod p^2, by the library's norm mod p^2 and, at
    # small p, by the exact resultant norm
    rng = random.Random(2000 + p)
    p2, p_pi = p * p, one_minus_zeta(p) * p
    for _ in range(20):
        a = _random_element(rng, p)
        b = a + p_pi * _random_element(rng, p)
        assert b.norm(p2) == a.norm(p2), (p, a, b)
        if p <= 13:
            assert resultant_oracle.norm(b.coeffs, p) % p2 == resultant_oracle.norm(a.coeffs, p) % p2 == a.norm(p2)


def test_general_congruence_rejects_irrational_product(monkeypatch):
    # the lift takes each norm through the ring's conjugation; one that
    # returns its input makes the orbit product irrational, which must
    # raise rather than give a residue
    monkeypatch.setattr(cyclotomic, "_conj", lambda a, gather, top, m: a)
    with pytest.raises(AssertionError, match="not rational"):
        general_congruence_check(3, 5, 100, seed=1)


def test_general_congruence_validates():
    with pytest.raises(ValueError):
        general_congruence_check(3, 0, 10, seed=1)
    with pytest.raises(ValueError):
        general_congruence_check(3, 10, 0, seed=1)


# -- Wieferich ------------------------------------------------------------


def test_wieferich_known_values():
    assert wieferich_check(1093)
    assert wieferich_check(3511)
    assert not wieferich_check(3)  # 2^2 mod 9 = 4
    assert not wieferich_check(7)  # 2^6 mod 49 = 15
    assert pow(2, 6, 49) == 15


def test_wieferich_rejects_non_primes():
    with pytest.raises(ValueError):
        wieferich_check(4)
    with pytest.raises(ValueError):
        wieferich_check(2)


def test_wieferich_check_keeps_a_bounded_prime_cache():
    # a library loop over many p must not grow require_odd_prime's cache
    # with every one of them
    primes = list(islice((q for q in primes_up_to(10**4) if q > 2), 1000))
    assert len(primes) == 1000
    for q in primes:
        wieferich_check(q)
    info = require_odd_prime.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("limit", [3, 5, 1093, 1094, 3511, 10**5])
def test_wieferich_scan_matches_one_pow_per_prime(limit):
    # 3 and 5 fill one short block, the first a block of a single prime;
    # 1093 and 3511 end a scan on a Wieferich prime
    want = [q for q in primes_up_to(limit) if q > 2 and pow(2, q - 1, q * q) == 1]
    assert wieferich_scan(limit) == want


def test_wieferich_scan_small():
    assert wieferich_scan(1000) == []
    assert wieferich_scan(1093) == [1093]
    assert wieferich_scan(4000) == [1093, 3511]
    with pytest.raises(ValueError):
        wieferich_scan(2)
    with pytest.raises(ValueError):
        wieferich_scan(MAX_SIEVE_LIMIT + 1)


# -- p-th powers mod p^2 ---------------------------------------------------


def test_pth_power_examples():
    assert not is_pth_power_mod_p2(7, 3)  # cubes mod 9 are {0, 1, 8}
    assert pth_power_residues_mod_p2(3) == frozenset({0, 1, 8})
    assert pth_power_residues_mod_p2(5) == frozenset({0, 1, 7, 18, 24})
    for p in (3, 5, 11, 1093):
        assert is_pth_power_mod_p2(1, p)
    assert is_pth_power_mod_p2(2**1093 - 1, 1093)  # the Wieferich case


def test_pth_power_multiples_of_p():
    for p in (3, 5, 7):
        assert not is_pth_power_mod_p2(p, p)
        assert is_pth_power_mod_p2(p * p, p)
        assert is_pth_power_mod_p2(0, p)


def test_pth_power_fast_equals_bruteforce():
    for p in (3, 5, 7):
        for a in range(p * p):
            assert is_pth_power_mod_p2(a, p) == is_pth_power_mod_p2_bruteforce(a, p)


def test_pth_power_accepts_huge_inputs():
    assert is_pth_power_mod_p2(31**5 + 25 * 31, 5) == is_pth_power_mod_p2((31**5 + 25 * 31) % 25, 5)


def test_wief_equivalence_small():
    for p in (3, 5):
        assert not wieferich_check(p)
        assert not is_pth_power_mod_p2(expected_residue(p), p)
    assert 7 not in pth_power_residues_mod_p2(3)  # 2^3 - 1 mod 9
    assert 6 not in pth_power_residues_mod_p2(5)  # 31 mod 25 is not a fifth power


def test_wief_equivalence_wieferich_case():
    for p in (1093, 3511):
        assert wieferich_check(p)
        assert is_pth_power_mod_p2(expected_residue(p), p)
