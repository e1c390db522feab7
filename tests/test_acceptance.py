"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every expected value is either asserted exactly (zero tolerance) or
recomputed first by an independent oracle.  Each criterion prints one
PASS line on success; run with `pytest tests/test_acceptance.py -v -s`
to see them.
"""

import random
import time

import resultant_oracle
import zeta3_oracle as oracle
from oracles import is_pth_power_mod_p2, phi_by_binomials, pi_valuation, pth_power_residues_mod_p2
from wreathcert import (
    MAXIMAL,
    CycInt,
    build_certificate,
    certificate_problems,
    eisenstein_check,
    expected_residue,
    fixed_point_check,
    general_congruence_check,
    is_prime,
    iterate_point,
    norm_congruence_check,
    one_minus_zeta,
    orbit_congruence_check,
    wieferich_check,
    wieferich_scan,
)

NORM_GRID = [(3, 8), (5, 4), (7, 3), (11, 2), (13, 2)]


def _report(number, name, started, detail=""):
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_norm_congruence_grid():
    started = time.time()
    for p, n_max in NORM_GRID:
        want = (2**p - 1) % p**2
        x = CycInt.one(p)
        f = phi_by_binomials(p)
        for n in range(1, n_max + 1):
            x = f(x)
            assert x.norm() % p**2 == want, (p, n)
    assert time.time() - started < 120
    _report(1, "norm congruence on the (p, n) grid", started)


def test_criterion_2_hand_oracle_p3():
    started = time.time()
    # straight-line oracle first: tuples with zeta^2 = -1 - zeta
    orbit = oracle.orbit_of_one(3)
    assert orbit == [(2, -1), (-1, -7), (-55, 209)]
    norms = [oracle.norm(x) for x in orbit]
    assert norms == [7, 43, 58201]
    assert 58201 == 11**2 * 13 * 37
    assert all(n % 9 == 7 for n in norms)
    # only now trust the implementation to match it
    one = CycInt.one(3)
    for n, (a, b) in enumerate(orbit, 1):
        point = iterate_point(3, n, one)
        assert point.coeffs == (a, b)
        assert point.norm() == norms[n - 1]
    _report(2, "hand-oracle agreement at p=3", started)


def test_criterion_3_generalized_congruence():
    started = time.time()
    for p in (3, 5, 7, 11):
        report = general_congruence_check(p, trials=100, coeff_bound=1000, seed=20260809)
        assert report.passed, p
        assert len(report.items) == 100
    assert time.time() - started < 60
    _report(3, "generalized congruence, 100 seeded lifts per p", started)


def test_criterion_4_wieferich_scan():
    started = time.time()
    assert wieferich_scan(10**6) == [1093, 3511]
    assert time.time() - started < 30
    _report(4, "wieferich scan to 10^6", started)


def test_criterion_5_wieferich_pth_power_equivalence():
    started = time.time()
    primes = [p for p in range(3, 500, 2) if is_prime(p)] + [1093]
    for p in primes:
        assert wieferich_check(p) == is_pth_power_mod_p2(2**p - 1, p), p
    for p in (q for q in primes if q <= 97):
        residues = pth_power_residues_mod_p2(p)
        for a in range(p * p):
            assert is_pth_power_mod_p2(a, p) == (a in residues), (p, a)
    assert time.time() - started < 60
    _report(5, "wieferich iff 2^p - 1 is a p-th power mod p^2", started)


def test_criterion_6_certificates():
    started = time.time()
    for p, n in [(3, 5), (5, 2), (7, 2)]:
        cert = build_certificate(p, n)
        assert cert.verdict == MAXIMAL, (p, n, cert)  # INDETERMINATE here is a failure
        assert certificate_problems(cert) == []
    p3 = build_certificate(3, 5)
    assert [rec.norm_abs for rec in p3.levels[:3]] == [7, 43, 58201]
    assert time.time() - started < 300
    _report(6, "maximality certificates at (3,5), (5,2), (7,2)", started)


def test_criterion_7_structural_facts():
    started = time.time()
    for p in (3, 5, 7, 11):
        for check in (eisenstein_check, fixed_point_check, orbit_congruence_check):
            report = check(p)
            assert report.passed, (p, report.check, report.failures)
    _report(7, "Eisenstein shape, fixed point, orbit congruence", started)


def test_criterion_8_property_suites():
    started = time.time()
    cases = 1000
    rng = random.Random(887)
    for p in (3, 5, 7, 11):
        pi = one_minus_zeta(p)
        assert pi.norm() == p
        assert pi_valuation(CycInt.from_int(p, p)) == p - 1
        for _ in range(cases):
            a = CycInt(p, [rng.randint(-(10**6), 10**6) for _ in range(p - 1)])
            b = CycInt(p, [rng.randint(-(10**6), 10**6) for _ in range(p - 1)])
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).norm() == a.norm() * b.norm()
            assert a.norm() == resultant_oracle.norm(a.coeffs, p)
            lifted = a
            for _ in range(rng.randint(0, 2)):
                lifted = lifted * pi
            assert pi_valuation(lifted * b) == pi_valuation(lifted) + pi_valuation(b)
    _report(8, "randomized property suites, 1000 cases per p", started)
