"""Certificate assembly, independent re-verification, serialization."""

import dataclasses
import json
import math
import re
import sys
import time

import pytest

import oracles

from wreathcert import cyclotomic
from wreathcert import (
    DETERMINISTIC_LIMIT,
    INDETERMINATE,
    MAXIMAL,
    SCHEMA,
    CertificateFormatError,
    CycInt,
    LevelRecord,
    SizeLimitError,
    build_certificate,
    certificate_from_json,
    certificate_problems,
    certificate_to_json,
    group_order,
    is_prime,
    one_minus_zeta,
    orbit_points,
)
from wreathcert.certificate import (
    MAX_ORDER_BITS,
    PrimePower,
    _level_holds,
    _verdict,
    certificate_to_dict,
    require_printable_order,
)

P3_LEVEL5_NORM = 8050183582883899128838114506334853717591107  # 139 * a 136-bit prime


def test_group_order_values():
    assert group_order(3, 1) == 3
    assert group_order(3, 2) == 81  # recursion: 3^3 * 3
    assert group_order(5, 2) == 5**6
    assert group_order(3, 5) == 3 ** ((3**5 - 1) // 2)
    with pytest.raises(ValueError):
        group_order(3, 0)
    with pytest.raises(ValueError):
        build_certificate(3, 0)


@pytest.mark.parametrize("p,n_top", [(3, 6), (5, 3), (1093, 2)])
def test_group_order_matches_recursion(p, n_top):
    for n in range(1, n_top + 1):
        order, want = group_order(p, n), oracles.group_order_recursive(p, n)
        assert order == want and want == order
        assert (order.p, order.e) == (p, (p**n - 1) // (p - 1))
        assert (want - 1).bit_length() == want.bit_length()
        for other in (0, -want, want * p, want - 1):
            assert order != other and other != order


def test_group_order_acts_as_its_integer():
    assert hash(group_order(3, 2)) == hash(81)
    assert {group_order(3, 2): "order"}[81] == "order"
    for p, n in ((3, 1), (3, 5), (5, 3), (1093, 2)):
        order = group_order(p, n)
        assert hash(order) == hash(int(order))
        assert str(order) == str(int(order))
        assert order.bit_length() == int(order).bit_length()
        assert order * p == p * order == int(order) * p
        for m in (1, 2, 9, 2**61 - 1):
            assert order % m == int(order) % m
        assert order < int(order) + 1 and not order < int(order) and not order < 1


def _forbid_forming(patch) -> None:
    """Make PrimePower raise wherever it would form p^e."""

    def formed(self):
        raise AssertionError(f"formed {self.p}^{self.e}")

    patch.setattr(PrimePower, "__int__", formed)
    patch.setattr(PrimePower, "__str__", formed)


def test_wieferich_certificate_at_1093_3_forms_no_big_integer(monkeypatch, set_int_str_limit):
    # the order has 12,069,923 bits; no proof step reads its digits
    with monkeypatch.context() as patch:
        _forbid_forming(patch)
        cert = build_certificate(1093, 3)
        order = cert.group_order_claimed
        assert cert.verdict == INDETERMINATE
        assert (order.p, order.e) == (1093, 1093**2 + 1093 + 1)
        for q in (2**61 - 1, 2**89 - 1, 10**9 + 7):
            assert order % q == pow(1093, order.e, q)
        assert certificate_problems(cert) == []
        for claim in (0, 1093**1094):  # an int claim far from its bit length forms nothing either
            problems = certificate_problems(dataclasses.replace(cert, group_order_claimed=claim))
            assert problems == ["group_order_claimed does not match p^((p^n - 1)/(p - 1))"]
    set_int_str_limit(4300)
    with pytest.raises(ValueError, match="4300"):  # writing it still hits the int-str digit limit
        certificate_to_json(cert)


def test_group_order_refuses_past_its_bit_cap_at_once():
    assert MAX_ORDER_BITS == 2**24
    # about 1.32 * 10^10, 1.7 * 10^9, 1.45 * 10^8 and 1.89 * 10^7 bits:
    # refused from the exponent alone, before any power is formed, also at
    # (7, 9), where 2^(e * (bitlen(7) - 1)) with e = 6.7 * 10^6 is below the cap
    for call in (
        lambda: group_order(1093, 4),
        lambda: group_order(3, 20),
        lambda: group_order(3511, 3),
        lambda: group_order(7, 9),
        lambda: group_order(3, 10**18),
        lambda: build_certificate(1093, 4),
    ):
        started = time.perf_counter()
        with pytest.raises(SizeLimitError, match=r"has more than \d+ bits$"):
            call()
        assert time.perf_counter() - started < 0.1


def test_group_order_cap_is_exact(monkeypatch):
    # an order of b bits passes a cap of b and fails b - 1, decided from
    # e * log2(p) alone: the order is not formed
    points = [(p, n, group_order(p, n).bit_length()) for p, n in ((3, 1), (3, 5), (5, 3), (7, 4), (1093, 2))]
    _forbid_forming(monkeypatch)
    for p, n, bits in points:
        assert group_order(p, n, bits) == PrimePower(p, (p**n - 1) // (p - 1))
        message = f"the group order {p}^(({p}^{n} - 1)/{p - 1}) has more than {bits - 1} bits"
        with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
            group_order(p, n, bits - 1)


def test_group_order_cap_forms_the_order_where_the_float_cannot_decide(monkeypatch):
    # with log2(3) read as 1.5, e * log2(p) at (3, 2) is exactly 6.0, a cap
    # of 6 is a float tie, and only the formed 81 (7 bits) refuses it
    formed = []
    monkeypatch.setattr(math, "log2", lambda x: 1.5)
    monkeypatch.setattr(PrimePower, "__int__", lambda self: formed.append(self) or self.p**self.e)
    with pytest.raises(SizeLimitError, match="more than 6 bits$"):
        group_order(3, 2, 6)
    assert formed == [PrimePower(3, 4)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_printable_order_follows_the_int_str_limit(set_int_str_limit):
    digits = len(str(group_order(3, 8)))  # 3^3280 has 1566 digits
    set_int_str_limit(digits)
    require_printable_order(3, 8)
    set_int_str_limit(digits - 1)
    with pytest.raises(SizeLimitError, match=f"more than {digits - 1} decimal digits"):
        require_printable_order(3, 8)
    set_int_str_limit(4300)
    require_printable_order(1093, 2)  # 3325 digits
    for p, n in ((3, 9), (1093, 3), (1093, 4), (1093, 10**6)):
        with pytest.raises(SizeLimitError):
            require_printable_order(p, n)
    set_int_str_limit(0)  # no limit: CPython's default of 4300 digits holds
    require_printable_order(1093, 2)
    for n in (3, 4):
        with pytest.raises(SizeLimitError, match="more than 4300 decimal digits"):
            require_printable_order(1093, n)


@pytest.mark.parametrize("p,n", [(3, 6), (5, 3), (7, 3), (11, 2), (13, 2)])
def test_levels_are_pairwise_coprime(p, n):
    # Lemma C: phi^m(1) divides phi^k(1) - (1 - zeta) for m < k, so a prime
    # dividing two levels divides 1 - zeta, and no norm is divisible by p.
    # x divides y when every coordinate of y * x* is divisible by N(x),
    # where x* is the product of the conjugates of x other than x itself.
    points = list(orbit_points(p, CycInt.one(p), n))
    pi = one_minus_zeta(p)
    for m, x in enumerate(points[:-1], 1):
        norm = x.norm()
        assert norm % p == 1
        tables = (cyclotomic._conj_table(p, k) for k in range(2, p))
        conjugates = (CycInt(p, cyclotomic._conj(x.coeffs, *table, None)) for table in tables)
        x_star = math.prod(conjugates, start=CycInt.one(p))
        for k, later in enumerate(points[m:], m + 1):
            assert all(c % norm == 0 for c in ((later - pi) * x_star).coeffs), (m, k)
            assert math.gcd(norm, later.norm()) == 1


# -- the level test ------------------------------------------------------------

ODD_PRIMES_TO_101 = [p for p in range(3, 102, 2) if is_prime(p)]
# every level of these points, and each odd p <= 101 at level 1
LEVEL_POINTS = [(3, 7), (5, 6), (7, 3), (11, 3), (13, 2)] + [(p, 1) for p in ODD_PRIMES_TO_101 if p > 13]
# (p, m) -> (q, e): a prime q with q^e exactly dividing N(phi^m(1)) and p not
# dividing e, the first one a factoring search found.  Each is independent
# evidence that the norm is not a p-th power.  That search found none at
# (11, 3) within its budget, nor at (89, 1), whose norm 2^89 - 1 is a prime
# past DETERMINISTIC_LIMIT.
WITNESSES = {
    (3, 1): (7, 1), (3, 2): (43, 1), (3, 3): (11, 2), (3, 4): (1429, 1),
    (3, 5): (139, 1), (3, 6): (5, 4), (3, 7): (12757, 1),
    (5, 1): (31, 1), (5, 2): (11, 1), (5, 3): (12826951, 1), (5, 4): (1571, 1),
    (5, 5): (241, 1), (5, 6): (187733512411, 1),
    (7, 1): (127, 1), (7, 2): (491, 1), (7, 3): (6736940533, 1),
    (11, 1): (23, 1), (11, 2): (67, 1),
    (13, 1): (8191, 1), (13, 2): (937, 1),
    (17, 1): (131071, 1), (19, 1): (524287, 1), (23, 1): (47, 1), (29, 1): (233, 1),
    (31, 1): (2147483647, 1), (37, 1): (223, 1), (41, 1): (13367, 1), (43, 1): (431, 1),
    (47, 1): (2351, 1), (53, 1): (6361, 1), (59, 1): (179951, 1),
    (61, 1): (2305843009213693951, 1), (67, 1): (193707721, 1), (71, 1): (228479, 1),
    (73, 1): (439, 1), (79, 1): (2687, 1), (83, 1): (167, 1), (97, 1): (11447, 1),
    (101, 1): (7432339208719, 1),
}
NO_WITNESS = {(11, 3), (89, 1)}


@pytest.mark.parametrize("p,n", LEVEL_POINTS)
def test_level_test_holds_at_every_level(p, n):
    # oracles: the exact integer p-th root shows that no norm is a p-th
    # power, and a recorded witness shows it again by its exponent
    cert = build_certificate(p, n)
    assert cert.verdict == MAXIMAL
    for rec in cert.levels:
        norm, point = rec.norm_abs, (p, rec.m)
        assert _level_holds(p, norm), point
        assert oracles.iroot(norm, p) ** p != norm, point
        if point in NO_WITNESS:
            continue
        q, e = WITNESSES[point]
        assert is_prime(q) and e % p, point
        assert norm % q**e == 0 and norm % q ** (e + 1) != 0, point


def test_level_test_refuses_pth_powers_and_multiples_of_p():
    # negative controls: none of these may count as a level, in the test or
    # in the verdict.  The test is one-sided: 1 + 9k is a cube mod 9, so it
    # is refused even where it is not a cube in Z.
    not_cubes = [norm for norm in range(10, 10**4, 9) if oracles.iroot(norm, 3) ** 3 != norm]
    controls = [(3, 7**3)] + [(3, norm) for norm in not_cubes] + [(p, p**p) for p in ODD_PRIMES_TO_101]
    controls += [(p, a**p) for p in ODD_PRIMES_TO_101 for a in (2, -3, 10, 2**64 + 1) if a % p]
    for p, norm in controls:
        assert not _level_holds(p, norm), (p, norm)
        assert _verdict(p, 1, False, (LevelRecord(1, norm),)) == INDETERMINATE, (p, norm)
    # the controls are not vacuous: the true level-1 norm 7 passes, but not
    # at a Wieferich flag or with a level missing
    assert _verdict(3, 1, False, (LevelRecord(1, 7),)) == MAXIMAL
    assert _verdict(3, 1, True, (LevelRecord(1, 7),)) == INDETERMINATE
    assert _verdict(3, 2, False, (LevelRecord(1, 7),)) == INDETERMINATE


@pytest.mark.parametrize("p,n", [(11, 3), (5, 6), (89, 1)])
def test_points_past_the_factoring_search_are_maximal(p, n):
    # a factoring search for witnesses left (11, 3) and (89, 1) INDETERMINATE
    # (after 30 s at (11, 3)), and took about two minutes at (5, 6)
    started = time.perf_counter()
    cert = build_certificate(p, n)
    assert cert.verdict == MAXIMAL
    assert certificate_problems(cert) == []
    assert time.perf_counter() - started < 5


def test_level_witness_p3_first_levels():
    levels = build_certificate(3, 3).levels
    assert [rec.norm_abs for rec in levels] == [7, 43, 58201]
    assert 58201 == 11**2 * 13 * 37  # the exponent 2 of 11 is not divisible by 3
    assert all(_level_holds(3, rec.norm_abs) for rec in levels)


def test_level_witness_deep_levels():
    levels = build_certificate(3, 5).levels
    assert levels[3].norm_abs == 200417348396653
    rec5 = levels[4]
    # the norm's other prime factor is past DETERMINISTIC_LIMIT, so only a
    # probable prime; the level test never needs it
    assert rec5.norm_abs == P3_LEVEL5_NORM
    q = P3_LEVEL5_NORM // 139
    assert P3_LEVEL5_NORM == 139 * q and q >= DETERMINISTIC_LIMIT and is_prime(q)
    assert _level_holds(3, levels[3].norm_abs) and _level_holds(3, rec5.norm_abs)


def test_build_certificate_p3():
    cert = build_certificate(3, 3)
    assert cert.verdict == MAXIMAL
    assert not cert.wieferich
    assert [rec.norm_abs for rec in cert.levels] == [7, 43, 58201]
    assert cert.group_order_claimed == group_order(3, 3)
    assert certificate_problems(cert) == []


def test_build_certificate_p5():
    cert = build_certificate(5, 1)
    assert cert.verdict == MAXIMAL
    assert cert.levels[0].norm_abs == 31  # 2^5 - 1
    assert certificate_problems(cert) == []


def test_build_certificate_wieferich():
    cert = build_certificate(1093, 2)
    assert cert.wieferich
    assert cert.verdict == INDETERMINATE
    assert cert.levels == ()
    assert cert.group_order_claimed == 1093 ** (1093 + 1)
    assert certificate_problems(cert) == []


def test_monotone_consistency():
    small = build_certificate(3, 2)
    big = build_certificate(3, 4)
    assert big.levels[:2] == small.levels


def test_size_cap_propagates_as_exception(monkeypatch):
    # distinct from an INDETERMINATE record: the level fails loudly
    from wreathcert import SizeLimitError

    monkeypatch.setattr("wreathcert.dynamics.MAX_COEFF_BITS", 16)
    with pytest.raises(SizeLimitError):
        build_certificate(3, 3)


# -- tampering ------------------------------------------------------------


def tamper_level(cert, index, **changes):
    levels = list(cert.levels)
    levels[index] = dataclasses.replace(levels[index], **changes)
    return dataclasses.replace(cert, levels=tuple(levels))


def test_verify_rejects_pth_power_exponent_rule():
    # a p-th-power norm certifies nothing: 7^3 fails the level test, so the
    # claimed MAXIMAL is not the verdict the levels give
    cert = build_certificate(3, 1)
    bad = tamper_level(cert, 0, norm_abs=343)
    assert certificate_problems(bad) == [
        "level 1: norm residue 1 differs from 2^p - 1 = 7 mod p^2",
        "level 1: norm_abs is not the norm of phi^1(1)",
        "the levels and wieferich flag give verdict INDETERMINATE, not the one claimed",
    ]


def test_verify_rejects_wrong_group_order():
    cert = build_certificate(3, 2)
    mismatch = "group_order_claimed does not match p^((p^n - 1)/(p - 1))"
    # too large, too small to hold the order (refused by the bit cap), and a
    # hostile n whose order is never formed
    for changes in ({"group_order_claimed": 243}, {"group_order_claimed": 27}, {"group_order_claimed": 0},
                    {"n": 10**18}):
        assert mismatch in certificate_problems(dataclasses.replace(cert, **changes))


def test_verify_rejects_wrong_residue():
    cert = build_certificate(3, 2)
    bad = tamper_level(cert, 0, norm_abs=8 * 7)  # 56 = 2 mod 9, which passes the level test
    problems = certificate_problems(bad)
    assert any("norm residue 2 differs from 2^p - 1 = 7" in msg for msg in problems)
    assert any("not the norm of phi^1(1)" in msg for msg in problems)


def test_verify_rejects_flipped_wieferich_flag():
    cert = build_certificate(3, 2)
    bad = dataclasses.replace(cert, wieferich=True)
    assert certificate_problems(bad)


def test_verify_rejects_missing_level():
    cert = build_certificate(3, 3)
    bad = dataclasses.replace(cert, levels=cert.levels[:2])
    problems = certificate_problems(bad)
    assert any("levels" in msg for msg in problems)


def test_verify_rejects_inconsistent_verdict():
    # the verdict must be the one the levels and the flag give: MAXIMAL
    # exactly when p is not Wieferich and all n levels pass the level test,
    # else INDETERMINATE; any other string is inconsistent with every
    # certificate.  A cube norm fails the level test, and at p = 3 it is
    # never 7 mod 9, so it is also a false norm.
    cert = build_certificate(3, 2)
    unheld = tamper_level(cert, 1, norm_abs=43**3)
    false_norm = [
        "level 2: norm residue 1 differs from 2^p - 1 = 7 mod p^2",
        "level 2: norm_abs is not the norm of phi^2(1)",
    ]
    gives = "the levels and wieferich flag give verdict {}, not the one claimed".format
    cases = [
        (unheld, false_norm + [gives(INDETERMINATE)]),
        (dataclasses.replace(cert, levels=cert.levels[:1]), ["expected 2 levels, found 1", gives(INDETERMINATE)]),
        (
            dataclasses.replace(cert, wieferich=True),
            [
                "wieferich flag True contradicts 2^(p-1) mod p^2",
                "wieferich certificate should not carry levels",
                gives(INDETERMINATE),
            ],
        ),
        (dataclasses.replace(cert, verdict=INDETERMINATE), [gives(MAXIMAL)]),
        (dataclasses.replace(cert, verdict="FOO"), [gives(MAXIMAL)]),
        (dataclasses.replace(cert, verdict="X" * 10**6), [gives(MAXIMAL)]),
        (dataclasses.replace(unheld, verdict="FOO"), false_norm + [gives(INDETERMINATE)]),
        (dataclasses.replace(unheld, verdict=INDETERMINATE), false_norm),
    ]
    for bad, want in cases:
        assert certificate_problems(bad) == want


# -- forgeries: every number must be tied to phi ---------------------------


def _problems_after(edit, p=3, n=2):
    data = certificate_to_dict(build_certificate(p, n))
    edit(data)
    return certificate_problems(certificate_from_json(json.dumps(data)))


def _forge(level, norm, witness, factors):
    """Rewrite a level of a p = 3 certificate, retired fields included, so it is self-consistent.

    The retired fields, the witness (q, e) among them, are read by nothing.
    """
    level.update(
        norm_abs=str(norm),
        norm_mod_p2=str(norm % 9),
        factorization={"factors": [[str(q), str(e)] for q, e in factors], "cofactor": "1", "cofactor_status": "UNIT"},
        witness=[str(v) for v in witness],
        unit_check=True,
        p_coprime_check=True,
        status="WITNESS_FOUND",
    )


def test_verify_rejects_self_consistent_prime_norm():
    # 97 is prime and 7 mod 9 like the true norm 43, so it is its own witness
    problems = _problems_after(lambda data: _forge(data["levels"][1], 97, (97, 1), [(97, 1)]))
    assert problems == ["level 2: norm_abs is not the norm of phi^2(1)"]


def test_verify_rejects_inflated_norm_with_true_witness():
    # 70 = 2 * 5 * 7 is 7 mod 9, passes the level test, and 7 still divides it exactly once
    problems = _problems_after(lambda data: _forge(data["levels"][0], 70, (7, 1), [(2, 1), (5, 1), (7, 1)]))
    assert problems == ["level 1: norm_abs is not the norm of phi^1(1)"]


@pytest.mark.parametrize("m", range(1, 6))
def test_verify_rejects_prime_with_the_same_residue(m):
    # the level's norm becomes another prime with the same residue mod 9,
    # used as its own witness
    def edit(data):
        level = data["levels"][m - 1]
        original = int(level["norm_abs"])
        q = original % 9
        while q == original or not is_prime(q):
            q += 9
        _forge(level, q, (q, 1), [(q, 1)])

    assert _problems_after(edit, 3, 5) == [f"level {m}: norm_abs is not the norm of phi^{m}(1)"]


def test_verify_stops_at_the_first_false_norm():
    def edit(data):
        for level in data["levels"]:
            level["norm_abs"] = str(int(level["norm_abs"]) + 9)

    problems = _problems_after(edit, 3, 3)
    assert [msg for msg in problems if "not the norm" in msg] == ["level 1: norm_abs is not the norm of phi^1(1)"]


def test_large_points_are_fingerprinted_before_the_exact_norm(monkeypatch):
    import wreathcert.certificate as certificate
    from wreathcert import CycInt

    exact = []
    norm = CycInt.norm
    honest = build_certificate(3, 5)
    monkeypatch.setattr(certificate, "_FINGERPRINT_BITS", 0)
    # count exact norms only; the fingerprint calls norm(q)
    monkeypatch.setattr(CycInt, "norm", lambda x, m=None: (m is None and exact.append(x)) or norm(x, m))
    assert certificate_problems(honest) == []
    assert len(exact) == 5
    exact.clear()
    data = certificate_to_dict(honest)
    _forge(data["levels"][1], 97, (97, 1), [(97, 1)])
    problems = certificate_problems(certificate_from_json(json.dumps(data)))
    assert problems == ["level 2: norm_abs is not the norm of phi^2(1)"]
    assert len(exact) == 1  # level 1 only: the fingerprint rejected level 2


def test_verify_reports_size_cap_as_problem(monkeypatch):
    import wreathcert.certificate as certificate
    from wreathcert.errors import SizeLimitError

    def capped(*args, **kwargs):
        raise SizeLimitError("iterate coefficients exceed the cap")
        yield

    cert = build_certificate(3, 2)
    monkeypatch.setattr(certificate, "orbit_points", capped)
    problems = certificate_problems(cert)
    assert problems == ["levels cannot be recomputed: iterate coefficients exceed the cap"]


def test_verify_rejects_levels_past_the_ring_bound():
    cert = dataclasses.replace(build_certificate(3, 1), p=103)
    problems = certificate_problems(cert)
    assert any("levels cannot be recomputed" in msg and "101" in msg for msg in problems)


# A (3, 2) certificate as written before the level record shrank to m and
# norm_abs and the note left the certificate; the retired keys, the
# witness among them, are ignored.
PARENT_P3_N2 = (
    '{"group_order_claimed": "81", "levels": ['
    '{"factorization": {"cofactor": "1", "cofactor_status": "UNIT", "factors": [["7", "1"]]}, '
    '"m": 1, "norm_abs": "7", "norm_mod_p2": "7", "p_coprime_check": true, '
    '"status": "WITNESS_FOUND", "unit_check": true, "witness": ["7", "1"]}, '
    '{"factorization": {"cofactor": "1", "cofactor_status": "UNIT", "factors": [["43", "1"]]}, '
    '"m": 2, "norm_abs": "43", "norm_mod_p2": "7", "p_coprime_check": true, '
    '"status": "WITNESS_FOUND", "unit_check": true, "witness": ["43", "1"]}], '
    '"n": 2, "note": null, "p": 3, "schema": "wreath-cert/1", "verdict": "MAXIMAL", "wieferich": false}'
)


def test_older_documents_still_verify():
    cert = certificate_from_json(PARENT_P3_N2)
    assert cert == build_certificate(3, 2)
    assert certificate_problems(cert) == []


@pytest.mark.parametrize("level", [0, 1])
def test_retired_factorization_is_ignored(level):
    data = json.loads(PARENT_P3_N2)
    data["levels"][level]["factorization"] = {"factors": [["2", "99"]], "cofactor": "0", "cofactor_status": "?"}
    assert certificate_problems(certificate_from_json(json.dumps(data))) == []


# -- serialization ---------------------------------------------------------


def test_json_roundtrip():
    for cert in (build_certificate(3, 3), build_certificate(5, 2), build_certificate(1093, 1)):
        text = certificate_to_json(cert)
        again = certificate_from_json(text)
        assert again == cert
        assert certificate_to_json(again) == text  # byte-stable re-emission


def test_json_schema_fields():
    cert = build_certificate(3, 2)
    data = certificate_to_dict(cert)
    assert data["schema"] == SCHEMA
    assert data["group_order_claimed"] == str(group_order(3, 2))
    level = data["levels"][0]
    assert level == {"m": 1, "norm_abs": "7"}
    assert "note" not in data


# The whole certificate_to_json output: key order, indent, and which integers
# are decimal strings are part of the schema.
GOLDEN_P3_N3 = """\
{
  "group_order_claimed": "1594323",
  "levels": [
    {
      "m": 1,
      "norm_abs": "7"
    },
    {
      "m": 2,
      "norm_abs": "43"
    },
    {
      "m": 3,
      "norm_abs": "58201"
    }
  ],
  "n": 3,
  "p": 3,
  "schema": "wreath-cert/1",
  "verdict": "MAXIMAL",
  "wieferich": false
}
"""

GOLDEN_P1093_N1 = """\
{
  "group_order_claimed": "1093",
  "levels": [],
  "n": 1,
  "p": 1093,
  "schema": "wreath-cert/1",
  "verdict": "INDETERMINATE",
  "wieferich": true
}
"""


def test_json_output_is_byte_stable():
    assert certificate_to_json(build_certificate(3, 3)) == GOLDEN_P3_N3
    assert certificate_to_json(build_certificate(1093, 1)) == GOLDEN_P1093_N1


def _delete(key):
    return lambda record: record.pop(key)


def _set(key, value):
    return lambda record: record.update({key: value})


# only the canonical str(n) is schema-legal; int() reads all of these but "",
# "-" and the Unicode minus, and "43\n" passes a match that ends in "$"
NON_CANONICAL_DECIMALS = (
    " 43", "+43", "4_3", "043", "-0", "43\n", "", "-",
    "\u221243",  # Unicode minus 43
    "\u0664\u0663", "\u0664", "4\u0663",  # Arabic-Indic 43 and 4, and 4 then Arabic-Indic 3
)
# one edit per field of the schema: each field missing, and each of another JSON kind
CERTIFICATE_EDITS = [_delete(key) for key in ("p", "n", "wieferich", "group_order_claimed", "verdict", "levels")] + [
    _set("p", True),
    _set("n", "3"),
    _set("wieferich", 0),
    _set("group_order_claimed", 7),
    _set("group_order_claimed", "3.0"),
    _set("verdict", None),
    _set("levels", {}),
    _set("levels", [7]),
] + [_set("group_order_claimed", text) for text in NON_CANONICAL_DECIMALS]
LEVEL_EDITS = [_delete(key) for key in ("m", "norm_abs")] + [
    _set("m", True),
    _set("m", "1"),
    _set("norm_abs", 7),
    _set("norm_abs", "seven"),
] + [_set("norm_abs", text) for text in NON_CANONICAL_DECIMALS]


def test_parse_rejects_bad_documents():
    with pytest.raises(CertificateFormatError):
        certificate_from_json("not json")
    with pytest.raises(CertificateFormatError):
        certificate_from_json("[1, 2, 3]")
    good = certificate_to_dict(build_certificate(3, 1))
    certificate_from_json(json.dumps(good))

    bad = dict(good, schema="wreath-cert/9")
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(json.dumps(bad))
    assert any("schema" in msg for msg in info.value.problems)

    for index, edit in enumerate(CERTIFICATE_EDITS + LEVEL_EDITS):
        bad = json.loads(json.dumps(good))
        edit(bad if index < len(CERTIFICATE_EDITS) else bad["levels"][0])
        with pytest.raises(CertificateFormatError) as info:
            certificate_from_json(json.dumps(bad))
        assert len(info.value.problems) == 1, (index, info.value.problems)

    bad = json.loads(json.dumps(good))
    del bad["levels"][0]["norm_abs"]
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(json.dumps(bad))
    assert info.value.problems == ["levels[0]: missing field 'norm_abs'"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_parse_reads_decimals_up_to_the_int_str_limit(set_int_str_limit):
    set_int_str_limit(4300)
    good = certificate_to_dict(build_certificate(3, 1))

    def parse_norm(text):
        good["levels"][0]["norm_abs"] = text
        return certificate_from_json(json.dumps(good)).levels[0].norm_abs

    for text in ("9" * 4300, "-1" + "0" * 4299):
        assert parse_norm(text) == int(text)
    for text in ("9" * 4301, "-1" + "0" * 4300):  # canonical, but past the limit
        with pytest.raises(CertificateFormatError) as info:
            parse_norm(text)
        assert info.value.problems == ["levels[0]: field 'norm_abs' must be a decimal-string integer"]


def test_parse_accepts_tampered_but_wellformed():
    # structurally fine, mathematically wrong: parse succeeds, verify fails
    data = certificate_to_dict(build_certificate(3, 3))
    data["levels"][2]["norm_abs"] = str(58201 + 9)
    cert = certificate_from_json(json.dumps(data))
    assert certificate_problems(cert) == ["level 3: norm_abs is not the norm of phi^3(1)"]
