"""Certificate assembly, independent re-verification, serialization."""

import contextlib
import dataclasses
import json
import math
import re
import sys
import time

import pytest

import oracles

from wreathcert import (
    DETERMINISTIC_LIMIT,
    INDETERMINATE,
    MAXIMAL,
    SCHEMA,
    WITNESS_FOUND,
    CertificateFormatError,
    CycInt,
    FactorConfig,
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
from wreathcert.certificate import MAX_ORDER_BITS, certificate_to_dict, require_printable_order

P3_WITNESSES = [(7, 1), (43, 1), (11, 2), (1429, 1), (139, 1)]
P3_LEVEL5_NORM = 8050183582883899128838114506334853717591107  # 139 * a 136-bit prime


def test_group_order_values():
    assert group_order(3, 1) == 3
    assert group_order(3, 2) == 81  # recursion: 3^3 * 3
    assert group_order(5, 2) == 5**6
    assert group_order(3, 5) == 3 ** ((3**5 - 1) // 2)
    with pytest.raises(ValueError):
        group_order(3, 0)


@pytest.mark.parametrize("p,n_top", [(3, 6), (5, 3), (1093, 2)])
def test_group_order_matches_recursion(p, n_top):
    for n in range(1, n_top + 1):
        assert group_order(p, n) == oracles.group_order_recursive(p, n)


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
    # the cap is exact: an order of b bits passes a cap of b and fails b - 1
    for p, n in ((3, 1), (3, 5), (5, 3), (7, 4), (1093, 2)):
        order = group_order(p, n)
        assert group_order(p, n, order.bit_length()) == order
        bits = order.bit_length() - 1
        message = f"the group order {p}^(({p}^{n} - 1)/{p - 1}) has more than {bits} bits"
        with pytest.raises(SizeLimitError, match=f"^{re.escape(message)}$"):
            group_order(p, n, bits)


@contextlib.contextmanager
def int_max_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_printable_order_follows_the_int_str_limit():
    digits = len(str(group_order(3, 8)))  # 3^3280 has 1566 digits
    with int_max_str_digits(digits):
        require_printable_order(3, 8)
    with int_max_str_digits(digits - 1):
        with pytest.raises(SizeLimitError, match=f"more than {digits - 1} decimal digits"):
            require_printable_order(3, 8)
    with int_max_str_digits(4300):
        require_printable_order(1093, 2)  # 3325 digits
        for p, n in ((3, 9), (1093, 3), (1093, 4), (1093, 10**6)):
            with pytest.raises(SizeLimitError):
                require_printable_order(p, n)
    with int_max_str_digits(0):  # no limit
        require_printable_order(1093, 4)


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
        x_star = math.prod((x.conjugate(k) for k in range(2, p)), start=CycInt.one(p))
        for k, later in enumerate(points[m:], m + 1):
            assert all(c % norm == 0 for c in ((later - pi) * x_star).coeffs), (m, k)
            assert math.gcd(norm, later.norm()) == 1


def test_level_witness_p3_first_levels():
    levels = build_certificate(3, 3).levels
    rec = levels[0]
    assert rec.norm_abs == 7
    assert rec.witness == (7, 1)
    assert rec.status == WITNESS_FOUND
    assert levels[1].witness == (43, 1)
    rec3 = levels[2]
    assert rec3.witness == (11, 2)  # exponent 2 is the point: 2 != 0 mod 3
    assert rec3.norm_abs == 58201  # 11^2 * 13 * 37


def test_level_witness_deep_levels():
    levels = build_certificate(3, 5).levels
    rec4 = levels[3]
    assert rec4.witness == (1429, 1)
    assert rec4.norm_abs == 200417348396653
    rec5 = levels[4]
    # the norm's other prime factor is past DETERMINISTIC_LIMIT, so only a
    # probable prime (see test_factoring.py); the witness search must not
    # depend on certifying it
    assert rec5.witness == (139, 1)
    assert rec5.norm_abs == P3_LEVEL5_NORM
    assert rec5.status == WITNESS_FOUND


def test_build_certificate_p3():
    cert = build_certificate(3, 3)
    assert cert.verdict == MAXIMAL
    assert not cert.wieferich
    assert [rec.witness for rec in cert.levels] == P3_WITNESSES[:3]
    assert cert.group_order_claimed == group_order(3, 3)
    assert certificate_problems(cert) == []


def test_build_certificate_p5():
    cert = build_certificate(5, 1)
    assert cert.verdict == MAXIMAL
    assert cert.levels[0].witness == (31, 1)  # 2^5 - 1 is prime
    assert certificate_problems(cert) == []


def test_build_certificate_wieferich():
    cert = build_certificate(1093, 2)
    assert cert.wieferich
    assert cert.verdict == INDETERMINATE
    assert cert.levels == ()
    assert cert.note  # explanatory note travels with the verdict
    assert cert.group_order_claimed == 1093 ** (1093 + 1)
    assert certificate_problems(cert) == []


def test_monotone_consistency():
    cfg = FactorConfig()
    small = build_certificate(3, 2, cfg)
    big = build_certificate(3, 4, cfg)
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


def test_verify_rejects_tampered_witness_exponent():
    cert = build_certificate(3, 3)
    bad = tamper_level(cert, 2, witness=(11, 3))  # tampered 2 -> 3
    assert certificate_problems(bad)


def test_verify_rejects_pth_power_exponent_rule():
    # a witness exponent divisible by p certifies nothing even when the
    # division is exact: synthetic record with 7^3 exactly dividing
    cert = build_certificate(3, 1)
    bad = tamper_level(cert, 0, norm_abs=343, witness=(7, 3))
    problems = certificate_problems(bad)
    assert any("divisible by p" in msg for msg in problems)
    assert any("not the norm of phi^1(1)" in msg for msg in problems)


def test_verify_rejects_wrong_group_order():
    cert = build_certificate(3, 2)
    mismatch = "group_order_claimed does not match p^((p^n - 1)/(p - 1))"
    # too large, too small to hold the order (refused by the bit cap), and a
    # hostile n whose order is never formed
    for changes in ({"group_order_claimed": 243}, {"group_order_claimed": 27}, {"group_order_claimed": 0},
                    {"n": 10**18}):
        assert mismatch in certificate_problems(dataclasses.replace(cert, **changes))


def test_verify_rejects_composite_witness():
    cert = build_certificate(3, 3)
    # 143 = 11 * 13 divides 58201 exactly once, so only primality testing
    # can reject it as a witness
    bad = tamper_level(cert, 2, witness=(143, 1))
    problems = certificate_problems(bad)
    assert any("not prime" in msg for msg in problems)


def test_verify_rejects_inexact_exponent():
    cert = build_certificate(3, 3)
    bad = tamper_level(cert, 2, witness=(11, 1))  # 11^2 divides the norm
    problems = certificate_problems(bad)
    assert any("exactly divide" in msg for msg in problems)


def test_verify_rejects_wrong_residue():
    cert = build_certificate(3, 2)
    bad = tamper_level(cert, 0, norm_abs=8 * 7)  # 56 = 2 mod 9; 7 still divides exactly
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
    # MAXIMAL exactly when p is not Wieferich and all n levels hold a
    # witness; any other verdict, unknown ones too, counts as not MAXIMAL
    cert = build_certificate(3, 2)
    unwitnessed = tamper_level(cert, 1, witness=None, status=INDETERMINATE)
    inconsistent = "verdict {} inconsistent with levels and wieferich flag".format
    cases = [
        (unwitnessed, [inconsistent(MAXIMAL)]),
        (dataclasses.replace(cert, levels=cert.levels[:1]), ["expected 2 levels, found 1", inconsistent(MAXIMAL)]),
        (
            dataclasses.replace(cert, wieferich=True),
            [
                "wieferich flag True contradicts 2^(p-1) mod p^2",
                "wieferich certificate should not carry levels",
                inconsistent(MAXIMAL),
            ],
        ),
        (dataclasses.replace(cert, verdict=INDETERMINATE), [inconsistent(INDETERMINATE)]),
        (dataclasses.replace(cert, verdict="FOO"), ["unknown verdict 'FOO'", inconsistent("FOO")]),
        (dataclasses.replace(unwitnessed, verdict="FOO"), ["unknown verdict 'FOO'"]),
    ]
    for bad, want in cases:
        assert certificate_problems(bad) == want


def test_verify_rejects_uncertain_witness():
    # the 136-bit cofactor of the level-5 norm passes Miller-Rabin and
    # divides the norm exactly once, but past DETERMINISTIC_LIMIT that does
    # not prove it prime
    cert = build_certificate(3, 5)
    q = P3_LEVEL5_NORM // 139
    assert q >= DETERMINISTIC_LIMIT and is_prime(q)
    bad = tamper_level(cert, 4, witness=(q, 1))
    problems = certificate_problems(bad)
    assert problems == ["level 5: a 136-bit witness is past the deterministic primality range"]


# -- forgeries: every number must be tied to phi ---------------------------


def _problems_after(edit, p=3, n=2):
    data = certificate_to_dict(build_certificate(p, n))
    edit(data)
    return certificate_problems(certificate_from_json(json.dumps(data)))


def _forge(level, norm, witness, factors):
    """Rewrite a level of a p = 3 certificate, retired fields included, so it is self-consistent."""
    level.update(
        norm_abs=str(norm),
        norm_mod_p2=str(norm % 9),
        factorization={"factors": [[str(q), str(e)] for q, e in factors], "cofactor": "1", "cofactor_status": "UNIT"},
        witness=[str(v) for v in witness],
        unit_check=True,
        p_coprime_check=True,
        status=WITNESS_FOUND,
    )


def test_verify_rejects_self_consistent_prime_norm():
    # 97 is prime and 7 mod 9 like the true norm 43, so it is its own witness
    problems = _problems_after(lambda data: _forge(data["levels"][1], 97, (97, 1), [(97, 1)]))
    assert problems == ["level 2: norm_abs is not the norm of phi^2(1)"]


def test_verify_rejects_inflated_norm_with_true_witness():
    # 70 = 2 * 5 * 7 is 7 mod 9 and 7 still divides it exactly once
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


# A (3, 2) certificate as written before the level record shrank to m,
# norm_abs, witness and status; the retired keys are ignored.
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
    assert level == {"m": 1, "norm_abs": "7", "witness": ["7", "1"], "status": WITNESS_FOUND}


# The whole certificate_to_json output: key order, indent, and which integers
# are decimal strings are part of the schema.
GOLDEN_P3_N3 = """\
{
  "group_order_claimed": "1594323",
  "levels": [
    {
      "m": 1,
      "norm_abs": "7",
      "status": "WITNESS_FOUND",
      "witness": [
        "7",
        "1"
      ]
    },
    {
      "m": 2,
      "norm_abs": "43",
      "status": "WITNESS_FOUND",
      "witness": [
        "43",
        "1"
      ]
    },
    {
      "m": 3,
      "norm_abs": "58201",
      "status": "WITNESS_FOUND",
      "witness": [
        "11",
        "2"
      ]
    }
  ],
  "n": 3,
  "note": null,
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
  "note": "p is a Wieferich prime, so the norm congruence no longer rules out p-th-power norms and no witness \
search was attempted; maximality is expected but not certified in this case",
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


# int() reads each of these as an integer; only the canonical str(n) is schema-legal
NON_CANONICAL_DECIMALS = (" 43", "+43", "4_3", "043", "-0", "\u0664\u0663")  # the last is Arabic-Indic 43
# one edit per field of the schema: each field missing, and each of another JSON kind
CERTIFICATE_EDITS = [_delete(key) for key in ("p", "n", "wieferich", "group_order_claimed", "verdict", "levels")] + [
    _set("p", True),
    _set("n", "3"),
    _set("wieferich", 0),
    _set("group_order_claimed", 7),
    _set("group_order_claimed", "3.0"),
    _set("verdict", None),
    _set("note", 5),
    _set("levels", {}),
    _set("levels", [7]),
] + [_set("group_order_claimed", text) for text in NON_CANONICAL_DECIMALS]
LEVEL_EDITS = [_delete(key) for key in ("m", "norm_abs", "status")] + [
    _set("m", True),
    _set("m", "1"),
    _set("norm_abs", 7),
    _set("norm_abs", "seven"),
    _set("status", None),
    _set("witness", [7, 1]),  # bare ints are not schema-legal
    _set("witness", ["7"]),
    _set("witness", ["7", "1", "1"]),
    _set("witness", "7^1"),
] + [edit for text in NON_CANONICAL_DECIMALS for edit in (_set("norm_abs", text), _set("witness", [text, "1"]))]


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
    del bad["levels"][0]["status"]
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(json.dumps(bad))
    assert any("status" in msg for msg in info.value.problems)


def test_parse_accepts_tampered_but_wellformed():
    # structurally fine, mathematically wrong: parse succeeds, verify fails
    data = certificate_to_dict(build_certificate(3, 3))
    data["levels"][2]["witness"] = ["11", "3"]
    cert = certificate_from_json(json.dumps(data))
    assert certificate_problems(cert)
