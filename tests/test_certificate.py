"""Certificate assembly, independent re-verification, serialization."""

import dataclasses
import json

import pytest

import oracles

from wreathcert import (
    INDETERMINATE,
    MAXIMAL,
    SCHEMA,
    WITNESS_FOUND,
    CertificateFormatError,
    FactorConfig,
    Factorization,
    build_certificate,
    certificate_from_json,
    certificate_problems,
    certificate_to_json,
    group_order,
    level_witness,
    verify_certificate,
)
from wreathcert.certificate import certificate_to_dict
from wreathcert.factoring import PRIME_PENDING, UNIT

P3_WITNESSES = [(7, 1), (43, 1), (11, 2), (1429, 1), (139, 1)]


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


def test_level_witness_p3_first_levels():
    rec = level_witness(3, 1)
    assert rec.norm_abs == 7
    assert rec.norm_mod_p2 == 7
    assert rec.witness == (7, 1)
    assert rec.status == WITNESS_FOUND
    assert rec.unit_check and rec.p_coprime_check
    assert level_witness(3, 2).witness == (43, 1)
    rec3 = level_witness(3, 3)
    assert rec3.witness == (11, 2)  # exponent 2 is the point: 2 != 0 mod 3
    assert rec3.norm_abs == 58201
    assert rec3.factorization.factors == ((11, 2), (13, 1), (37, 1))


def test_level_witness_deep_levels():
    rec4 = level_witness(3, 4)
    assert rec4.witness == (1429, 1)
    assert rec4.norm_abs == 200417348396653
    rec5 = level_witness(3, 5)
    assert rec5.witness == (139, 1)
    # the remaining cofactor is a 136-bit probable prime; the witness
    # search must not depend on certifying it
    assert rec5.factorization.cofactor_status == PRIME_PENDING
    assert rec5.factorization.cofactor == 57914989804920137617540392131905422428713
    assert rec5.status == WITNESS_FOUND


def test_build_certificate_p3():
    cert = build_certificate(3, 3)
    assert cert.verdict == MAXIMAL
    assert not cert.wieferich
    assert [rec.witness for rec in cert.levels] == P3_WITNESSES[:3]
    assert cert.group_order_claimed == group_order(3, 3)
    assert verify_certificate(cert)


def test_build_certificate_p5():
    cert = build_certificate(5, 1)
    assert cert.verdict == MAXIMAL
    assert cert.levels[0].witness == (31, 1)  # 2^5 - 1 is prime
    assert verify_certificate(cert)


def test_build_certificate_wieferich():
    cert = build_certificate(1093, 2)
    assert cert.wieferich
    assert cert.verdict == INDETERMINATE
    assert cert.levels == ()
    assert cert.note  # explanatory note travels with the verdict
    assert cert.group_order_claimed == 1093 ** (1093 + 1)
    assert verify_certificate(cert)


def test_monotone_consistency():
    cfg = FactorConfig()
    small = build_certificate(3, 2, cfg)
    big = build_certificate(3, 4, cfg)
    assert big.levels[:2] == small.levels


def test_levels_independent_entry_point():
    cert = build_certificate(3, 2)
    assert level_witness(3, 1) == cert.levels[0]
    assert level_witness(3, 2) == cert.levels[1]


def test_size_cap_propagates_as_exception():
    # distinct from an INDETERMINATE record: the level fails loudly
    from wreathcert import SizeLimitError

    with pytest.raises(SizeLimitError):
        level_witness(3, 3, max_coeff_bits=16)
    with pytest.raises(SizeLimitError):
        build_certificate(3, 3, max_coeff_bits=16)


# -- tampering ------------------------------------------------------------


def tamper_level(cert, index, **changes):
    levels = list(cert.levels)
    levels[index] = dataclasses.replace(levels[index], **changes)
    return dataclasses.replace(cert, levels=tuple(levels))


def test_verify_rejects_tampered_witness_exponent():
    cert = build_certificate(3, 3)
    bad = tamper_level(cert, 2, witness=(11, 3))  # tampered 2 -> 3
    assert not verify_certificate(bad)


def test_verify_rejects_pth_power_exponent_rule():
    # a witness exponent divisible by p certifies nothing even when the
    # division is exact: synthetic record with 7^3 exactly dividing
    cert = build_certificate(3, 1)
    bad = tamper_level(
        cert,
        0,
        norm_abs=343,
        norm_mod_p2=343 % 9,
        factorization=Factorization(343, ((7, 3),), 1, UNIT),
        witness=(7, 3),
    )
    problems = certificate_problems(bad)
    assert any("divisible by p" in msg for msg in problems)


def test_verify_rejects_wrong_group_order():
    cert = build_certificate(3, 2)
    bad = dataclasses.replace(cert, group_order_claimed=cert.group_order_claimed * 3)
    assert not verify_certificate(bad)


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
    bad = tamper_level(cert, 0, norm_mod_p2=8)
    assert not verify_certificate(bad)


def test_verify_rejects_flipped_wieferich_flag():
    cert = build_certificate(3, 2)
    bad = dataclasses.replace(cert, wieferich=True)
    assert not verify_certificate(bad)


def test_verify_rejects_missing_level():
    cert = build_certificate(3, 3)
    bad = dataclasses.replace(cert, levels=cert.levels[:2])
    problems = certificate_problems(bad)
    assert any("levels" in msg for msg in problems)


def test_verify_rejects_inconsistent_verdict():
    cert = build_certificate(3, 2)
    bad = tamper_level(cert, 1, witness=None, status=INDETERMINATE)
    problems = certificate_problems(bad)
    assert any("verdict" in msg for msg in problems)


def test_verify_rejects_broken_factorization():
    cert = build_certificate(3, 1)
    wrong = Factorization(7, ((7, 2),), 1, UNIT)
    bad = tamper_level(cert, 0, factorization=wrong)
    problems = certificate_problems(bad)
    assert any("reconstruct" in msg for msg in problems)


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
    assert level["norm_abs"] == "7"
    assert level["witness"] == ["7", "1"]
    assert level["factorization"]["factors"] == [["7", "1"]]
    assert level["factorization"]["cofactor"] == "1"


def test_parse_rejects_bad_documents():
    with pytest.raises(CertificateFormatError):
        certificate_from_json("not json")
    with pytest.raises(CertificateFormatError):
        certificate_from_json("[1, 2, 3]")
    good = certificate_to_dict(build_certificate(3, 1))

    bad = dict(good, schema="wreath-cert/9")
    with pytest.raises(CertificateFormatError) as info:
        certificate_from_json(json.dumps(bad))
    assert any("schema" in msg for msg in info.value.problems)

    bad = json.loads(json.dumps(good))
    bad["levels"][0]["norm_abs"] = "seven"
    with pytest.raises(CertificateFormatError):
        certificate_from_json(json.dumps(bad))

    bad = json.loads(json.dumps(good))
    bad["levels"][0]["witness"] = [7, 1]  # bare ints are not schema-legal
    with pytest.raises(CertificateFormatError):
        certificate_from_json(json.dumps(bad))

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
    assert not verify_certificate(cert)
