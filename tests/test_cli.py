"""CLI surface: subcommands, exit codes, JSON stability."""

import json
import math
import os
import sys
import time
from types import SimpleNamespace

import pytest

from wreathcert import CycInt, expected_residue, is_prime, orbit_points, phi_at
from wreathcert.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_INDETERMINATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from wreathcert.certificate import WIEFERICH_NOTE, build_certificate, certificate_to_json
from wreathcert.congruence import MAX_LEVELS
from wreathcert.factoring import MAX_SIEVE_LIMIT


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_norm_congruence_pass(capsys):
    code, out, _ = run_cli(["norm-congruence", "--p", "3", "--max-n", "3"], capsys)
    assert code == EXIT_OK
    assert "residue=7" in out
    assert "overall: PASS" in out


def test_norm_congruence_json_stable(capsys):
    argv = ["norm-congruence", "--p", "5", "--max-n", "2", "--json"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    code, out2, _ = run_cli(argv, capsys)
    assert out1 == out2  # byte-identical for identical flags
    report = json.loads(out1)
    assert report["p"] == 5
    assert report["expected"] == 6
    assert report["items"] == [{"index": 1, "residue": 6}, {"index": 2, "residue": 6}]


def test_norm_congruence_json_matches_library(capsys):
    from dataclasses import asdict

    from wreathcert import norm_congruence_check

    code, out, _ = run_cli(["norm-congruence", "--p", "3", "--max-n", "2", "--json"], capsys)
    assert code == EXIT_OK
    want = json.dumps(asdict(norm_congruence_check(3, 2)), sort_keys=True, indent=2)
    assert out.strip() == want


def test_norm_congruence_rejects_composite_p(capsys):
    code, _, err = run_cli(["norm-congruence", "--p", "4", "--max-n", "2"], capsys)
    assert code == EXIT_USAGE
    assert "not an odd prime" in err
    # one bad value per argument check: each is a usage error naming the value
    for argv, message in [
        (["wieferich", "--check", "x"], "argument --check: 'x' is not an integer"),
        (["wieferich", "--check", "4"], "argument --check: not an odd prime: 4 is not an odd prime"),
        (["structure", "--p", "103", "--n", "2"],
         "argument --p: unusable ring prime: ring arithmetic supports p <= 101, got 103"),
        (["certificate", "--p", "3", "--max-n", "0", "--out", "-"], "argument --max-n: bad value: must be at least 1"),
        (["wieferich", "--scan", "2"], f"argument --scan: bad scan limit: need 3 <= limit <= {MAX_SIEVE_LIMIT}, got 2"),
        (["norm-congruence", "--p", "3", "--max-n", "1.5"], "argument --max-n: '1.5' is not an integer"),
        (["norm-congruence", "--p", "3", "--max-n", "0"],
         f"argument --max-n: bad level count: need 1 <= n_max <= {MAX_LEVELS}, got 0"),
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.endswith(f"wreathcert {argv[0]}: error: {message}\n")


def test_norm_congruence_rejects_zero_levels(capsys):
    code, _, err = run_cli(["norm-congruence", "--p", "3", "--max-n", "0"], capsys)
    assert code == EXIT_USAGE


def test_norm_congruence_rejects_oversized_ring(capsys):
    code, _, err = run_cli(["norm-congruence", "--p", "1093", "--max-n", "1"], capsys)
    assert code == EXIT_USAGE
    assert "101" in err


def test_norm_congruence_deep_orbit_exits_ok(capsys):
    code, out, err = run_cli(["norm-congruence", "--p", "3", "--max-n", "20"], capsys)
    assert code == EXIT_OK
    assert "n=20  residue=7  PASS" in out
    assert out.splitlines()[-1] == "overall: PASS"
    assert err == ""


def test_norm_congruence_rejects_too_many_levels(capsys):
    code, out, err = run_cli(["norm-congruence", "--p", "3", "--max-n", str(MAX_LEVELS + 1)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert str(MAX_LEVELS) in err


@pytest.mark.parametrize("statuses,overall,exit_code", [(["PASS", "FAIL"], "FAIL", EXIT_FAIL)])
def test_norm_congruence_summary_line(monkeypatch, capsys, statuses, overall, exit_code):
    from wreathcert.congruence import CongruenceItem, CongruenceReport

    items = tuple(CongruenceItem(n, 7 if s == "PASS" else 0) for n, s in enumerate(statuses, 1))
    report = CongruenceReport(3, 7, "orbit-norms", None, None, items, passed=False)
    monkeypatch.setattr("wreathcert.cli.norm_congruence_check", lambda p, n: report)
    code, out, _ = run_cli(["norm-congruence", "--p", "3", "--max-n", "2"], capsys)
    assert code == exit_code
    # each item's verdict is read off its residue against the expected 7
    assert out.splitlines()[1:3] == ["  n=1  residue=7  PASS", "  n=2  residue=0  FAIL"]
    assert out.splitlines()[-1] == f"overall: {overall}"


def test_wieferich_check(capsys):
    code, out, _ = run_cli(["wieferich", "--check", "1093"], capsys)
    assert code == EXIT_OK
    assert "true" in out
    code, out, _ = run_cli(["wieferich", "--check", "7"], capsys)
    assert code == EXIT_OK
    assert "false" in out
    assert "15" in out  # 2^6 mod 49


def test_wieferich_scan(capsys):
    code, out, _ = run_cli(["wieferich", "--scan", "4000"], capsys)
    assert code == EXIT_OK
    assert out.split() == ["1093", "3511"]
    code, out, _ = run_cli(["wieferich", "--scan", "1000"], capsys)
    assert code == EXIT_OK
    assert out.strip() == ""
    # argparse rejects the limit before any sieve is allocated
    code, _, err = run_cli(["wieferich", "--scan", str(MAX_SIEVE_LIMIT + 1)], capsys)
    assert code == EXIT_USAGE
    assert str(MAX_SIEVE_LIMIT) in err


def test_wieferich_flags_exclusive(capsys):
    code, _, _ = run_cli(["wieferich", "--check", "3", "--scan", "100"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["wieferich"], capsys)
    assert code == EXIT_USAGE


def test_certificate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, _, err = run_cli(
        ["certificate", "--p", "3", "--max-n", "3", "--out", str(out_path)], capsys
    )
    assert code == EXIT_OK and err == ""
    document = json.loads(out_path.read_text())
    assert document["verdict"] == "MAXIMAL"
    assert document["schema"] == "wreath-cert/1"

    code, out, err = run_cli(["verify", "--in", str(out_path)], capsys)
    assert code == EXIT_OK and err == ""
    assert "verifies" in out


def test_certificate_wieferich_exit(tmp_path, capsys):
    out_path = tmp_path / "w.json"
    code, out, err = run_cli(
        ["certificate", "--p", "1093", "--max-n", "1", "--out", str(out_path)], capsys
    )
    assert code == EXIT_INDETERMINATE
    assert out == f"p=1093 n=1 verdict=INDETERMINATE -> {out_path}\n"
    # the explanation is derived from the checked flag, never read from the file
    assert err == f"note: {WIEFERICH_NOTE}\n"
    assert json.loads(out_path.read_text())["verdict"] == "INDETERMINATE"
    code, out, err = run_cli(["verify", "--in", str(out_path)], capsys)
    assert code == EXIT_OK
    assert out == "certificate verifies: p=1093 n=1 verdict=INDETERMINATE\n"
    assert err == f"note: {WIEFERICH_NOTE}\n"


def test_certificate_seed_is_ignored(tmp_path, capsys):
    # --seed still parses, for scripts that pass it, and changes no byte
    paths = [tmp_path / "seed1.json", tmp_path / "seed2.json"]
    for seed, path in zip(("1", "2"), paths):
        code, _, err = run_cli(["certificate", "--p", "5", "--max-n", "4", "--seed", seed, "--out", str(path)], capsys)
        assert code == EXIT_OK and err == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert run_cli(["certificate", "--p", "5", "--max-n", "1", "--seed", "x", "--out", str(paths[0])], capsys)[0] == EXIT_USAGE
    code, out, _ = run_cli(["certificate", "--help"], capsys)
    assert code == EXIT_OK and "ignored" in out


def test_certificate_rejects_oversized_non_wieferich_p(tmp_path, capsys):
    # 103 is an odd prime but past the ring bound, and not Wieferich,
    # so levels would need degree-102 arithmetic
    code, _, err = run_cli(
        ["certificate", "--p", "103", "--max-n", "1", "--out", str(tmp_path / "c.json")], capsys
    )
    assert code == EXIT_USAGE
    assert "101" in err


def test_certificate_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "cert.json"
    code, _, err = run_cli(
        ["certificate", "--p", "3", "--max-n", "1", "--out", str(target)], capsys
    )
    assert code == EXIT_IO
    assert "cannot write" in err


def test_verify_detects_tampering(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run_cli(["certificate", "--p", "3", "--max-n", "3", "--out", str(out_path)], capsys)
    document = json.loads(out_path.read_text())
    document["levels"][2]["norm_abs"] = str(11**3 * 13 * 37)
    out_path.write_text(json.dumps(document))
    code, _, err = run_cli(["verify", "--in", str(out_path)], capsys)
    assert code == EXIT_FAIL
    assert "verification failed" in err and "level 3" in err


def _field_edits(doc):
    """(path, value) pairs: one false value for each field the writer emits,
    and for each level's m and norm_abs."""
    p, n = doc["p"], doc["n"]
    edits = [
        (("schema",), "wreath-cert/2"),
        (("p",), p + 2),
        (("n",), n + 1),
        (("n",), 0),
        (("wieferich",), not doc["wieferich"]),
        (("group_order_claimed",), str(int(doc["group_order_claimed"]) * p)),
        (("verdict",), "INDETERMINATE" if doc["verdict"] == "MAXIMAL" else "MAXIMAL"),
        (("levels",), doc["levels"][:-1] or [{"m": 1, "norm_abs": str(expected_residue(p))}]),
    ]
    for i, level in enumerate(doc["levels"]):
        edits += [
            (("levels", i, "m"), level["m"] + 1),
            (("levels", i, "norm_abs"), str(int(level["norm_abs"]) + p * p)),  # the same residue mod p^2
        ]
    return edits


def _edited(doc, path, value):
    copy = json.loads(json.dumps(doc))
    *outer, last = path
    target = copy
    for key in outer:
        target = target[key]
    target[last] = value
    return copy


@pytest.mark.parametrize("p,n", [(3, 5), (1093, 1)])
def test_verify_rejects_an_edit_of_any_field(tmp_path, capsys, p, n):
    # a certificate holds only what verify checks: every field is covered by
    # an edit, and every edit is refused as malformed or as false
    doc = json.loads(certificate_to_json(build_certificate(p, n)))
    edits = _field_edits(doc)
    assert {path[0] for path, _ in edits} == set(doc)
    for i, level in enumerate(doc["levels"]):
        assert {path[2] for path, _ in edits if path[:2] == ("levels", i)} == set(level)
    cert_path = tmp_path / "cert.json"
    for path, value in edits:
        cert_path.write_text(json.dumps(_edited(doc, path, value)))
        code, out, _ = run_cli(["verify", "--in", str(cert_path)], capsys)
        assert code in (EXIT_FAIL, EXIT_USAGE) and out == "", (path, value)


@pytest.mark.parametrize("p,n", [(3, 5), (1093, 1)])
def test_verify_ignores_retired_keys(tmp_path, capsys, p, n):
    # note, status, factorization and witness are read by nothing, whatever they say
    text = certificate_to_json(build_certificate(p, n))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text)
    want = run_cli(["verify", "--in", str(cert_path)], capsys)
    assert want[0] == EXIT_OK
    values = [None, 5, "", "WITNESS_FOUND", "certified for every n, including Wieferich p", {"factors": [["2", "99"]]}, [1]]
    values += [["7", "1"], ["11", "2"], ["2", "99"], ["7"], [7, 1], ["-0", " 7"], "7^1"]  # old [q, e] pairs and garbage
    for key in ("note", "status", "factorization", "witness"):
        for value in values:
            doc = json.loads(text)
            for record in [doc, *doc["levels"]]:
                record[key] = value
            cert_path.write_text(json.dumps(doc))
            assert run_cli(["verify", "--in", str(cert_path)], capsys) == want, (key, value)


def test_verify_bad_json(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{]")
    code, _, err = run_cli(["verify", "--in", str(bad)], capsys)
    assert code == EXIT_USAGE
    assert "malformed" in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 200_000 + b"]" * 200_000, b"\xff\xfe", b'{"p": "\xff"}'],
    ids=["deep nesting", "utf-16 bom", "invalid utf-8"],
)
def test_verify_unreadable_document_is_malformed(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run_cli(["verify", "--in", str(bad)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("malformed certificate: not valid JSON")


def _repeat_level_two(doc):
    doc.update(n=30, levels=[doc["levels"][1]] * 30)


# each edit asks verify for work far beyond what the file honestly holds:
# a power or an orbit walk sized by numbers taken from the file
HOSTILE_EDITS = {
    "n": lambda doc: doc.update(n=40),
    "norm digits": lambda doc: doc["levels"][0].update(norm_abs="7" * 4000),
    "level copies": _repeat_level_two,
    "ring prime": lambda doc: doc.update(p=103),
}


@pytest.mark.parametrize("edit", sorted(HOSTILE_EDITS))
def test_verify_rejects_hostile_sizes_quickly(tmp_path, capsys, edit):
    out_path = tmp_path / "cert.json"
    assert run_cli(["certificate", "--p", "3", "--max-n", "2", "--out", str(out_path)], capsys)[0] == EXIT_OK
    document = json.loads(out_path.read_text())
    HOSTILE_EDITS[edit](document)
    out_path.write_text(json.dumps(document))
    started = time.perf_counter()
    code, _, err = run_cli(["verify", "--in", str(out_path)], capsys)
    assert time.perf_counter() - started < 1
    assert code == EXIT_FAIL
    assert "verification failed" in err


def test_verify_rejects_false_level_past_honest_ones_quickly(tmp_path, capsys):
    # at p = 61 the exact norm of phi^3(1) has 31,859 digits and takes seconds;
    # two honest levels must not buy that much work for a false third (the
    # group order 61^3783 is past the int-str limit, so it is left wrong)
    norms = [x.norm() for x in orbit_points(61, CycInt.one(61), 2)] + [expected_residue(61) + 61**2]
    levels = [{"m": m, "norm_abs": str(v)} for m, v in enumerate(norms, 1)]
    document = {
        "schema": "wreath-cert/1",
        "p": 61,
        "n": 3,
        "wieferich": False,
        "levels": levels,
        "group_order_claimed": "1",
        "verdict": "INDETERMINATE",
    }
    out_path = tmp_path / "cert.json"
    out_path.write_text(json.dumps(document))
    started = time.perf_counter()
    code, _, err = run_cli(["verify", "--in", str(out_path)], capsys)
    assert time.perf_counter() - started < 1
    assert code == EXIT_FAIL
    assert "verification failed: level 3: norm_abs is not the norm of phi^3(1)" in err


def test_verify_rejects_huge_p_quickly(tmp_path, capsys):
    # an odd 13,000-bit p with no prime factor below 2000 would cost seconds
    # in a primality test; it is refused by size first, and not echoed
    small = math.prod(q for q in range(3, 2000, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2)))
    p = 2**12999 + 1
    while math.gcd(p, small) != 1:
        p += 2
    out_path = tmp_path / "cert.json"
    assert run_cli(["certificate", "--p", "3", "--max-n", "2", "--out", str(out_path)], capsys)[0] == EXIT_OK
    document = json.loads(out_path.read_text())
    document["p"] = p
    out_path.write_text(json.dumps(document))
    started = time.perf_counter()
    code, _, err = run_cli(["verify", "--in", str(out_path)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_FAIL
    assert "13000-bit" in err and len(err) < 500


def test_wieferich_check_refuses_uncertain_primes(capsys):
    p = 10**29 + 1
    while not is_prime(p):
        p += 2
    code, _, err = run_cli(["wieferich", "--check", str(p)], capsys)
    assert code == EXIT_USAGE
    assert "deterministic primality range" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str digit limit")
def test_verify_oversized_integer_is_malformed(tmp_path, capsys):
    bad = tmp_path / "huge-p.json"
    bad.write_text('{"p": 1' + "0" * 4999 + "}")
    code, _, err = run_cli(["verify", "--in", str(bad)], capsys)
    assert code == EXIT_USAGE
    assert "malformed certificate" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_certificate_past_int_str_limit_exits_cap(monkeypatch, tmp_path, capsys, set_int_str_limit):
    # the backstop when writing the file meets an integer past the limit:
    # the group order 1093^1094 has 3325 decimal digits, and the check made
    # before any work is switched off so that the order reaches the writer
    monkeypatch.setattr("wreathcert.cli.require_printable_order", lambda p, n: None)
    out_path = tmp_path / "w.json"
    set_int_str_limit(640)
    code, _, err = run_cli(["certificate", "--p", "1093", "--max-n", "2", "--out", str(out_path)], capsys)
    assert code == EXIT_CAP
    assert "size cap exceeded" in err
    assert not out_path.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
@pytest.mark.parametrize("p,n", [(1093, 4), (3, 9)])
def test_certificate_order_past_int_str_limit_exits_cap_at_once(tmp_path, capsys, set_int_str_limit, p, n):
    # 1093^((1093^4 - 1)/1092) has about 4 * 10^9 digits and 3^9841 has 4696:
    # refused before the order, an orbit point or a factorization is formed
    out_path = tmp_path / "c.json"
    set_int_str_limit(4300)
    started = time.perf_counter()
    code, _, err = run_cli(["certificate", "--p", str(p), "--max-n", str(n), "--out", str(out_path)], capsys)
    assert time.perf_counter() - started < 0.5
    code2, _, _ = run_cli(["certificate", "--p", "1093", "--max-n", "2", "--out", str(tmp_path / "w.json")], capsys)
    assert code == EXIT_CAP
    assert err == f"size cap exceeded: the group order {p}^(({p}^{n} - 1)/{p - 1}) has more than 4300 decimal digits\n"
    assert not out_path.exists()
    assert code2 == EXIT_INDETERMINATE  # 1093^1094 has 3325 digits


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_certificate_order_past_the_bit_cap_exits_cap_without_a_digit_limit(tmp_path, capsys, set_int_str_limit):
    # with no int-str limit CPython's default of 4300 digits still refuses
    # (1093, 3), whose order has about 3.6 * 10^6 digits, and (1093, 4),
    # past the library's own bit cap, before either order is formed
    set_int_str_limit(0)
    for n in (3, 4):
        out_path = tmp_path / f"c{n}.json"
        started = time.perf_counter()
        code, _, err = run_cli(["certificate", "--p", "1093", "--max-n", str(n), "--out", str(out_path)], capsys)
        assert time.perf_counter() - started < 0.5
        assert code == EXIT_CAP
        assert err == f"size cap exceeded: the group order 1093^((1093^{n} - 1)/1092) has more than 4300 decimal digits\n"
        assert not out_path.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
@pytest.mark.parametrize(
    "argv,error",
    [
        (["--p", "103", "--max-n", "5"], "ring arithmetic supports p <= 101, got 103"),
    ],
    ids=["ring prime"],
)
def test_certificate_usage_error_outranks_the_size_cap(tmp_path, capsys, set_int_str_limit, argv, error):
    # the group order is past the limit, but the input is checked first
    out_path = tmp_path / "c.json"
    set_int_str_limit(4300)
    code, _, err = run_cli(["certificate", *argv, "--out", str(out_path)], capsys)
    assert code == EXIT_USAGE
    assert err == f"error: {error}\n"
    assert not out_path.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_certificate_norm_past_int_str_limit_exits_cap_before_factoring(tmp_path, capsys, set_int_str_limit):
    # the group order 17^307 has 378 digits and passes; the level-3 norm has
    # 684 and is refused
    out_path = tmp_path / "c.json"
    set_int_str_limit(640)
    started = time.perf_counter()
    code, _, err = run_cli(["certificate", "--p", "17", "--max-n", "3", "--out", str(out_path)], capsys)
    assert time.perf_counter() - started < 0.5
    assert code == EXIT_CAP
    assert err == "size cap exceeded: the norm of level 3 has more than 640 decimal digits\n"
    assert not out_path.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
def test_certificate_forms_every_norm_before_any_level_test(monkeypatch, tmp_path, capsys, set_int_str_limit):
    # the level-3 norm at (37, 3) is past 4300 digits; no level is decided
    # before every norm is formed
    def no_test(p, norm):
        raise AssertionError(f"level test on a {norm.bit_length()}-bit norm")

    monkeypatch.setattr("wreathcert.certificate._level_holds", no_test)
    out_path = tmp_path / "c.json"
    set_int_str_limit(4300)
    started = time.perf_counter()
    code, _, err = run_cli(["certificate", "--p", "37", "--max-n", "3", "--out", str(out_path)], capsys)
    assert time.perf_counter() - started < 3
    assert code == EXIT_CAP
    assert err == "size cap exceeded: the norm of level 3 has more than 4300 decimal digits\n"
    assert not out_path.exists()


def test_certificate_coefficient_cap_exits_cap(monkeypatch, tmp_path, capsys):
    out_path = tmp_path / "c.json"
    monkeypatch.setattr("wreathcert.dynamics.MAX_COEFF_BITS", 16)
    code, _, err = run_cli(["certificate", "--p", "3", "--max-n", "3", "--out", str(out_path)], capsys)
    assert code == EXIT_CAP
    assert "size cap exceeded" in err
    assert "16-bit cap" in err
    assert not out_path.exists()


def test_verify_input_is_bounded(monkeypatch, tmp_path, capsys):
    import wreathcert.cli as cli

    if os.path.exists("/dev/zero"):
        started = time.perf_counter()
        code, _, err = run_cli(["verify", "--in", "/dev/zero"], capsys)
        assert time.perf_counter() - started < 1
        assert code == EXIT_USAGE
        assert err == f"malformed certificate: longer than {cli._MAX_CERTIFICATE_BYTES} bytes\n"
    path = tmp_path / "cert.json"
    assert run_cli(["certificate", "--p", "3", "--max-n", "2", "--out", str(path)], capsys)[0] == EXIT_OK
    honest = path.read_bytes()
    # trailing whitespace is valid JSON, so only the bound refuses a file one
    # byte over it; the second bound is past verify's first read
    for bound in (len(honest), 2 * cli._FIRST_READ_BYTES):
        monkeypatch.setattr(cli, "_MAX_CERTIFICATE_BYTES", bound)
        path.write_bytes(honest.ljust(bound))
        assert run_cli(["verify", "--in", str(path)], capsys)[0] == EXIT_OK
        path.write_bytes(honest.ljust(bound + 1))
        code, _, err = run_cli(["verify", "--in", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err == f"malformed certificate: longer than {bound} bytes\n"


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["verify", "--in", str(tmp_path / "absent.json")], capsys)
    assert code == EXIT_IO


def test_structure_pass(capsys):
    code, out, _ = run_cli(["structure", "--p", "3", "--n", "2"], capsys)
    assert code == EXIT_OK
    assert out.count("PASS") == 3
    code, _, _ = run_cli(["structure", "--p", "5", "--n", "2"], capsys)
    assert code == EXIT_OK


STRUCTURE_STDOUT = {
    (3, 6): (
        "structure checks for p=3, n=6\n"
        "  eisenstein         PASS\n"
        "  fixed_point        PASS\n"
        "  orbit_congruence   PASS\n"
    ),
    (5, 3): (
        "structure checks for p=5, n=3\n"
        "  eisenstein         PASS\n"
        "  fixed_point        PASS\n"
        "  orbit_congruence   PASS\n"
    ),
    (7, 2): (
        "structure checks for p=7, n=2\n"
        "  eisenstein         PASS\n"
        "  fixed_point        PASS\n"
        "  orbit_congruence   PASS\n"
    ),
    (11, 2): (
        "structure checks for p=11, n=2\n"
        "  eisenstein         PASS\n"
        "  fixed_point        PASS\n"
        "  orbit_congruence   PASS\n"
    ),
    (13, 2): (
        "structure checks for p=13, n=2\n"
        "  eisenstein         PASS\n"
        "  fixed_point        PASS\n"
        "  orbit_congruence   PASS\n"
    ),
}


@pytest.mark.parametrize("p,n", STRUCTURE_STDOUT)
def test_structure_stdout_is_pinned(capsys, p, n):
    code, out, err = run_cli(["structure", "--p", str(p), "--n", str(n)], capsys)
    assert code == EXIT_OK and err == ""
    assert out == STRUCTURE_STDOUT[p, n]


def test_structure_has_no_cap(capsys):
    # the checks evaluate phi_at at three points and read p - 1 binomials,
    # so any n costs the same
    for p, n in [(3, 9), (3, 1000), (101, 10**6)]:
        started = time.perf_counter()
        code, out, err = run_cli(["structure", "--p", str(p), "--n", str(n)], capsys)
        assert time.perf_counter() - started < 1
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[0] == f"structure checks for p={p}, n={n}"
        assert out.count("PASS") == 3


def test_structure_refuted_exits_fail(monkeypatch, capsys):
    def bad_comb(n, k):
        return math.comb(n, k) + (k == 1)  # z^1 coefficient 6, not divisible by 5

    assert bad_comb(5, 1) % 5
    monkeypatch.setattr("wreathcert.dynamics.math", SimpleNamespace(comb=bad_comb))
    code, out, _ = run_cli(["structure", "--p", "5", "--n", "2"], capsys)
    assert code == EXIT_FAIL
    assert f"  {'eisenstein':<18} REFUTED" in out
    assert "coefficient of z^1 is not divisible by 5" in out
    assert f"  {'fixed_point':<18} PASS" in out

    def bad_phi_at(x, modulus=None):
        return phi_at(x, modulus) + 1  # phi(0) = 2 - zeta, phi(1) = 3 - zeta

    assert not bad_phi_at(CycInt.one(5)).congruent_mod_pi(1)
    monkeypatch.setattr("wreathcert.dynamics.phi_at", bad_phi_at)
    code, out, _ = run_cli(["structure", "--p", "5", "--n", "2"], capsys)
    assert code == EXIT_FAIL
    assert f"  {'orbit_congruence':<18} REFUTED" in out
    assert "phi(1) is not congruent to 1 mod (1 - zeta)" in out


def test_threads_flag_removed(tmp_path, capsys):
    # options the tool does not have are usage errors that write nothing
    out_path = tmp_path / "c.json"
    for argv in (
        ["norm-congruence", "--threads", "2", "--p", "3", "--max-n", "1"],
        ["certificate", "--p", "1093", "--max-n", "1", "--trial-bound", "100000", "--out", str(out_path)],
    ):
        code, _, _ = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert not out_path.exists()


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == EXIT_USAGE


def test_main_reuses_one_parser_without_leaking_state(monkeypatch, tmp_path, capsys):
    # main builds its parser once per process; no flag, default or stream of
    # one call may reach the next
    assert build_parser() is build_parser()

    norm = ["norm-congruence", "--p", "3", "--max-n", "4"]
    code, out, _ = run_cli(norm + ["--json"], capsys)
    assert code == EXIT_OK and json.loads(out)["p"] == 3
    code, out, _ = run_cli(norm, capsys)
    assert code == EXIT_OK
    assert out.startswith("norm congruence for p=3: expected residue 7 mod 9\n")

    cert = ["certificate", "--p", "3", "--max-n", "3", "--out"]
    seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
    assert run_cli(cert + [str(seeded), "--seed", "5"], capsys)[0] == EXIT_OK
    assert run_cli(cert + [str(unseeded)], capsys)[0] == EXIT_OK
    assert unseeded.read_text() == seeded.read_text() == certificate_to_json(build_certificate(3, 3))

    for argv, message in [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["certificate", "--p", "3", "--max-n", "3"], "the following arguments are required: --out"),
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: wreathcert") and message in err

    monkeypatch.setattr(sys, "argv", ["wreathcert", "wieferich", "--check", "7"])
    code, out, err = run_cli(None, capsys)
    assert code == EXIT_OK and err == ""
    assert out == "wieferich(7) = false\n2^(p-1) mod p^2 = 15\n"
