"""Batch verification front end.

Every check is a subcommand with reproducible, machine-readable output;
JSON is the source of truth and the human-readable text is a rendering
of the same report object.

Exit codes: 0 success/PASS, 1 a check ran and failed, 2 usage error or
a malformed certificate file, 3 certificate verdict INDETERMINATE, 4 I/O
error, 5 size cap exceeded (certificate only: the orbit's coefficient
cap, the group-order bit cap, or an order or norm past Python's int-str
digit limit).

``main(argv)`` may be called repeatedly in one process: the parser is
built once, on the first call, and each call parses into a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .certificate import (
    MAXIMAL,
    WIEFERICH_NOTE,
    CertificateFormatError,
    build_certificate,
    certificate_from_json,
    certificate_problems,
    certificate_to_json,
    require_certificate_input,
    require_printable_order,
)
from .congruence import norm_congruence_check, require_max_levels, require_scan_limit, wieferich_scan
from .cyclotomic import require_odd_prime, require_ring_prime
from .dynamics import eisenstein_check, fixed_point_check, orbit_congruence_check
from .errors import SizeLimitError
from .factoring import FactorConfig

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_IO = 4
EXIT_CAP = 5

PASS = "PASS"
FAIL = "FAIL"

# verify reads at most this many bytes, plus one to tell a longer input.  At
# the default int-str digit limit an honest certificate (one order and at most
# 8 levels of norms of up to 4300 digits) is under about 50 KB, so the first
# read, small enough that malloc serves it without an mmap, takes it whole.
_MAX_CERTIFICATE_BYTES = 1 << 20
_FIRST_READ_BYTES = 1 << 16


def _int_type(validate, describe: str):
    """An argparse type: an integer that validate accepts, else a usage error saying why."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        try:
            validate(value)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"{describe}: {exc}")
        return value

    return parse


def _at_least_one(value: int) -> None:
    if value < 1:
        raise ValueError("must be at least 1")


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _explain_wieferich(cert) -> None:
    """Say on stderr why a certificate whose checked Wieferich flag is set cannot be MAXIMAL."""
    if cert.wieferich:
        print(f"note: {WIEFERICH_NOTE}", file=sys.stderr)


def cmd_norm_congruence(args) -> int:
    report = norm_congruence_check(args.p, args.max_n)
    if args.json:
        _emit_json(asdict(report))
    else:
        print(f"norm congruence for p={report.p}: expected residue {report.expected} mod {report.p ** 2}")
        for item in report.items:
            print(f"  n={item.index}  residue={item.residue}  {PASS if item.residue == report.expected else FAIL}")
        print(f"overall: {PASS if report.passed else FAIL}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_wieferich(args) -> int:
    if args.check is not None:
        p = args.check
        residue = pow(2, p - 1, p * p)
        print(f"wieferich({p}) = {'true' if residue == 1 else 'false'}")
        print(f"2^(p-1) mod p^2 = {residue}")
        return EXIT_OK
    found = wieferich_scan(args.scan)
    for p in found:
        print(p)
    if not found:
        print(f"no wieferich primes up to {args.scan}", file=sys.stderr)
    return EXIT_OK


def cmd_certificate(args) -> int:
    cfg = FactorConfig(rho_seed=args.seed)
    try:
        require_certificate_input(args.p, args.max_n)
        require_printable_order(args.p, args.max_n)
        cert = build_certificate(args.p, args.max_n, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    try:
        text = certificate_to_json(cert)
    except ValueError as exc:  # an integer past Python's int-str digit limit
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"p={cert.p} n={cert.n} verdict={cert.verdict} -> {args.out}")
    _explain_wieferich(cert)
    return EXIT_OK if cert.verdict == MAXIMAL else EXIT_INDETERMINATE


def cmd_verify(args) -> int:
    try:
        with open(args.infile, "rb") as handle:
            raw = handle.read(_FIRST_READ_BYTES)
            if len(raw) == _FIRST_READ_BYTES:
                raw += handle.read(_MAX_CERTIFICATE_BYTES + 1 - len(raw))
    except OSError as exc:
        print(f"cannot read {args.infile}: {exc}", file=sys.stderr)
        return EXIT_IO
    if len(raw) > _MAX_CERTIFICATE_BYTES:
        print(f"malformed certificate: longer than {_MAX_CERTIFICATE_BYTES} bytes", file=sys.stderr)
        return EXIT_USAGE
    try:
        cert = certificate_from_json(raw)
    except CertificateFormatError as exc:
        for problem in exc.problems:
            print(f"malformed certificate: {problem}", file=sys.stderr)
        return EXIT_USAGE
    problems = certificate_problems(cert)
    if problems:
        for problem in problems:
            print(f"verification failed: {problem}", file=sys.stderr)
        return EXIT_FAIL
    print(f"certificate verifies: p={cert.p} n={cert.n} verdict={cert.verdict}")
    _explain_wieferich(cert)
    return EXIT_OK


def cmd_structure(args) -> int:
    reports = [eisenstein_check(args.p), fixed_point_check(args.p), orbit_congruence_check(args.p)]
    print(f"structure checks for p={args.p}, n={args.n}")
    for report in reports:
        print(f"  {report.check:<18} {report.status}")
        for failure in report.failures:
            print(f"    {failure}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathcert",
        description="verify orbit congruences and build maximality certificates over Z[zeta_p]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser(
        "norm-congruence",
        help="check norm(phi^n(1)) = 2^p - 1 mod p^2 along the orbit",
    )
    p_norm.add_argument("--p", type=_int_type(require_ring_prime, "unusable ring prime"), required=True)
    p_norm.add_argument("--max-n", type=_int_type(require_max_levels, "bad level count"), required=True)
    p_norm.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_norm.set_defaults(func=cmd_norm_congruence)

    p_wief = sub.add_parser("wieferich", help="check or scan for Wieferich primes")
    group = p_wief.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", type=_int_type(require_odd_prime, "not an odd prime"), metavar="P")
    group.add_argument("--scan", type=_int_type(require_scan_limit, "bad scan limit"), metavar="LIMIT")
    p_wief.set_defaults(func=cmd_wieferich)

    p_cert = sub.add_parser(
        "certificate",
        help="build a maximality certificate and write it as JSON",
    )
    p_cert.add_argument("--p", type=_int_type(require_odd_prime, "not an odd prime"), required=True)
    p_cert.add_argument("--max-n", type=_int_type(_at_least_one, "bad value"), required=True)
    p_cert.add_argument("--seed", type=int, default=FactorConfig.rho_seed)
    p_cert.add_argument("--out", required=True, metavar="FILE")
    p_cert.set_defaults(func=cmd_certificate)

    p_verify = sub.add_parser("verify", help="re-check a serialized certificate")
    p_verify.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_verify.set_defaults(func=cmd_verify)

    p_struct = sub.add_parser(
        "structure",
        help="run the Eisenstein, fixed-point and orbit-congruence checks",
    )
    p_struct.add_argument("--p", type=_int_type(require_ring_prime, "unusable ring prime"), required=True)
    p_struct.add_argument("--n", type=_int_type(_at_least_one, "bad value"), required=True)
    p_struct.set_defaults(func=cmd_structure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
