"""The benchmark's workloads: the ops of one pass, their inputs and checks.

Every op drives wreathcert the way a user does: CLI ops call
``wreathcert.cli.main(argv)`` in-process and library ops call the
public function.  The functions are looked up on their modules at call
time, so the tracer's wrappers see every call.  Inputs come from the
benchmark seed only; the program sees nothing but argv and arguments.

An op fails when it returns a wrong exit code, verdict or residue, lets
an exception escape, or runs past the per-op timeout.

Known-defect probes are ops whose right output the program does not
give yet.  They run once per run, after the timed ops of the first
pass, untimed and outside the count of failed ops, and every result
reports whether each defect is still present: cert-factor rebuilds
the certificate at (1093, 3) through the CLI, and feeds `verify` one
self-consistent forgery per honest certificate, which it should
reject and does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# cert-factor: honest points, the Wieferich prime 1093, one tampered
# certificate per honest point
CERT_POINTS = ((3, 6), (5, 4), (7, 3), (11, 2), (13, 2))
WIEFERICH_POINT = (1093, 2)
# The CLI cannot write the certificate at (1093, 3): its group order has
# more decimal digits than Python's int-to-str limit allows, so
# `certificate` raises ValueError.  A pass builds it through the library
# instead and checks the verdict and the group order, which keeps the
# 12-million-bit power in the timed work; the failing CLI call runs as a
# known-defect probe.
WIEFERICH_LIBRARY_POINT = (1093, 3)
# Primes for a cheap check of a huge group order: order mod q against pow().
ORDER_CHECK_MODULI = (2**61 - 1, 2**89 - 1, 1_000_000_007)
# The one point whose witness only rho finds.  Its rho run takes from 1.4 to
# 7.1 s depending on the rho seed, so it keeps the CLI's default seed and the
# pass time does not depend on rho luck; every other point takes the
# benchmark seed.
UNSEEDED_RHO_POINTS = ((7, 3),)
# Each verify op calls `verify` this many times, for enough verify_ms samples.
VERIFY_CALLS = 8
# orbit-norm
NORM_POINTS = ((3, 12), (5, 7), (7, 5), (11, 4), (13, 3))
# lift-wide: (p, trials) of general_congruence_check, plus the wieferich subcommand
LIFT_TRIALS = ((3, 2000), (5, 1000), (7, 500), (11, 200), (13, 100), (31, 10), (61, 2))
LIFT_COEFF_BOUND = 1000
WIEFERICH_SCAN_LIMIT = 1_000_000
WIEFERICH_PRIMES = ("1093", "3511")
# structure
STRUCTURE_POINTS = ((3, 6), (5, 3), (7, 2), (11, 2), (13, 2))
# Small honest certificates that the workloads without a certificate op
# verify, so verify_ms is measured on every workload.  They are built
# during set-up.
PROBE_POINTS = ((3, 4), (5, 3), (7, 2))

WORKLOADS = ("cert-factor", "orbit-norm", "lift-wide", "structure")


class OpTimeout(BaseException):
    """Raised by the timer signal inside an op that ran too long.

    A BaseException, so no handler inside the program swallows it.
    """


@dataclass
class Outcome:
    rc: int | None = None
    out: str = ""
    err: str = ""
    value: object = None
    error: str | None = None  # an exception that escaped, or a timeout


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]  # the timed part
    check: Callable[[Outcome], str | None]  # None when the output is right
    prepare: Callable[[], None] | None = None  # untimed; raising fails the op
    verify: bool = False  # `verify` calls, each timed into verify_ms
    calls: int = 1  # times `run` is made; the op fails if any call fails


def cli_op(cli, argv: list[str]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        outcome = Outcome()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                outcome.rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                outcome.rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"[:300]
        outcome.out, outcome.err = out.getvalue(), err.getvalue()
        return outcome

    return run


def expect(rc: int, needle: str | None = None) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if o.rc != rc:
            return f"exit {o.rc}, expected {rc}"
        if needle is not None and needle not in o.out:
            return f"output lacks {needle!r}"
        return None

    return check


def expected_residue(p: int) -> int:
    """(2^p - 1) mod p^2, computed here rather than by the program."""
    return (2**p - 1) % (p * p)


def check_norm_report(p: int, n: int) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        try:
            items = json.loads(o.out)["items"]
            residues = [item["residue"] for item in items]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        want = expected_residue(p)
        if residues != [want] * n:
            return f"residues {residues}, expected {n} x {want}"
        return None

    return check


def check_lift(p: int, trials: int) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        report = o.value
        want = expected_residue(p)
        residues = [item.residue for item in report.items]
        if residues != [want] * trials or not report.passed:
            return f"lift residues differ from {want} or report not passed"
        return None

    return check


def check_scan(o: Outcome) -> str | None:
    if o.rc != 0:
        return f"exit {o.rc}, expected 0"
    if tuple(o.out.split()) != WIEFERICH_PRIMES:
        return f"scan printed {o.out.split()}, expected {list(WIEFERICH_PRIMES)}"
    return None


def check_wieferich_certificate(p: int, n: int) -> Callable[[Outcome], str | None]:
    """A Wieferich certificate: no levels, INDETERMINATE, the right group order."""

    def check(o: Outcome) -> str | None:
        cert = o.value
        if not cert.wieferich or cert.levels or cert.verdict != "INDETERMINATE":
            return f"wieferich={cert.wieferich}, {len(cert.levels)} levels, verdict {cert.verdict}"
        exponent = (p**n - 1) // (p - 1)
        if any(cert.group_order_claimed % q != pow(p, exponent, q) for q in ORDER_CHECK_MODULI):
            return f"group order is not {p}^{exponent}"
        return None

    return check


def _is_small_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _seeded_level(data: dict, seed: int, kind: str) -> dict:
    rng = random.Random(f"{kind}:{seed}:{data['p']}:{data['n']}")
    return data["levels"][rng.randrange(len(data["levels"]))]


def tamper(text: str, seed: int) -> tuple[str, int]:
    """Rewrite one level's norm of a certificate, and nothing else.

    The seeded level's norm grows by a multiple of p^2, so its residue
    still passes the congruence check, but the factorization and the
    witness no longer fit it and `verify` must reject the certificate.
    Returns the tampered JSON and the level rewritten.
    """
    data = json.loads(text)
    level = _seeded_level(data, seed, "tamper")
    p2 = data["p"] ** 2
    level["norm_abs"] = str(int(level["norm_abs"]) + p2 * random.Random(f"tamper-k:{seed}").randint(1, 1000))
    return json.dumps(data, sort_keys=True, indent=2) + "\n", level["m"]


def forge(text: str, seed: int) -> tuple[str, int]:
    """Rewrite one level of a certificate into a false but self-consistent one.

    The seeded level's norm becomes a different prime with the same
    residue mod p^2, listed as its own complete factorization and used
    as its own witness.  Returns the forged JSON and the level rewritten.
    """
    data = json.loads(text)
    p = data["p"]
    level = _seeded_level(data, seed, "forge")
    original = int(level["norm_abs"])
    p2 = p * p
    residue = original % p2
    q = residue
    while q == original or not _is_small_prime(q):
        q += p2
    level.update(
        norm_abs=str(q),
        norm_mod_p2=str(residue),
        factorization={"factors": [[str(q), "1"]], "cofactor": "1", "cofactor_status": "UNIT"},
        witness=[str(q), "1"],
        unit_check=True,
        p_coprime_check=True,
        status="WITNESS_FOUND",
    )
    return json.dumps(data, sort_keys=True, indent=2) + "\n", level["m"]


class Workload:
    """The ops of one pass of a named workload, for one seed.

    ``workdir`` holds the certificate files; constructing a workload
    for a name without certificate ops builds the verify probes there.
    ``defect_probes`` are the known-defect probes, run after ``ops``.
    """

    def __init__(self, name: str, seed: int, workdir: Path, wreathcert):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.seed, self.workdir = seed, workdir
        self.cli, self.congruence, self.certificate = wreathcert.cli, wreathcert.congruence, wreathcert.certificate
        self.defect_probes: list[Op] = []
        build = {
            "cert-factor": self._cert_factor,
            "orbit-norm": self._orbit_norm,
            "lift-wide": self._lift_wide,
            "structure": self._structure,
        }[name]
        self.ops: list[Op] = build()
        if name != "cert-factor":
            self.ops += self._verify_probes()

    def _file(self, stem: str) -> str:
        return str(self.workdir / f"{stem}.json")

    def _cli(self, *argv) -> Callable[[], Outcome]:
        return cli_op(self.cli, [str(a) for a in argv])

    def _cert_factor(self) -> list[Op]:
        ops = []
        for p, n in CERT_POINTS + (WIEFERICH_POINT,):
            honest = self._file(f"cert-{p}-{n}")
            argv = ("certificate", "--p", p, "--max-n", n, "--out", honest)
            if (p, n) not in UNSEEDED_RHO_POINTS:
                argv += ("--seed", self.seed)
            if (p, n) == WIEFERICH_POINT:
                ops.append(Op(f"certificate p={p} n={n}", self._cli(*argv), expect(3, "verdict=INDETERMINATE")))
            else:
                ops.append(Op(f"certificate p={p} n={n}", self._cli(*argv), expect(0, "verdict=MAXIMAL")))
            ops.append(self._verify_op(f"verify p={p} n={n}", honest, expect(0, "certificate verifies"), self._require(honest)))
            if (p, n) in CERT_POINTS:
                tampered = self._file(f"cert-{p}-{n}-tampered")
                ops.append(self._verify_op(f"verify tampered p={p} n={n}", tampered, expect(1), self._rewrite(tamper, honest, tampered)))
                forged = self._file(f"cert-{p}-{n}-forged")
                self.defect_probes.append(
                    Op(
                        f"verify forged p={p} n={n}",
                        self._cli("verify", "--in", forged),
                        expect(1),
                        prepare=self._rewrite(forge, honest, forged),
                    )
                )
        p, n = WIEFERICH_LIBRARY_POINT
        ops.append(Op(f"build_certificate p={p} n={n}", self._build(p, n), check_wieferich_certificate(p, n)))
        self.defect_probes.insert(
            0,
            Op(
                f"certificate p={p} n={n}",
                self._cli("certificate", "--p", p, "--max-n", n, "--seed", self.seed, "--out", self._file(f"cert-{p}-{n}")),
                expect(3, "verdict=INDETERMINATE"),
            ),
        )
        return ops

    def _verify_op(self, name: str, path: str, check, prepare) -> Op:
        return Op(name, self._cli("verify", "--in", path), check, prepare=prepare, verify=True, calls=VERIFY_CALLS)

    def _require(self, path: str) -> Callable[[], None]:
        def prepare() -> None:
            if not Path(path).is_file():
                raise FileNotFoundError(f"no certificate at {Path(path).name} to verify")

        return prepare

    def _rewrite(self, rewrite, honest: str, out: str) -> Callable[[], None]:
        def prepare() -> None:
            self._require(honest)()
            text, _ = rewrite(Path(honest).read_text(encoding="utf-8"), self.seed)
            Path(out).write_text(text, encoding="utf-8")

        return prepare

    def _build(self, p: int, n: int) -> Callable[[], Outcome]:
        def run() -> Outcome:
            try:
                return Outcome(value=self.certificate.build_certificate(p, n))
            except Exception as exc:
                return Outcome(error=f"{type(exc).__name__}: {exc}"[:300])

        return run

    def _orbit_norm(self) -> list[Op]:
        return [
            Op(
                f"norm-congruence p={p} n={n}",
                self._cli("norm-congruence", "--p", p, "--max-n", n, "--json"),
                check_norm_report(p, n),
            )
            for p, n in NORM_POINTS
        ]

    def _lift_wide(self) -> list[Op]:
        ops = [
            Op(f"general_congruence_check p={p} trials={t}", self._lift(p, t), check_lift(p, t))
            for p, t in LIFT_TRIALS
        ]
        ops.append(Op(f"wieferich scan {WIEFERICH_SCAN_LIMIT}", self._cli("wieferich", "--scan", WIEFERICH_SCAN_LIMIT), check_scan))
        ops.append(Op("wieferich check 1093", self._cli("wieferich", "--check", 1093), expect(0, "wieferich(1093) = true")))
        return ops

    def _lift(self, p: int, trials: int) -> Callable[[], Outcome]:
        lift_seed = random.Random(f"lift:{self.seed}:{p}").getrandbits(32)

        def run() -> Outcome:
            try:
                report = self.congruence.general_congruence_check(p, trials, LIFT_COEFF_BOUND, lift_seed)
            except Exception as exc:
                return Outcome(error=f"{type(exc).__name__}: {exc}"[:300])
            return Outcome(value=report)

        return run

    def _structure(self) -> list[Op]:
        return [
            Op(f"structure p={p} n={n}", self._cli("structure", "--p", p, "--n", n), expect(0))
            for p, n in STRUCTURE_POINTS
        ]

    def _verify_probes(self) -> list[Op]:
        ops = []
        for p, n in PROBE_POINTS:
            path = self._file(f"probe-{p}-{n}")
            built = cli_op(self.cli, ["certificate", "--p", str(p), "--max-n", str(n), "--seed", str(self.seed), "--out", path])()
            if built.rc != 0:
                raise RuntimeError(f"cannot build the verify probe at p={p} n={n}: {built.error or built.err}")
            ops.append(
                Op(
                    f"verify probe p={p} n={n}",
                    self._cli("verify", "--in", path),
                    expect(0, "certificate verifies"),
                    verify=True,
                    calls=VERIFY_CALLS,
                )
            )
        return ops
