"""Maximality certificates for the iterated map over Z[zeta_p].

The certified route: if p is not Wieferich and, for every level
m = 1..n, some rational prime divides |norm(phi^m(1))| with exponent
not divisible by p, then the level's ideal factorization cannot be a
perfect p-th power, which is exactly the per-level hypothesis needed
for the Galois group of the n-th iterate to be the full n-fold wreath
product of C_p, of order p^((p^n - 1)/(p - 1)).

build_certificate collects one witness prime per level from the norm's
rational factorization; verify_certificate re-checks a certificate with
cheap arithmetic only (exact divisions, modular exponentiation, the
group-order formula) and never re-factors.

A failed witness search is reported as INDETERMINATE, never as a
refutation: rational exponents all divisible by p does not force the
prime-ideal exponents to be, and an incomplete factorization proves
nothing either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .congruence import expected_residue, wieferich_check
from .cyclotomic import CycInt, require_odd_prime, require_ring_prime
from .dynamics import DEFAULT_MAX_COEFF_BITS, iterate_point, orbit_points
from .factoring import (
    COMPOSITE_UNFACTORED,
    PRIME_PENDING,
    UNIT,
    FactorConfig,
    Factorization,
    factor,
    is_prime,
)

SCHEMA = "wreath-cert/1"

# level statuses; INDETERMINATE doubles as the non-MAXIMAL verdict
WITNESS_FOUND = "WITNESS_FOUND"
INDETERMINATE = "INDETERMINATE"
MAXIMAL = "MAXIMAL"

WIEFERICH_NOTE = (
    "p is a Wieferich prime, so the norm congruence no longer rules out "
    "p-th-power norms and no witness search was attempted; maximality is "
    "expected but not certified in this case"
)


class CertificateFormatError(ValueError):
    """A serialized certificate failed structural validation."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class LevelRecord:
    """Everything verified about one level of the orbit of 1."""

    m: int
    norm_abs: int
    norm_mod_p2: int
    factorization: Factorization
    witness: tuple[int, int] | None
    unit_check: bool
    p_coprime_check: bool
    status: str


@dataclass(frozen=True)
class MaximalityCertificate:
    p: int
    n: int
    wieferich: bool
    levels: tuple[LevelRecord, ...]
    group_order_claimed: int
    verdict: str
    note: str | None = None


def group_order(p: int, n: int) -> int:
    """Order of the n-fold wreath power of C_p: p^((p^n - 1)/(p - 1))."""
    require_odd_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    return p ** ((p**n - 1) // (p - 1))


def _exact_exponent(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def _level_record(p: int, m: int, point: CycInt, cfg: FactorConfig) -> LevelRecord:
    norm = point.norm()
    if norm <= 0:
        # the ring degree p-1 is even, so norms of nonzero elements are positive
        raise AssertionError(f"norm of level {m} is not positive: {norm}")
    fac = factor(norm, cfg)
    witness = None
    for q, _ in fac.factors:
        e = _exact_exponent(norm, q)  # recomputed so exactness never rests on the factor list
        if e % p:
            witness = (q, e)
            break
    return LevelRecord(
        m=m,
        norm_abs=norm,
        norm_mod_p2=norm % p**2,
        factorization=fac,
        witness=witness,
        unit_check=norm != 1,
        p_coprime_check=norm % p != 0,
        status=WITNESS_FOUND if witness else INDETERMINATE,
    )


def level_witness(
    p: int,
    m: int,
    cfg: FactorConfig = FactorConfig(),
    *,
    max_coeff_bits: int = DEFAULT_MAX_COEFF_BITS,
) -> LevelRecord:
    """Witness search at a single level m."""
    require_ring_prime(p)
    if m < 1:
        raise ValueError("need m >= 1")
    point = iterate_point(p, m, CycInt.one(p), max_coeff_bits=max_coeff_bits)
    return _level_record(p, m, point, cfg)


def build_certificate(
    p: int,
    n: int,
    cfg: FactorConfig = FactorConfig(),
    *,
    max_coeff_bits: int = DEFAULT_MAX_COEFF_BITS,
) -> MaximalityCertificate:
    """Assemble a certificate for levels 1..n.

    For a Wieferich p no levels are computed (the proof route is closed
    regardless of witnesses) and the verdict is INDETERMINATE with an
    explanatory note.  Size-cap failures inside the orbit propagate as
    SizeLimitError.
    """
    require_odd_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    if wieferich_check(p):
        return MaximalityCertificate(
            p=p,
            n=n,
            wieferich=True,
            levels=(),
            group_order_claimed=group_order(p, n),
            verdict=INDETERMINATE,
            note=WIEFERICH_NOTE,
        )
    require_ring_prime(p)
    levels = []
    for m, point in enumerate(orbit_points(p, CycInt.one(p), n, max_coeff_bits=max_coeff_bits), 1):
        levels.append(_level_record(p, m, point, cfg))
    verdict = MAXIMAL if all(rec.status == WITNESS_FOUND for rec in levels) else INDETERMINATE
    return MaximalityCertificate(
        p=p,
        n=n,
        wieferich=False,
        levels=tuple(levels),
        group_order_claimed=group_order(p, n),
        verdict=verdict,
        note=None,
    )


def certificate_problems(cert: MaximalityCertificate) -> list[str]:
    """Re-check a certificate without re-factoring; list what fails.

    Witness primality is re-tested (it is cheap and the witness rule is
    unsound for composite q); exponents are re-checked by two exact
    divisions; congruences and the Wieferich flag by modular
    exponentiation; the group order by its closed formula.

    Work is bounded by the size of the certificate: the group-order
    exponent (p^n - 1)/(p - 1) may not exceed the bit length of the
    claimed order, and no power q^e is formed when it would exceed the
    norm it should divide.
    """
    problems: list[str] = []
    p, n = cert.p, cert.n
    try:
        require_odd_prime(p)
    except (TypeError, ValueError) as exc:
        return [f"bad p: {exc}"]
    if n < 1:
        return [f"bad n: {n}"]
    p2 = p * p

    if cert.wieferich != (pow(2, p - 1, p2) == 1):
        problems.append(f"wieferich flag {cert.wieferich} contradicts 2^(p-1) mod p^2")
    exponent = _order_exponent(p, n, cert.group_order_claimed.bit_length())
    if exponent is None or cert.group_order_claimed != p**exponent:
        problems.append("group_order_claimed does not match p^((p^n - 1)/(p - 1))")
    if cert.verdict not in (MAXIMAL, INDETERMINATE):
        problems.append(f"unknown verdict {cert.verdict!r}")

    if [rec.m for rec in cert.levels] != list(range(1, len(cert.levels) + 1)):
        problems.append("levels are not consecutively numbered from 1")
    if not cert.wieferich and len(cert.levels) != n:
        problems.append(f"expected {n} levels, found {len(cert.levels)}")
    if cert.wieferich and cert.levels:
        problems.append("wieferich certificate should not carry levels")

    want = expected_residue(p)
    for rec in cert.levels:
        tag = f"level {rec.m}"
        if rec.norm_abs < 1:
            problems.append(f"{tag}: norm_abs must be positive")
            continue
        if rec.norm_mod_p2 != rec.norm_abs % p2:
            problems.append(f"{tag}: norm_mod_p2 is not norm_abs mod p^2")
        if rec.norm_mod_p2 != want:
            problems.append(f"{tag}: norm residue {rec.norm_mod_p2} differs from 2^p - 1 = {want} mod p^2")
        if rec.unit_check is not (rec.norm_abs != 1):
            problems.append(f"{tag}: unit_check inconsistent with norm_abs")
        if not rec.unit_check:
            problems.append(f"{tag}: iterate norm is a unit")
        if rec.p_coprime_check is not (rec.norm_abs % p != 0):
            problems.append(f"{tag}: p_coprime_check inconsistent with norm_abs")
        if not rec.p_coprime_check:
            problems.append(f"{tag}: norm divisible by p")
        problems.extend(_factorization_problems(rec.factorization, rec.norm_abs, tag))
        if (rec.witness is not None) != (rec.status == WITNESS_FOUND):
            problems.append(f"{tag}: status {rec.status} inconsistent with witness")
        if rec.status not in (WITNESS_FOUND, INDETERMINATE):
            problems.append(f"{tag}: unknown status {rec.status!r}")
        if rec.witness is not None:
            q, e = rec.witness
            if q < 2 or not is_prime(q):
                problems.append(f"{tag}: witness {q} is not prime")
            elif (
                e < 1
                or _power_exceeds(q, e, rec.norm_abs)
                or rec.norm_abs % q**e != 0
                or rec.norm_abs % q ** (e + 1) == 0
            ):
                problems.append(f"{tag}: {q}^{e} does not exactly divide the norm")
            elif e % p == 0:
                problems.append(f"{tag}: witness exponent {e} is divisible by p")

    should_be_maximal = not cert.wieferich and bool(cert.levels) and all(
        rec.status == WITNESS_FOUND for rec in cert.levels
    ) and len(cert.levels) == n
    if (cert.verdict == MAXIMAL) != should_be_maximal:
        problems.append(f"verdict {cert.verdict} inconsistent with levels and wieferich flag")
    return problems


def _factorization_problems(fac: Factorization, norm_abs: int, tag: str) -> list[str]:
    problems = []
    if fac.n != norm_abs:
        problems.append(f"{tag}: factorization is of {fac.n}, not of the norm")
    primes = [q for q, _ in fac.factors]
    if primes != sorted(set(primes)):
        problems.append(f"{tag}: factor primes are not strictly ascending")
    if fac.cofactor < 1:
        problems.append(f"{tag}: cofactor below 1")
    if fac.cofactor_status not in (UNIT, PRIME_PENDING, COMPOSITE_UNFACTORED):
        problems.append(f"{tag}: unknown cofactor status {fac.cofactor_status!r}")
    elif (fac.cofactor == 1) != (fac.cofactor_status == UNIT):
        problems.append(f"{tag}: cofactor status inconsistent with cofactor value")
    if any(e < 1 for _, e in fac.factors):
        problems.append(f"{tag}: factor exponent below 1")
    # a power above the norm cannot divide it, so it is never formed
    elif any(_power_exceeds(q, e, norm_abs) for q, e in fac.factors) or (
        fac.cofactor * math.prod(q**e for q, e in fac.factors) != norm_abs
    ):
        problems.append(f"{tag}: factorization does not reconstruct the norm")
    return problems


def _order_exponent(p: int, n: int, limit: int) -> int | None:
    """(p^n - 1)/(p - 1), or None once it exceeds limit.

    Horner steps on 1 + p + ... + p^(n-1) stop after about log_p(limit)
    steps, so a hostile n costs nothing; the exponent is at least n.
    """
    exponent = 0
    for _ in range(n):
        exponent = exponent * p + 1
        if exponent > limit:
            return None
    return exponent


def _power_exceeds(q: int, e: int, bound: int) -> bool:
    """True when |q|^e > bound >= 1 follows from bit lengths alone.

    |q|^e >= 2^(e * (bitlen(q) - 1)), so with |q| >= 2 any e above
    bound.bit_length() qualifies, and q^e is never formed for it.
    """
    return e * (abs(q).bit_length() - 1) >= bound.bit_length()


def verify_certificate(cert: MaximalityCertificate) -> bool:
    """True iff every re-check in certificate_problems passes."""
    return not certificate_problems(cert)


# -- serialization ------------------------------------------------------
#
# Schema "wreath-cert/1": one JSON document; every possibly-large
# integer (norms, primes, exponents, cofactor, group order) is a
# decimal string so no consumer silently truncates at 64 bits.


def certificate_to_dict(cert: MaximalityCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "p": cert.p,
        "n": cert.n,
        "wieferich": cert.wieferich,
        "levels": [_level_to_dict(rec) for rec in cert.levels],
        "group_order_claimed": str(cert.group_order_claimed),
        "verdict": cert.verdict,
        "note": cert.note,
    }


def _level_to_dict(rec: LevelRecord) -> dict:
    return {
        "m": rec.m,
        "norm_abs": str(rec.norm_abs),
        "norm_mod_p2": str(rec.norm_mod_p2),
        "factorization": {
            "factors": [[str(q), str(e)] for q, e in rec.factorization.factors],
            "cofactor": str(rec.factorization.cofactor),
            "cofactor_status": rec.factorization.cofactor_status,
        },
        "witness": [str(rec.witness[0]), str(rec.witness[1])] if rec.witness else None,
        "unit_check": rec.unit_check,
        "p_coprime_check": rec.p_coprime_check,
        "status": rec.status,
    }


def certificate_to_json(cert: MaximalityCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"


def _want(problems, obj, key, kinds, where):
    if not isinstance(obj, dict) or key not in obj:
        problems.append(f"{where}: missing field {key!r}")
        return None
    value = obj[key]
    if kinds is bool:
        if not isinstance(value, bool):
            problems.append(f"{where}: field {key!r} must be a boolean")
            return None
    elif kinds is int:
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{where}: field {key!r} must be an integer")
            return None
    elif kinds is str:
        if not isinstance(value, str):
            problems.append(f"{where}: field {key!r} must be a string")
            return None
    return value


def _parse_bigint(problems, value, where) -> int | None:
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    problems.append(f"{where}: expected a decimal-string integer, got {value!r}")
    return None


def certificate_from_dict(data: dict) -> MaximalityCertificate:
    problems: list[str] = []
    if not isinstance(data, dict):
        raise CertificateFormatError(["top level is not an object"])
    if data.get("schema") != SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, expected {SCHEMA!r}")
    p = _want(problems, data, "p", int, "certificate")
    n = _want(problems, data, "n", int, "certificate")
    wief = _want(problems, data, "wieferich", bool, "certificate")
    verdict = _want(problems, data, "verdict", str, "certificate")
    order_raw = _want(problems, data, "group_order_claimed", str, "certificate")
    order = _parse_bigint(problems, order_raw, "group_order_claimed") if order_raw is not None else None
    note = data.get("note")
    if note is not None and not isinstance(note, str):
        problems.append("note must be a string or null")
    levels_raw = data.get("levels")
    if not isinstance(levels_raw, list):
        problems.append("levels must be a list")
        levels_raw = []
    levels = []
    for idx, item in enumerate(levels_raw):
        rec = _level_from_dict(problems, item, f"levels[{idx}]")
        if rec is not None:
            levels.append(rec)
    if problems:
        raise CertificateFormatError(problems)
    return MaximalityCertificate(
        p=p,
        n=n,
        wieferich=wief,
        levels=tuple(levels),
        group_order_claimed=order,
        verdict=verdict,
        note=note,
    )


def _level_from_dict(problems, item, where) -> LevelRecord | None:
    if not isinstance(item, dict):
        problems.append(f"{where}: not an object")
        return None
    m = _want(problems, item, "m", int, where)
    norm_raw = _want(problems, item, "norm_abs", str, where)
    norm_abs = _parse_bigint(problems, norm_raw, where) if norm_raw is not None else None
    mod_raw = _want(problems, item, "norm_mod_p2", str, where)
    norm_mod = _parse_bigint(problems, mod_raw, where) if mod_raw is not None else None
    unit = _want(problems, item, "unit_check", bool, where)
    coprime = _want(problems, item, "p_coprime_check", bool, where)
    status = _want(problems, item, "status", str, where)

    witness = None
    wraw = item.get("witness")
    if wraw is not None:
        if (
            isinstance(wraw, list)
            and len(wraw) == 2
            and all(isinstance(v, str) for v in wraw)
        ):
            q = _parse_bigint(problems, wraw[0], f"{where}.witness")
            e = _parse_bigint(problems, wraw[1], f"{where}.witness")
            if q is not None and e is not None:
                witness = (q, e)
        else:
            problems.append(f"{where}: witness must be null or a pair of decimal strings")

    fraw = item.get("factorization")
    fac = None
    if not isinstance(fraw, dict):
        problems.append(f"{where}: missing factorization object")
    else:
        pairs = []
        ok = True
        raw_pairs = fraw.get("factors")
        if not isinstance(raw_pairs, list):
            problems.append(f"{where}: factorization.factors must be a list")
            ok = False
        else:
            for pair in raw_pairs:
                if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, str) for v in pair)):
                    problems.append(f"{where}: factor entries must be pairs of decimal strings")
                    ok = False
                    break
                q = _parse_bigint(problems, pair[0], f"{where}.factors")
                e = _parse_bigint(problems, pair[1], f"{where}.factors")
                if q is None or e is None:
                    ok = False
                    break
                pairs.append((q, e))
        cof_raw = _want(problems, fraw, "cofactor", str, f"{where}.factorization")
        cof = _parse_bigint(problems, cof_raw, f"{where}.cofactor") if cof_raw is not None else None
        stat = _want(problems, fraw, "cofactor_status", str, f"{where}.factorization")
        if ok and cof is not None and stat is not None and norm_abs is not None:
            fac = Factorization(norm_abs, tuple(pairs), cof, stat)

    if None in (m, norm_abs, norm_mod, unit, coprime, status) or fac is None:
        return None
    return LevelRecord(
        m=m,
        norm_abs=norm_abs,
        norm_mod_p2=norm_mod,
        factorization=fac,
        witness=witness,
        unit_check=unit,
        p_coprime_check=coprime,
        status=status,
    )


def certificate_from_json(text: str) -> MaximalityCertificate:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-str digit limit
        raise CertificateFormatError([f"not valid JSON: {exc}"]) from exc
    return certificate_from_dict(data)
