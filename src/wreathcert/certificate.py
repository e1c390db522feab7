"""Maximality certificates for the iterated map over Z[zeta_p].

The per-level criterion: level m holds when some rational prime q has
q^e exactly dividing N(phi^m(1)) with p not dividing e.  The norm of a
p-th-power ideal is a p-th power, so the ideal (phi^m(1)) is then not a
p-th power.  With p not Wieferich and every level m = 1..n holding,
that is the per-level hypothesis for the Galois group of the n-th
iterate to be the full n-fold wreath product of C_p, of order
p^((p^n - 1)/(p - 1)).

A level records only its norm and its witness (q, e).  build_certificate
takes as witness the first prime q found by the search of
factoring.certified_primes whose exponent p does not divide, and stops
the search there, so the rest of the norm is never factored; when trial
division finds q, it is the smallest such prime, and no larger trial
prime is tried.  certificate_problems never factors: it recomputes every
norm from phi along the orbit of 1, so each number it accepts is tied to
phi, and re-checks the witness by a deterministic primality test and two
exact divisions.

No witness needs a "not found at an earlier level" check, because the
levels are pairwise coprime (Lemma C).  If a prime Q of Z[zeta] divides
phi^m(1) and phi^n(1) with m < n, then phi^n(1) = phi^(n-m)(phi^m(1)) =
phi^(n-m)(0) = 1 - zeta mod Q, by the fixed-point facts, so Q is the
prime above p.  But every norm is 2^p - 1 = 1 mod p, so that prime
divides none of them.

A failed witness search is reported as INDETERMINATE, never as a
refutation: rational exponents all divisible by p does not force the
prime-ideal exponents to be, and an incomplete factorization proves
nothing either way.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from dataclasses import dataclass

from .congruence import expected_residue, wieferich_check
from .cyclotomic import CycInt, require_odd_prime, require_ring_prime
from .dynamics import orbit_points
from .errors import SizeLimitError
from .factoring import DETERMINISTIC_LIMIT, FactorConfig, certified_primes, is_prime_certain

SCHEMA = "wreath-cert/1"

INDETERMINATE = "INDETERMINATE"
MAXIMAL = "MAXIMAL"

# Past this many bits in (p - 1) * (coefficient bits of the point), an exact
# norm costs from milliseconds up to about five minutes (p = 101, level 3),
# and a file may ask for one level past the norms it honestly holds; a
# fingerprint modulo a random prime, which the file cannot predict, rejects
# a false norm before the exact one is computed.
_FINGERPRINT_BITS = 4096

# The largest group order the library admits, in bits: above the
# 12,069,923-bit order at (1093, 3), far below (3511, 3) at about 1.45 * 10^8
# bits and (1093, 4) at about 1.32 * 10^10, which are refused at once.  An
# admitted order is kept as (p, e); only str() or int() of it forms its
# digits, which for the largest, 851639^851640, takes 5 s on a 2-vCPU
# x86-64 host.
MAX_ORDER_BITS = 1 << 24

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
    """One level of the orbit of 1: the norm N(phi^m(1)) and its witness (q, e)."""

    m: int
    norm_abs: int
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class MaximalityCertificate:
    p: int
    n: int
    wieferich: bool
    levels: tuple[LevelRecord, ...]
    group_order_claimed: int | PrimePower
    verdict: str


@dataclass(frozen=True, eq=False, slots=True)
class PrimePower:
    """The integer p^e for a prime p, held as (p, e) and formed only on demand.

    No proof step reads the digits of a group order, so they are formed
    only when int(), str(), bit_length() or * asks.  A residue is
    pow(p, e, m), the hash is hash(p^e), and == and < against an int
    decide from bit lengths first, forming p^e only when the int has about
    its bit length, so that work is bounded by the int's size.
    """

    p: int
    e: int

    def __int__(self) -> int:
        return self.p**self.e

    def __str__(self) -> str:
        return str(int(self))

    def bit_length(self) -> int:
        return int(self).bit_length()

    def __mul__(self, other):
        return int(self) * other

    __rmul__ = __mul__

    def __mod__(self, m: int) -> int:
        return pow(self.p, self.e, m)

    def __hash__(self) -> int:
        return pow(self.p, self.e, sys.hash_info.modulus)

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimePower):  # p is prime, so p^e determines (p, e)
            return (self.p, self.e) == (other.p, other.e)
        return self._compare(other) == 0 if isinstance(other, int) else NotImplemented

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0 if isinstance(other, int) else NotImplemented

    def _compare(self, other: int) -> int:
        """The sign of p^e - other.

        log2(other) lies in [bitlen - 1, bitlen), so a gap of more than one
        bit from e * log2(p) decides, past any float rounding.
        """
        gap = other.bit_length() - 1 - self.e * math.log2(self.p)
        if other <= 0 or gap < -2:
            return 1
        if gap > 1:
            return -1
        value = int(self)
        return (value > other) - (value < other)


def group_order(p: int, n: int, max_bits: int = MAX_ORDER_BITS) -> PrimePower:
    """Order of the n-fold wreath power of C_p: p^((p^n - 1)/(p - 1)), as a PrimePower.

    The one place the order is defined.  It raises SizeLimitError when the
    order has more than max_bits bits.  The exponent e grows by Horner
    steps on 1 + p + ... + p^(n-1), and p^e has floor(e * log2(p)) + 1
    bits, so the steps stop once e * log2(p) passes max_bits + 1, past any
    float rounding; a hostile n costs about log_p(max_bits) steps.  The
    float decides the exact cap too, unless e * log2(p) lies within
    rounding of max_bits: only then is p^e formed, of about max_bits bits.
    """
    require_odd_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    exponent, log2_p = 0, math.log2(p)
    for _ in range(n):
        exponent = exponent * p + 1
        if exponent * log2_p > max_bits + 1:
            break
    else:
        # p^e has at most max_bits bits exactly when e * log2(p) < max_bits
        order, gap = PrimePower(p, exponent), max_bits - exponent * log2_p
        slack = abs(max_bits) * 2**-40  # far above the rounding error of e * log2(p)
        if gap > slack or gap >= -slack and order.bit_length() <= max_bits:
            return order
    raise SizeLimitError(f"the group order {p}^(({p}^{n} - 1)/{p - 1}) has more than {max_bits} bits")


def require_certificate_input(p: int, n: int) -> None:
    """Raise ValueError unless build_certificate accepts (p, n).

    p must be an odd prime, and at most MAX_RING_PRIME unless it is
    Wieferich (no levels are computed then); n must be at least 1.  The
    FactorConfig needs no check here: it refuses a bad trial bound itself.
    """
    require_odd_prime(p)
    if n < 1:
        raise ValueError("need n >= 1")
    if not wieferich_check(p):
        require_ring_prime(p)


def _int_str_limit() -> int:
    """The most decimal digits a certificate may write: Python's int-str digit limit.

    Where the interpreter sets none (0, or Python before 3.10.7), CPython's
    default of 4300 holds, so the order and the norms stay bounded.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def require_printable_order(p: int, n: int) -> None:
    """Raise SizeLimitError unless the group order of (p, n) can be written.

    The order p^((p^n - 1)/(p - 1)) is written in decimal, so it must fit
    the int-str digit limit of _int_str_limit.  group_order, capped at the
    bit length of 10^limit, and the comparison with 10^limit decide from
    the exponent, and form the order only when it has about as many digits
    as the limit.  p must be an odd prime and n >= 1.
    """
    limit = _int_str_limit()
    bound = 10**limit
    try:
        printable = group_order(p, n, bound.bit_length()) < bound
    except SizeLimitError:
        printable = False
    if not printable:
        raise SizeLimitError(f"the group order {p}^(({p}^{n} - 1)/{p - 1}) has more than {limit} decimal digits")


def _exact_exponent(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def _level_norm(m: int, point: CycInt) -> int:
    """N(phi^m(1)), refused when it has more decimal digits than a certificate may write."""
    norm = point.norm()
    if norm <= 0:
        # the ring degree p-1 is even, so norms of nonzero elements are positive
        raise AssertionError(f"norm of level {m} is not positive: {norm}")
    limit = _int_str_limit()
    if norm >= 10**limit:  # it could not be written, so it is not factored
        raise SizeLimitError(f"the norm of level {m} has more than {limit} decimal digits")
    return norm


def _level_record(p: int, m: int, norm: int, cfg: FactorConfig) -> LevelRecord:
    """Level m with norm N(phi^m(1)) and the first witness the search finds.

    The witness is the first prime of certified_primes(norm) whose exact
    exponent p does not divide: the smallest one when trial division finds
    it, else the first rho finds.  The search stops there: trial division
    yields each prime as it divides it out, so it tries no larger prime,
    and the rest of the norm is never factored.  With no such prime the
    witness is None.
    """
    for q in certified_primes(norm, cfg, []):
        e = _exact_exponent(norm, q)  # counted here so exactness never rests on the search
        if e % p:
            return LevelRecord(m=m, norm_abs=norm, witness=(q, e))
    return LevelRecord(m=m, norm_abs=norm, witness=None)


def build_certificate(p: int, n: int, cfg: FactorConfig = FactorConfig()) -> MaximalityCertificate:
    """Assemble a certificate for levels 1..n.

    For a Wieferich p no levels are computed (the proof route is closed
    regardless of witnesses) and the verdict is INDETERMINATE; the CLI
    explains why with WIEFERICH_NOTE.  The input is checked first by
    require_certificate_input, then a group order past MAX_ORDER_BITS is
    refused before any level.  Every level's norm is formed before any
    witness search, so size-cap failures inside the orbit, and a norm past
    the int-str digit limit, propagate as SizeLimitError before anything
    is factored.
    """
    require_certificate_input(p, n)
    order = group_order(p, n)
    wieferich = wieferich_check(p)
    points = () if wieferich else orbit_points(p, CycInt.one(p), n)
    norms = [_level_norm(m, point) for m, point in enumerate(points, 1)]
    levels = tuple(_level_record(p, m, norm, cfg) for m, norm in enumerate(norms, 1))
    return MaximalityCertificate(
        p=p, n=n, wieferich=wieferich, levels=levels, group_order_claimed=order,
        verdict=_verdict(n, wieferich, levels),
    )


def _verdict(n: int, wieferich: bool, levels) -> str:
    """MAXIMAL exactly when p is not Wieferich and all n levels hold a witness."""
    witnessed = len(levels) == n and all(rec.witness is not None for rec in levels)
    return MAXIMAL if witnessed and not wieferich else INDETERMINATE


def certificate_problems(cert: MaximalityCertificate) -> list[str]:
    """Re-check a certificate without factoring; list what fails.

    Level m passes when its norm_abs is N(phi^m(1)), recomputed here along
    the orbit of 1, and its witness (q, e) has q prime below
    DETERMINISTIC_LIMIT (so primality is certain), q^e exactly dividing
    the norm, and p not dividing e.  The norm must also be 2^p - 1 mod p^2,
    as every norm on the orbit of 1 is.  The Wieferich flag is re-checked
    by modular exponentiation, the group order by its closed formula, and
    the verdict must be the one _verdict derives from the flag and levels.

    Work is bounded by the size of the certificate: p must be below
    DETERMINISTIC_LIMIT, group_order refuses a hostile n after a few steps
    of its exponent (a refused order does not match), the order is formed
    only when the claimed one has about its bit length, no power q^e is
    formed when it would exceed the norm, and the orbit walk stops
    at the first level whose norm differs, so a file buys at most one
    orbit step beyond the norms it holds.  A large point's norm is first
    compared modulo a random prime, so a false claim there costs no exact
    norm.
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

    if cert.wieferich != wieferich_check(p):
        problems.append(f"wieferich flag {cert.wieferich} contradicts 2^(p-1) mod p^2")
    try:
        order_matches = cert.group_order_claimed == group_order(p, n)
    except SizeLimitError:
        order_matches = False
    if not order_matches:
        problems.append("group_order_claimed does not match p^((p^n - 1)/(p - 1))")

    if [rec.m for rec in cert.levels] != list(range(1, len(cert.levels) + 1)):
        problems.append("levels are not consecutively numbered from 1")
    if not cert.wieferich and len(cert.levels) != n:
        problems.append(f"expected {n} levels, found {len(cert.levels)}")
    if cert.wieferich and cert.levels:
        problems.append("wieferich certificate should not carry levels")

    want = expected_residue(p)
    for rec in cert.levels:
        tag = f"level {rec.m}"
        residue = rec.norm_abs % p2
        if residue != want:
            problems.append(f"{tag}: norm residue {residue} differs from 2^p - 1 = {want} mod p^2")
        if rec.witness is not None:
            q, e = rec.witness
            if q >= DETERMINISTIC_LIMIT:
                problems.append(f"{tag}: a {q.bit_length()}-bit witness is past the deterministic primality range")
            elif not is_prime_certain(q):
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
    if cert.levels:
        problems.extend(_norm_problems(p, [rec.norm_abs for rec in cert.levels]))

    verdict = _verdict(n, cert.wieferich, cert.levels)
    if cert.verdict != verdict:  # named, not echoed: the claimed string may be up to a megabyte
        problems.append(f"the levels and wieferich flag give verdict {verdict}, not the one claimed")
    return problems


def _norm_problems(p: int, norms: list[int]) -> list[str]:
    """The first m with norms[m - 1] != N(phi^m(1)), walking the orbit of 1."""
    try:
        for m, (claimed, point) in enumerate(zip(norms, orbit_points(p, CycInt.one(p), len(norms))), 1):
            if _norm_differs(point, claimed):
                return [f"level {m}: norm_abs is not the norm of phi^{m}(1)"]
    except (ValueError, SizeLimitError) as exc:
        return [f"levels cannot be recomputed: {exc}"]
    return []


def _norm_differs(x: CycInt, claimed: int) -> bool:
    """N(x) != claimed, with a random fingerprint first when N(x) is large."""
    p = x.p
    if (p - 1) * max(c.bit_length() for c in x.coeffs) > _FINGERPRINT_BITS:
        rng = random.SystemRandom()
        while True:
            q = rng.getrandbits(61) | 1 << 60 | 1
            if is_prime_certain(q):
                break
        if x.norm(q) != claimed % q:
            return True
    return x.norm() != claimed


def _power_exceeds(q: int, e: int, bound: int) -> bool:
    """True when |q|^e > bound >= 1 follows from bit lengths alone.

    |q|^e >= 2^(e * (bitlen(q) - 1)), so with |q| >= 2 any e above
    bound.bit_length() qualifies, and q^e is never formed for it.
    """
    return e * (abs(q).bit_length() - 1) >= bound.bit_length()


# -- serialization ------------------------------------------------------
#
# Schema "wreath-cert/1" is the two tables below, one per record: each maps
# a field, named as in the dataclass and in JSON, to its JSON kind, and the
# writer and the reader both walk them.  A kind is the type json gives (an
# int is never a bool), or _DECIMAL: an integer of any size written as a
# decimal string, so no consumer silently truncates at 64 bits.  Besides
# the tables, a certificate holds its schema tag and its levels, and a level
# its witness (null or a pair of decimal strings [q, e]).  Other keys are
# ignored, so documents that still carry the retired note, or the retired
# level status, factorization, norm_mod_p2, unit_check and p_coprime_check,
# parse and verify.

_DECIMAL = "a decimal-string integer"
_CANONICAL_DECIMAL = re.compile("0|-?[1-9][0-9]*")
_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string", _DECIMAL: _DECIMAL}
_CERTIFICATE_FIELDS = {"p": int, "n": int, "wieferich": bool, "group_order_claimed": _DECIMAL, "verdict": str}
_LEVEL_FIELDS = {"m": int, "norm_abs": _DECIMAL}


def _write_fields(table: dict, record) -> dict:
    return {key: str(getattr(record, key)) if kind is _DECIMAL else getattr(record, key) for key, kind in table.items()}


def certificate_to_dict(cert: MaximalityCertificate) -> dict:
    levels = [
        dict(_write_fields(_LEVEL_FIELDS, rec), witness=[str(v) for v in rec.witness] if rec.witness else None)
        for rec in cert.levels
    ]
    return dict(_write_fields(_CERTIFICATE_FIELDS, cert), schema=SCHEMA, levels=levels)


def certificate_to_json(cert: MaximalityCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"


def _decimal(value) -> int | None:
    """The integer a string spells in canonical decimal, the writer's str(n); else None.

    The syntax is one ASCII match, not str(int(value)) == value, whose
    str() is quadratic in the digit count; int() alone also takes spaces,
    "+", "_", leading zeros, "-0" and non-ASCII digits.
    """
    if not isinstance(value, str) or not _CANONICAL_DECIMAL.fullmatch(value):
        return None
    try:
        return int(value)
    except ValueError:  # past the int-str digit limit
        return None


def _read_fields(problems: list[str], table: dict, obj: dict, where: str) -> dict:
    """The table's fields of obj as values; each one missing or of another kind is a problem."""
    values = {}
    for key, kind in table.items():
        if key not in obj:
            problems.append(f"{where}: missing field {key!r}")
            continue
        raw = obj[key]
        value = _decimal(raw) if kind is _DECIMAL else raw if type(raw) is kind else None
        if value is None:
            problems.append(f"{where}: field {key!r} must be {_KIND_NAMES[kind]}")
        values[key] = value
    return values


def certificate_from_json(text: str | bytes) -> MaximalityCertificate:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a bad encoding, an integer past the int-str digit
        # limit, or nesting deeper than the recursion limit
        raise CertificateFormatError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise CertificateFormatError(["top level is not an object"])
    problems: list[str] = []
    if data.get("schema") != SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, expected {SCHEMA!r}")
    fields = _read_fields(problems, _CERTIFICATE_FIELDS, data, "certificate")
    levels = data.get("levels")
    if not isinstance(levels, list):
        problems.append("certificate: field 'levels' must be a list")
        levels = []
    records = []
    for idx, item in enumerate(levels):
        where = f"levels[{idx}]"
        if not isinstance(item, dict):
            problems.append(f"{where}: not an object")
            continue
        witness = item.get("witness")
        if witness is not None:
            witness = tuple(map(_decimal, witness)) if isinstance(witness, list) and len(witness) == 2 else None
            if witness is None or None in witness:
                problems.append(f"{where}: witness must be null or a pair of decimal strings")
        records.append(dict(_read_fields(problems, _LEVEL_FIELDS, item, where), witness=witness))
    if problems:
        raise CertificateFormatError(problems)
    return MaximalityCertificate(levels=tuple(LevelRecord(**rec) for rec in records), **fields)
