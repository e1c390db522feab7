"""Per-layer tracing of wreathcert, installed from outside the package.

Coarse entry points become spans: every call records its name, start,
end, parent span and the id of the benchmark op it belongs to.  A span's
self time is its duration minus the part of it that its child spans
cover.

Hot leaves (ring multiply, polynomial multiply, one orbit step, the
primality test) run far too often for one span per call, so they only
add to per-name aggregates of calls, total seconds and self seconds,
where a leaf's self time excludes the leaves it calls.  Leaf time is
not taken out of the enclosing span's self time.  Ring-element
construction is only counted.

Wrappers replace a function wherever a wreathcert module or class holds
a reference to it: the modules import names directly, so
``wreathcert.certificate.factor`` must be wrapped as well as
``wreathcert.factoring.factor``.  A name the program no longer defines
is skipped and listed in ``Tracer.missing``.  ``uninstall`` restores
every original.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, attribute path, span name)
SPAN_POINTS = (
    ("cli", "main", "cli.main"),
    ("certificate", "build_certificate", "certificate.build"),
    ("certificate", "certificate_problems", "certificate.verify"),
    ("certificate", "certificate_to_json", "certificate.to_json"),
    ("certificate", "certificate_from_json", "certificate.from_json"),
    ("certificate", "group_order", "certificate.group_order"),
    ("congruence", "norm_congruence_check", "congruence.norm_congruence_check"),
    ("congruence", "general_congruence_check", "congruence.general_congruence_check"),
    ("congruence", "wieferich_scan", "congruence.wieferich_scan"),
    ("dynamics", "iterate_poly", "dynamics.iterate_poly"),
    ("dynamics", "eisenstein_check", "dynamics.eisenstein_check"),
    ("dynamics", "fixed_point_check", "dynamics.fixed_point_check"),
    ("dynamics", "orbit_congruence_check", "dynamics.orbit_congruence_check"),
    ("cyclotomic", "CycInt.norm", "cyclotomic.norm"),
    ("factoring", "factor", "factoring.factor"),
    ("factoring", "_trial_divide", "factoring.trial"),
    ("factoring", "_brent_rho", "factoring.rho"),
)

LEAF_POINTS = (
    ("cyclotomic", "CycInt.__mul__", "cyclotomic.mul"),
    ("dynamics", "CycPoly.__mul__", "dynamics.poly_mul"),
    ("dynamics", "CycPoly.__call__", "dynamics.phi_eval"),
    ("factoring", "is_prime", "factoring.is_prime"),
)

STRUCTURE_CHECKS = ("dynamics.eisenstein_check", "dynamics.fixed_point_check", "dynamics.orbit_congruence_check")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Tracer.spans
    op: int | None


@dataclass
class LeafStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.end - s.start - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[str, LeafStat] = {}
        self.op: int | None = None
        self.norm_max_bits = 0
        self.rho_iterations = 0
        self.rho_unneeded = 0
        self.json_bytes = 0
        self.new_calls = 0
        self.missing: list[str] = []
        self._open: list[int] = []
        self._leaf_frames: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, open_[-1] if open_ else None, self.op)
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.missing.append(f"{name} (its arguments or result changed shape)")
            return result

        return wrapper

    def _leaf(self, name, fn):
        stat = self.leaves.setdefault(name, LeafStat())
        frames = self._leaf_frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                frames.pop()
                stat.calls += 1
                stat.total_s += d
                stat.self_s += d - frame[0]
                if frames:
                    frames[-1][0] += d

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.new_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _level_observer(self, fn):
        """Charge rho iterations to waste when trial division already had the witness."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.rho_iterations
            record = fn(*args, **kwargs)
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            witness = getattr(record, "witness", None)
            bound = getattr(cfg, "trial_bound", None)
            if witness is not None and bound is not None and witness[0] <= bound:
                self.rho_unneeded += self.rho_iterations - before
            return record

        return wrapper

    # -- observers -----------------------------------------------------

    def _see_norm(self, args, result):
        bits = max((c.bit_length() for c in args[0].coeffs), default=0)
        self.norm_max_bits = max(self.norm_max_bits, bits)

    def _see_rho(self, args, result):
        self.rho_iterations += result[1]

    def _see_json_out(self, args, result):
        self.json_bytes += len(result)

    def _see_json_in(self, args, result):
        self.json_bytes += len(args[0])

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        observers = {
            "cyclotomic.norm": self._see_norm,
            "factoring.rho": self._see_rho,
            "certificate.to_json": self._see_json_out,
            "certificate.from_json": self._see_json_in,
        }
        for module, path, name in SPAN_POINTS:
            self._replace(module, path, lambda fn, name=name: self._span(name, fn, observers.get(name)))
        for module, path, name in LEAF_POINTS:
            self._replace(module, path, lambda fn, name=name: self._leaf(name, fn))
        self._replace("cyclotomic", "CycInt.__init__", self._counter)
        self._replace("certificate", "_level_record", self._level_observer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, module: str, path: str, make) -> None:
        owner = sys.modules.get(f"wreathcert.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"wreathcert.{module}.{path}")
            return
        wrapped = make(original)
        owners = [m for n, m in sys.modules.items() if n == "wreathcert" or n.startswith("wreathcert.")]
        if outer:
            owners = [owner]  # methods live in their class only
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapped)
                    self._patches.append((target, key, original))

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Totals of one traced process, as plain JSON-ready data."""
        spans: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            agg = spans.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += span.end - span.start
            agg["self_s"] += own
        return {
            "spans": spans,
            "leaves": {name: vars(stat).copy() for name, stat in self.leaves.items()},
            "counters": {
                "norm_max_bits": self.norm_max_bits,
                "rho_iterations": self.rho_iterations,
                "rho_unneeded": self.rho_unneeded,
                "json_bytes": self.json_bytes,
                "new_calls": self.new_calls,
            },
            "missing": self.missing,
        }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes (the largest norm_max_bits)."""
    out: dict = {"spans": {}, "leaves": {}, "counters": {}, "missing": []}
    for summary in summaries:
        for group in ("spans", "leaves"):
            for name, stats in summary[group].items():
                agg = out[group].setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    agg[key] += value
        for key, value in summary["counters"].items():
            prev = out["counters"].get(key, 0)
            out["counters"][key] = max(prev, value) if key == "norm_max_bits" else prev + value
        out["missing"] = sorted(set(out["missing"]) | set(summary["missing"]))
    return out


def layer_metrics(summary: dict, passes: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics per traced pass, keyed by name, with their unit."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name, key):
        return summary["spans"].get(name, empty)[key] / passes

    def leaf(name, key):
        return summary["leaves"].get(name, empty)[key] / passes

    counters = summary["counters"]
    iterations = counters.get("rho_iterations", 0) / passes
    unneeded = counters.get("rho_unneeded", 0) / passes
    return {
        "cyclotomic.norm.calls": (span("cyclotomic.norm", "calls"), "count"),
        "cyclotomic.norm.self_s": (span("cyclotomic.norm", "self_s"), "s"),
        "cyclotomic.norm.max_bits": (counters.get("norm_max_bits", 0), "bits"),
        "cyclotomic.mul.calls": (leaf("cyclotomic.mul", "calls"), "count"),
        "cyclotomic.mul.s": (leaf("cyclotomic.mul", "total_s"), "s"),
        "cyclotomic.new.calls": (counters.get("new_calls", 0) / passes, "count"),
        "dynamics.phi_eval.calls": (leaf("dynamics.phi_eval", "calls"), "count"),
        "dynamics.phi_eval.self_s": (leaf("dynamics.phi_eval", "self_s"), "s"),
        "dynamics.iterate_poly.self_s": (span("dynamics.iterate_poly", "self_s"), "s"),
        "dynamics.poly_mul.calls": (leaf("dynamics.poly_mul", "calls"), "count"),
        "dynamics.poly_mul.self_s": (leaf("dynamics.poly_mul", "self_s"), "s"),
        "dynamics.structure_checks.self_s": (sum(span(n, "self_s") for n in STRUCTURE_CHECKS), "s"),
        "factoring.factor.calls": (span("factoring.factor", "calls"), "count"),
        "factoring.factor.self_s": (span("factoring.factor", "self_s"), "s"),
        "factoring.trial.s": (span("factoring.trial", "total_s"), "s"),
        "factoring.rho.s": (span("factoring.rho", "total_s"), "s"),
        "factoring.rho.iterations": (iterations, "count"),
        "factoring.rho.unneeded_iterations": (unneeded, "count"),
        # 1.0 when rho never ran; factoring.rho.iterations is the base
        "factoring.rho.useful_frac": (1 - unneeded / iterations if iterations else 1.0, "ratio"),
        "factoring.is_prime.calls": (leaf("factoring.is_prime", "calls"), "count"),
        "factoring.is_prime.s": (leaf("factoring.is_prime", "total_s"), "s"),
        "congruence.norm_congruence_check.self_s": (span("congruence.norm_congruence_check", "self_s"), "s"),
        "congruence.general_congruence_check.self_s": (span("congruence.general_congruence_check", "self_s"), "s"),
        "congruence.wieferich_scan.s": (span("congruence.wieferich_scan", "total_s"), "s"),
        "certificate.build.self_s": (span("certificate.build", "self_s"), "s"),
        "certificate.group_order.s": (span("certificate.group_order", "total_s"), "s"),
        "certificate.verify.self_s": (span("certificate.verify", "self_s"), "s"),
        "certificate.json.s": (span("certificate.to_json", "total_s") + span("certificate.from_json", "total_s"), "s"),
        "certificate.json.bytes": (counters.get("json_bytes", 0) / passes, "B"),
        "cli.self_s": (span("cli.main", "self_s"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def time_breakdown(summary: dict, passes: int) -> dict[str, dict[str, float]]:
    """Span self seconds and leaf total seconds per traced pass, largest first."""

    def ranked(group, key):
        rows = {name: stats[key] / passes for name, stats in summary[group].items()}
        return dict(sorted(rows.items(), key=lambda kv: -kv[1]))

    return {"span_self_s": ranked("spans", "self_s"), "leaf_total_s": ranked("leaves", "total_s")}
