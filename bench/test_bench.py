"""Tests of the benchmark's own logic: forgeries, self times, metric names.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import wreathcert.cli  # noqa: E402
from tracer import Span, Tracer, layer_metrics, merge, self_times  # noqa: E402
from workloads import Outcome, check_wieferich_certificate, expected_residue, forge, tamper  # noqa: E402
from wreathcert import CycInt, FactorConfig, build_certificate, certificate_from_json, certificate_to_json, iterate_point  # noqa: E402
from wreathcert.certificate import certificate_problems  # noqa: E402


@pytest.fixture(scope="module")
def honest_text():
    return certificate_to_json(build_certificate(3, 5))


@pytest.mark.parametrize("seed", range(1, 9))
def test_forgery_contradicts_the_orbit(honest_text, seed):
    text, m = forge(honest_text, seed)
    forged = certificate_from_json(text)
    level = forged.levels[m - 1]
    true_norm = iterate_point(3, m, CycInt.one(3)).norm()
    assert level.norm_abs != true_norm
    assert level.norm_abs % 9 == expected_residue(3) == true_norm % 9
    assert level.witness == (level.norm_abs, 1)
    # every other level is untouched
    honest = certificate_from_json(honest_text)
    assert [r for r in forged.levels if r.m != m] == [r for r in honest.levels if r.m != m]


def test_forgery_is_reproducible_and_seeded(honest_text):
    assert forge(honest_text, 7) == forge(honest_text, 7)
    assert len({forge(honest_text, seed)[1] for seed in range(1, 30)}) > 1


@pytest.mark.parametrize("seed", range(1, 9))
def test_tampered_certificate_is_false_and_rejected(honest_text, seed):
    text, m = tamper(honest_text, seed)
    tampered = certificate_from_json(text)
    level = tampered.levels[m - 1]
    true_norm = iterate_point(3, m, CycInt.one(3)).norm()
    assert level.norm_abs != true_norm
    assert level.norm_abs % 9 == true_norm % 9
    assert certificate_problems(tampered)
    assert tamper(honest_text, seed) == (text, m)


def test_wieferich_check_reads_the_group_order():
    check = check_wieferich_certificate(1093, 2)
    cert = build_certificate(1093, 2)
    assert check(Outcome(value=cert)) is None
    wrong = dataclasses.replace(cert, group_order_claimed=cert.group_order_claimed * 1093)
    assert check(Outcome(value=wrong)) is not None


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: together they cover [1, 6]
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("late", 9.0, 12.0, 0, 1),  # runs past its parent; only [9, 10] counts
        Span("other_root", 20.0, 21.5, None, 2),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0, 1.5])


def test_tracer_counts_wasted_rho_and_restores_the_program():
    factor = wreathcert.factoring.factor
    mul = CycInt.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        assert wreathcert.certificate.factor is not factor
        # level 4 at p = 5: trial division finds the witness 1571, then rho
        # spends its whole budget on the cofactor
        cert = wreathcert.certificate.build_certificate(5, 4, FactorConfig(rho_budget=2000))
    finally:
        tracer.uninstall()
    assert wreathcert.certificate.factor is factor is wreathcert.factoring.factor
    assert CycInt.__mul__ is mul and CycInt.__rmul__ is mul
    assert cert.levels[3].witness[0] == 1571
    assert 0 < tracer.rho_unneeded <= tracer.rho_iterations <= 4 * 2000
    assert not tracer.missing
    summary = tracer.summary()
    metrics = layer_metrics(merge([summary, summary]), 2, 0.0)
    assert metrics["factoring.factor.calls"][0] == 4
    assert metrics["factoring.rho.unneeded_iterations"][0] == tracer.rho_unneeded
    assert metrics["certificate.build.self_s"][0] > 0
    assert 0 <= metrics["factoring.rho.useful_frac"][0] < 1


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = layer_metrics(Tracer().summary(), 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit for k, (_, unit) in layer.items()}


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code != 0
