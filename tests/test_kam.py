import json
import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from circlelab import kam
from circlelab.circlemap import (AnalyticCircleMap, ArnoldFamily, derivative,
                                 evaluate, inverse, orbit_lift, rotation)
from circlelab.contfrac import ContinuedFraction
from circlelab.errors import ConjugacyNotDiffeo, Resonance, SmallDivisor
from circlelab.kam import (HermanResult, KamConfig, herman_average,
                           kam_iterate, kam_step, linearization_defect,
                           solve_homological)
from circlelab.kam import KamTrace, StepRecord
from circlelab.rotation import rho_interval, tune_parameter

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RNG = np.random.default_rng(2026)


def random_poly(degree=8, scale=1e-3, rng=RNG):
    co = scale * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    return co / np.arange(1, degree + 1) ** 2


def residual_mode_max(w, coeffs, alpha, trunc):
    """Spectral residual of the solved equation, modes 1..trunc, via dense
    sampling of w(x+alpha) - w(x) + v(x) (v recentred, mean dropped)."""
    deg = max(len(w), len(coeffs), trunc)
    m = 8 * deg
    x = np.arange(m) / m
    def ev(c, t):
        k = np.arange(1, len(c) + 1)
        return 2.0 * np.real(np.exp(2j * np.pi * np.outer(t, k)) @ c)
    res = ev(w, (x + alpha)) - ev(w, x) + ev(coeffs, x)
    modes = np.fft.rfft(res) / m
    return float(np.max(np.abs(modes[1:trunc + 1])))


def test_homological_residual_vanishes_modewise():
    for seed in range(5):
        co = random_poly(rng=np.random.default_rng(seed))
        w = solve_homological(co, GOLDEN, 8)
        assert residual_mode_max(w, co, GOLDEN, 8) < 1e-12


def test_homological_divisor_magnitude_golden():
    eps = 1e-3
    co = np.array([-1j * eps / 2.0])  # eps * sin
    w = solve_homological(co, GOLDEN, 4)
    div = 2.0 * abs(math.sin(math.pi * GOLDEN))
    assert div == pytest.approx(1.8640648476, rel=1e-9)
    assert abs(w[0]) == pytest.approx(abs(co[0]) / div, rel=1e-12)


def test_homological_mean_only_gives_zero():
    assert solve_homological(np.zeros(0), GOLDEN, 4).size == 0


def test_resonance_on_rational_alpha():
    with pytest.raises(Resonance) as exc:
        solve_homological(np.array([0.0, 0.01 + 0j]), 0.5, 4)
    assert exc.value.k == 2


def test_small_divisor_raised_below_floor():
    with pytest.raises(SmallDivisor):
        solve_homological(np.array([0.01 + 0j]), GOLDEN, 2, divisor_floor=2.0)


def test_zero_modes_skip_divisor_checks():
    # alpha = 1/2 resonates at k = 2, but a map with no k = 2 mode is fine
    w = solve_homological(np.array([0.01 + 0j, 0.0]), 0.5, 4)
    assert w.size == 2 and w[1] == 0


def test_kam_step_fixed_point_of_scheme():
    step = kam_step(rotation(GOLDEN), GOLDEN, 8, 16, 0.02)
    assert step.K.degree == 0
    assert step.K.mean_shift == 0.0
    assert step.delta_a == 0.0
    assert step.record.error == 0.0


def test_step_record_holds_plain_floats():
    alpha = np.float64(GOLDEN)
    f = AnalyticCircleMap(alpha, np.array([-1j * 0.005]))
    step = kam_step(f, alpha, 8, 16, 0.02)
    assert type(step.record.error) is float
    assert type(step.record.delta_a) is float
    assert type(step.delta_a) is float


def test_kam_step_quadratic_drop():
    f = AnalyticCircleMap(GOLDEN, np.array([-1j * 0.005]))  # 0.01 sin
    step = kam_step(f, GOLDEN, 8, 32, 0.02)
    assert step.record.error > 1e-2 * 0.9
    # the next step starts from K with the counterterm added to f
    f1 = AnalyticCircleMap(GOLDEN + step.delta_a, f.coeffs)
    assert kam_step(f1, GOLDEN, 8, 32, 0.02, step.K).record.error < 5e-4


def test_kam_step_below_threshold_builds_no_correction():
    f = AnalyticCircleMap(GOLDEN, np.array([-1j * 0.005]))
    K = rotation(0.0)
    step = kam_step(f, GOLDEN, 8, 32, 0.02, K, threshold=0.02)
    assert step.K is K and step.delta_a == 0.0
    assert 0.0 < step.record.error < 0.02
    assert (step.record.delta_k, step.record.tail_energy) == (0.0, 0.0)


def test_oversized_correction_rejected():
    # small alpha means a small k=1 divisor: the solved correction exceeds
    # the diffeomorphism budget
    f = AnalyticCircleMap(0.02, np.array([-1j * 0.012]))
    with pytest.raises(ConjugacyNotDiffeo):
        kam_step(f, 0.02, 4, 16, 0.02)


def test_iterate_rotation_zero_steps():
    res = kam_iterate(rotation(GOLDEN), KamConfig(ContinuedFraction.golden()))
    assert res.verdict == "linearized"
    assert len(res.trace.steps) == 0
    assert res.trace.defect == 0.0


def test_iterate_linearizes_small_arnold(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    assert res.verdict == "linearized"
    assert len(res.trace.steps) <= 6
    assert res.trace.defect < 1e-8
    assert res.trace.decay_exponent >= 1.5
    # the counterterm's step is a mean of -E weighted by 1 / K' > 0
    for s in res.trace.steps:
        assert s.delta_a <= s.error


def test_iterate_rejects_untuned_map():
    f = ArnoldFamily(0.3).map_at(0.55)  # rho far from golden
    with pytest.raises(ValueError):
        kam_iterate(f, KamConfig(ContinuedFraction.golden()))


@pytest.mark.parametrize("shift, rejected", [
    (2e-5, True), (-2e-5, True), (4e-6, False), (-4e-6, False),
])
def test_iterate_rotation_check_tolerance(tuned, shift, rejected):
    # shifting a tuned parameter by s moves rho by about s: maps 2e-5 off
    # the target are rejected, maps 4e-6 off pass the 1e-5 tolerance
    f = ArnoldFamily(0.05).map_at(tuned(0.05, "golden") + shift)
    off = rho_interval(f, 1e-10).value - GOLDEN
    assert off == pytest.approx(shift, rel=1e-3)
    cfg = KamConfig(ContinuedFraction.golden(), max_steps=1)
    if rejected:
        with pytest.raises(ValueError, match="tune the map first"):
            kam_iterate(f, cfg)
    else:
        kam_iterate(f, cfg)


def test_iterate_liouville_target_stops():
    # quotients a_{n+1} = round(e^{a_n}) put a resonance at the second
    # denominator q_2 = 61: a perturbation with energy there dies in the
    # solve once the truncation covers it.
    lio = ContinuedFraction.rule("exp_round", a1=3)
    alpha = lio.value()
    rng = np.random.default_rng(8)
    co = 1e-4 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    co /= np.arange(1, 65) ** 2
    f = AnalyticCircleMap(alpha, co)
    cfg = KamConfig(lio, threshold=1e-13)
    res = kam_iterate(f, cfg)
    assert res.verdict in ("resonance_stop", "diverged")
    if res.verdict == "resonance_stop":
        assert "61" in res.trace.note


def test_config_violations_reported():
    assert KamConfig(ContinuedFraction.golden()).violations() == []


def test_iterate_ends_diverged_on_budget(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden,
                      KamConfig(ContinuedFraction.golden(), max_steps=2))
    assert (res.verdict, len(res.trace.steps), res.trace.note) == (
        "diverged", 2, "step budget exhausted before reaching the threshold")
    # one pair of errors: the exponent is the ratio of their logarithms
    e0, e1 = (s.error for s in res.trace.steps)
    assert res.trace.decay_exponent == math.log(e1) / math.log(e0)


# the same ending at b = 0.6 and [10, 10, ...] is test_cli.py's
@pytest.mark.parametrize("b, quotient", [(0.9, 5)], ids=["correction"])
def test_iterate_ends_diverged_when_a_step_builds_no_map(b, quotient):
    # the second Newton step from the identity overshoots: K + K' W is no
    # longer monotone
    target = ContinuedFraction.periodic([quotient])
    a, _ = tune_parameter(ArnoldFamily(b), target, tol=1e-11)
    res = kam_iterate(ArnoldFamily(b).map_at(a), KamConfig(target))
    assert (res.verdict, len(res.trace.steps)) == ("diverged", 1)
    assert res.trace.note.startswith(
        "correction too large for a step: certified min Df = ")


def test_iterate_ends_diverged_when_the_inverse_fails_validation(tuned):
    # at b = 0.99 K solves the equation on 8192 points, but K^-1 sampled
    # there is not resolved by its modes below 4096: no certified h
    f = ArnoldFamily(0.99).map_at(tuned(0.99, "golden"))
    res = kam_iterate(f, KamConfig(ContinuedFraction.golden()))
    assert (res.verdict, res.trace.grid, res.h) == ("diverged", 8192, None)
    assert res.trace.steps[-1].error < 1e-9
    assert math.isnan(res.trace.defect)
    assert res.trace.note.startswith(
        "K^-1 on 8192 points failed validation: certified min Df = ")


def _trig_lift(c, coeffs, x):
    """x + c + sum_k 2 Re(coeffs[k-1] e^(2 pi i k x)), as a dense matrix."""
    k = np.arange(1, len(coeffs) + 1)
    return x + c + 2.0 * np.real(np.exp(2j * np.pi * np.outer(x, k)) @ coeffs)


@pytest.mark.parametrize("target, b", [
    ("golden", 0.6), ("golden", 0.9), ("golden", 0.95), ("sqrt2", 0.6),
    ("sqrt2", 0.9)])
def test_iterate_linearizes_where_the_old_loop_diverged(tuned, target, b):
    # the conjugacy-and-compose loop this scheme replaced ended diverged on
    # every one of these maps
    cf = {"golden": ContinuedFraction.golden(),
          "sqrt2": ContinuedFraction.periodic([2])}[target]
    f = ArnoldFamily(b).map_at(tuned(b, target))
    res = kam_iterate(f, KamConfig(cf))
    assert res.verdict == "linearized"
    assert res.trace.defect <= 1e-11
    alpha = 0.5 * sum(cf.value_interval())
    x = (np.arange(4096) + 0.37) / 4096
    h = res.h
    fx = _trig_lift(f.mean_shift, f.coeffs, x)
    resid = (_trig_lift(h.mean_shift, h.coeffs, fx)
             - _trig_lift(h.mean_shift, h.coeffs, x) - alpha)
    assert float(np.max(np.abs(resid))) < 1e-9


def test_trace_csv_round_trip(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    text = res.trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("step,grid,error")
    assert len(lines) == len(res.trace.steps) + 2
    footer = json.loads(lines[-1].lstrip("# "))
    assert footer["verdict"] == "linearized"


def test_trace_csv_writes_every_field():
    steps = [StepRecord(0, 32, 0.1, 0.2, 1e-3, 2.5e-20, 0.3),
             StepRecord(1, 64, 1 / 3, 1e-7, 0.0, 7e-30, math.pi / 10)]
    trace = KamTrace(steps, verdict="diverged", note="a note", defect=1e-12,
                     decay_exponent=1.25, quad_constant=2.0, grid=128,
                     counterterm=-2.5e-13)
    lines = trace.to_csv().split("\n")
    assert lines[0].split(",") == [f.name for f in fields(StepRecord)]
    assert [tuple(float(v) for v in row.split(",")) for row in lines[1:3]] == \
        [astuple(s) for s in steps]
    assert lines[3].startswith("# ") and lines[4:] == [""]
    assert list(json.loads(lines[3][2:]).items()) == [
        (f.name, getattr(trace, f.name)) for f in fields(KamTrace)
        if f.name != "steps"]


def test_trace_quadratic_budget_holds_with_recorded_constant(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    c = res.trace.quad_constant
    assert math.isfinite(c) and c > 0
    errors = [s.error for s in res.trace.steps]
    for a, b in zip(errors, errors[1:]):
        if a > 1e-13 and b > 1e-13:
            assert b <= c * a**1.5 * (1 + 1e-12)


def test_defect_matches_direct_conjugation(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    d = linearization_defect(res.h, arnold_b005_golden, GOLDEN, grid=512)
    assert d <= res.trace.defect * 1.5 + 1e-12


def test_iterate_linearizes_sqrt2_at_b097(tuned):
    # h = K^-1 certifies here, but an inverse of h does not reach its
    # 1e-14 residual stop: the forward defect takes none
    f = ArnoldFamily(0.97).map_at(tuned(0.97, "sqrt2"))
    res = kam_iterate(f, KamConfig(ContinuedFraction.periodic([2])))
    assert (res.verdict, res.trace.grid) == ("linearized", 4096)
    assert res.trace.defect < 1e-8


def test_a_linearized_run_inverts_once(monkeypatch, arnold_b005_golden):
    # h = K^-1 is the one inverse; the defect is checked forward
    calls = []
    monkeypatch.setattr(kam, "inverse",
                        lambda f, y: calls.append(y) or inverse(f, y))
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    assert (res.verdict, len(calls)) == ("linearized", 1)
    linearization_defect(res.h, arnold_b005_golden, GOLDEN)
    assert len(calls) == 1


def test_counterterm_names_the_tuning_mismatch(tuned):
    # a tuned map needs no parameter shift beyond the tuning tolerance; a
    # map 4e-6 off its tuned parameter passes the rotation check's 1e-5, but
    # the equation is then solved for f shifted back, not for f: the run
    # ends diverged and names the counterterm
    a = tuned(0.05, "golden")
    cfg = KamConfig(ContinuedFraction.golden())
    trace = kam_iterate(ArnoldFamily(0.05).map_at(a), cfg).trace
    assert trace.verdict == "linearized" and abs(trace.counterterm) < 1e-11
    res = kam_iterate(ArnoldFamily(0.05).map_at(a + 4e-6), cfg)
    assert (res.verdict, res.h) == ("diverged", None)
    assert res.trace.steps[-1].error >= cfg.threshold
    assert res.trace.counterterm == pytest.approx(-4e-6, abs=1e-11)
    assert math.isnan(res.trace.defect)
    assert res.trace.note.startswith(
        "the equation holds for f + (a - c) with counterterm a - c = -4.000e-06")


def _herman_stacked(f, n, rho, grid=1024):
    """herman_average as one stacked (n+1) x grid orbit, with Df^i from
    `derivative` along it."""
    x = np.arange(grid) / grid
    orb = orbit_lift(f, x, n)
    dh = np.ones_like(x)
    a = np.ones_like(x)
    for i in range(1, n):
        a = a * derivative(f, orb[i - 1], 1)
        dh += a
    dh /= n
    h_vals = orb[:n].sum(axis=0) / n
    defect = float(np.max(np.abs((orb[n] - orb[0]) / n - rho)))
    assert float(dh.min()) > 1e-12
    c = np.fft.rfft(h_vals - x) / grid
    h = AnalyticCircleMap(float(c[0].real), c[1:min(grid // 3, 256) + 1])
    z = (np.arange(grid) + 0.5) / grid
    orbz = orbit_lift(f, z, n)
    rhs = orbz[:n].sum(axis=0) / n + (orbz[n] - orbz[0]) / n
    resid = float(np.max(np.abs(evaluate(h, orbz[1]) - rhs)))
    return h, defect, resid


@pytest.mark.parametrize("f", [
    ArnoldFamily(0.3).map_at(0.6167),
    AnalyticCircleMap(0.618, [-0.006j, 0.002 + 0.001j, 0.0005 - 0.0003j])])
@pytest.mark.parametrize("n", [1, 2, 13])
def test_herman_average_equals_the_stacked_orbit(f, n):
    res = herman_average(f, n, rho=0.618)
    h, defect, resid = _herman_stacked(f, n, 0.618)
    assert np.array_equal(res.h.coeffs, h.coeffs)
    assert res.h.mean_shift == h.mean_shift
    assert res.defect == defect
    assert res.identity_residual == resid


def test_herman_identity_and_rotation_case():
    h = herman_average(rotation(GOLDEN), 21)
    assert h.defect < 1e-11
    assert h.identity_residual < 1e-10
    assert h.h.degree == 0 or np.max(np.abs(h.h.coeffs)) < 1e-12


def test_herman_defect_decreases_on_linearizable_map(arnold_b03_golden):
    defects = [herman_average(arnold_b03_golden, q).defect
               for q in (5, 8, 13, 21, 34)]
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert all(isinstance(herman_average(arnold_b03_golden, 8), HermanResult)
               for _ in range(1))


def test_herman_identity_residual_tight(arnold_b03_golden):
    for n in (8, 21):
        res = herman_average(arnold_b03_golden, n, grid=1024)
        assert res.identity_residual < 1e-10


def test_herman_agrees_with_kam_verdict(arnold_b005_golden):
    # both routes call the same map linearizable: tiny final defects
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    hm = herman_average(arnold_b005_golden, 55)
    assert res.verdict == "linearized"
    assert hm.defect < 1e-3


def test_epsilon_threshold_scan_mechanics(tuned):
    from circlelab.kam import epsilon_threshold_scan

    def fam(s):
        b = round(s, 6)
        return ArnoldFamily(b).map_at(tuned(b, "golden", 1e-10)) if b else \
            rotation(tuned(0.0, "golden"))

    cfg = KamConfig(ContinuedFraction.golden(), max_steps=5)
    thr = epsilon_threshold_scan(fam, cfg, lo=0.0, hi=0.95, steps=2)
    # b = 0.475 needs more than five steps, so the bisection drops to
    # b = 0.2375, which five steps linearize
    assert thr == pytest.approx(0.2375)
    assert kam_iterate(fam(thr), cfg).verdict == "linearized"
    assert kam_iterate(fam(0.475), cfg).verdict == "diverged"
    # a scale the iteration rejects counts as failing: the parameter tuned
    # at b = 0.05 is off the target at every scale the bisection tries
    a = tuned(0.05, "golden")
    with pytest.raises(ValueError, match="tune the map first"):
        kam_iterate(ArnoldFamily(0.475).map_at(a), cfg)
    assert epsilon_threshold_scan(lambda s: ArnoldFamily(s).map_at(a), cfg,
                                  lo=0.0, hi=0.95, steps=2) == 0.0
