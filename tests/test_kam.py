import json
import math

import numpy as np
import pytest

from circlelab.circlemap import (AnalyticCircleMap, ArnoldFamily,
                                 rotation, strip_norm)
from circlelab.contfrac import ContinuedFraction
from circlelab.errors import ConjugacyNotDiffeo, Resonance, SmallDivisor
from circlelab.kam import (HermanResult, KamConfig, herman_average,
                           kam_iterate, kam_step, linearization_defect,
                           solve_homological)

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
    assert step.h.degree == 0
    assert step.f_next.degree == 0
    assert step.f_next.mean_shift == pytest.approx(GOLDEN, abs=1e-15)


def test_step_record_holds_plain_floats():
    alpha = np.float64(GOLDEN)
    f = AnalyticCircleMap(alpha, np.array([-1j * 0.005]))
    rec = kam_step(f, alpha, 8, 16, 0.02).record
    assert type(rec.norm_v) is float
    assert type(rec.mean_shift) is float


def test_kam_step_quadratic_drop():
    f = AnalyticCircleMap(GOLDEN, np.array([-1j * 0.005]))  # 0.01 sin
    step = kam_step(f, GOLDEN, 8, 16, 0.02)
    norm2 = strip_norm(step.f_next, rotation(GOLDEN), 0.015)
    assert norm2 < 5e-4  # order |v|^2 ~ 1e-4
    assert step.record.norm_v > 1e-2 * 0.9


def test_oversized_correction_rejected():
    # small alpha means a small k=1 divisor: the solved correction exceeds
    # the diffeomorphism budget
    f = AnalyticCircleMap(0.02, np.array([-1j * 0.012]))
    with pytest.raises(ConjugacyNotDiffeo):
        kam_step(f, 0.02, 4, 8, 0.02)


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
    # mean shift is quadratically small along the run, down to the floor
    # set by the tuning mismatch |rho(f) - alpha|
    for s in res.trace.steps:
        assert s.mean_shift <= 10.0 * s.norm_v ** 2 + 5e-13


def test_iterate_rejects_untuned_map():
    f = ArnoldFamily(0.3).map_at(0.55)  # rho far from golden
    with pytest.raises(ValueError):
        kam_iterate(f, KamConfig(ContinuedFraction.golden()))


def test_iterate_liouville_target_stops():
    # quotients a_{n+1} = round(e^{a_n}) put a resonance at the second
    # denominator q_2 = 61: a perturbation with energy there dies in the
    # solve once the truncation covers it.  Certified tuning to a target
    # this close to a rational is orbit-infeasible, so the rotation check
    # is switched off; the divisor behaviour is what is under test.
    lio = ContinuedFraction.rule("exp_round", a1=3)
    alpha = lio.value()
    rng = np.random.default_rng(8)
    co = 1e-4 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    co /= np.arange(1, 65) ** 2
    f = AnalyticCircleMap(alpha, co)
    cfg = KamConfig(lio, base_truncation=64, threshold=1e-13)
    res = kam_iterate(f, cfg, check_rotation=False)
    assert res.verdict in ("resonance_stop", "diverged")
    if res.verdict == "resonance_stop":
        assert "61" in res.trace.note


def test_config_violations_reported():
    cfg = KamConfig(ContinuedFraction.golden(), strips=(0.02, 0.03, 0.01),
                    max_steps=2)
    assert any("strictly decreasing" in v for v in cfg.violations())
    cfg2 = KamConfig(ContinuedFraction.golden(), truncations=(16, 8),
                     max_steps=2)
    assert any("nondecreasing" in v for v in cfg2.violations())
    assert KamConfig(ContinuedFraction.golden()).violations() == []


def test_empty_schedules_are_named_violations():
    golden = ContinuedFraction.golden()
    assert KamConfig(golden, strips=()).violations() == [
        "strip schedule must not be empty"]
    assert KamConfig(golden, truncations=()).violations() == [
        "truncation schedule must not be empty"]


def test_trace_csv_round_trip(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    text = res.trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("step,norm_v")
    assert len(lines) == len(res.trace.steps) + 2
    footer = json.loads(lines[-1].lstrip("# "))
    assert footer["verdict"] == "linearized"


def test_trace_quadratic_budget_holds_with_recorded_constant(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    c = res.trace.quad_constant
    assert math.isfinite(c) and c > 0
    norms = [s.norm_v for s in res.trace.steps]
    for a, b in zip(norms, norms[1:]):
        if a > 1e-13 and b > 1e-13:
            assert b <= c * a**1.5 * (1 + 1e-12)


def test_defect_matches_direct_conjugation(arnold_b005_golden):
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    d = linearization_defect(res.h, arnold_b005_golden, GOLDEN, grid=512)
    assert d <= res.trace.defect * 1.5 + 1e-12


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

    cfg = KamConfig(ContinuedFraction.golden(), max_steps=8, threshold=1e-9)
    thr = epsilon_threshold_scan(fam, cfg, lo=0.0, hi=0.12, steps=2)
    # everything this small linearizes, so the bisection climbs to the top
    assert thr == pytest.approx(0.09)
    assert kam_iterate(fam(thr), cfg).verdict == "linearized"
