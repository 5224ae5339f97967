"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with `pytest tests/test_acceptance.py -v -s`).

Stated runtime budgets are design targets on commodity hardware; the
assertions here guard the tolerances, and a 10x budget ceiling catches
pathological slowdowns without making the suite machine-sensitive.
"""

import json
import math
import time

import numpy as np
import pytest

from circlelab.arithmetic import (brjuno_function, classify, condition_h_check)
from circlelab.circlemap import ArnoldFamily, rotation
from circlelab.cli import main
from circlelab.contfrac import ContinuedFraction
from circlelab.geometry import c1_criterion, geometry_report, koksma_check
from circlelab.kam import KamConfig, herman_average, kam_iterate
from circlelab.rotation import rho_interval, rotation_number_birkhoff

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, *a):
        dt = time.time() - self.t0
        if exc_type is None:
            print(f"\n[PASS] {self.name}  ({dt:.2f}s, budget {self.seconds:g}s)")
            assert dt < 10 * self.seconds, f"runtime {dt:.1f}s far over budget"
        else:
            print(f"\n[FAIL] {self.name}  ({dt:.2f}s)")
        return False


@pytest.fixture(scope="module")
def suite(tuned):
    """Tuned maps shared across criteria."""
    out = {}
    for b in (0.05, 0.3):
        for name in ("golden", "sqrt2"):
            out[(b, name)] = ArnoldFamily(b).map_at(tuned(b, name))
    out[(0.0, "golden")] = rotation(tuned(0.0, "golden"))
    out[(0.0, "sqrt2")] = rotation(tuned(0.0, "sqrt2"))
    return out


def test_criterion_01_rotation_baseline():
    with Budget("1. rotation baseline: rho(T_alpha) = alpha to 1e-12, "
                "both estimators, 10 random alpha", 1.0):
        rng = np.random.default_rng(20260808)
        for _ in range(10):
            alpha = rng.uniform(0.02, 0.98)
            f = rotation(alpha)
            bk = rotation_number_birkhoff(f, rng.uniform(0, 1), 1000)
            assert abs(bk.value - alpha) < 1e-12
            cr = rho_interval(f, 1e-12)
            assert abs(cr.value - alpha) < 1e-12


def test_criterion_02_homological_exactness():
    with Budget("2. homological exactness: residual modes below 1e-12 for "
                "20 random polynomials at the golden mean", 1.0):
        from circlelab.kam import solve_homological
        rng = np.random.default_rng(7)
        trunc = 8
        for _ in range(20):
            deg = int(rng.integers(2, 9))
            co = 1e-2 * (rng.standard_normal(deg) + 1j * rng.standard_normal(deg))
            co /= np.arange(1, deg + 1) ** 2
            w = solve_homological(co, GOLDEN, trunc)
            m = 8 * max(deg, trunc)
            x = np.arange(m) / m

            def ev(c, t):
                k = np.arange(1, len(c) + 1)
                return 2.0 * np.real(np.exp(2j * np.pi * np.outer(t, k)) @ c)

            res = ev(w, x + GOLDEN) - ev(w, x) + ev(co, x)
            modes = np.fft.rfft(res) / m
            assert float(np.max(np.abs(modes[1:trunc + 1]))) < 1e-12


def test_criterion_03_kam_quadratic_decay(suite):
    with Budget("3. quadratic decay: arnold b=0.05 at the golden mean "
                "linearizes, exponent >= 1.5, defect < 1e-8", 10.0):
        res = kam_iterate(suite[(0.05, "golden")],
                          KamConfig(ContinuedFraction.golden()))
        assert res.verdict == "linearized"
        assert res.trace.decay_exponent >= 1.5
        assert res.trace.defect < 1e-8


def test_criterion_04_brjuno_self_consistency():
    with Budget("4. Brjuno self-consistency at depth 40 for 100 random x; "
                "golden value matches the fixed-point closed form", 1.0):
        rng = np.random.default_rng(31337)
        checked = 0
        while checked < 100:
            x = rng.uniform(0.01, 0.99)
            try:
                bx = brjuno_function(x, 40)
                gx = 1.0 / x - math.floor(1.0 / x)
                bg = brjuno_function(gx, 40)
            except Exception:
                continue
            assert abs(bx - (math.log(1.0 / x) + x * bg)) < 1e-6
            checked += 1
        ref = math.log(1.0 / GOLDEN) / (1.0 - GOLDEN)
        assert abs(brjuno_function(GOLDEN, 40) - ref) < 1e-6


def test_criterion_05_condition_h_discrimination():
    with Budget("5. linearization-condition discrimination: golden and "
                "[2,2,...] pass, the e^sqrt growth rule does not", 5.0):
        for cf in (ContinuedFraction.golden(), ContinuedFraction.periodic([2])):
            v = condition_h_check(cf, 10, 20, 40)
            assert v.kind == "pass_to_depth"
        tower = ContinuedFraction.rule("exp_sqrt_ceil", a1=3)
        v = condition_h_check(tower, 10, 20, 40)
        assert v.kind in ("fail_at", "inconclusive")


def test_criterion_06_inclusion_order_consistency():
    with Budget("6. inclusion order: over a 20-number set, no certified "
                "Diophantine pass coexists with fail_at, no pass with a "
                "diverging sum", 5.0):
        numbers = [
            ContinuedFraction.golden(),
            ContinuedFraction.periodic([2]),
            ContinuedFraction.periodic([1, 2]),
            ContinuedFraction.periodic([2, 1]),
            ContinuedFraction.periodic([3]),
            ContinuedFraction.periodic([1, 1, 2]),
            ContinuedFraction.periodic([2, 2, 1]),
            ContinuedFraction.periodic([4]),
            ContinuedFraction.periodic([1, 3]),
            ContinuedFraction.periodic([5]),
            ContinuedFraction.periodic([2, 3]),
            ContinuedFraction.periodic([1, 2, 3]),
            ContinuedFraction.rule("bounded_prng", a1=2, seed=1),
            ContinuedFraction.rule("bounded_prng", a1=3, seed=2),
            ContinuedFraction.rule("bounded_prng", a1=1, seed=3),
            ContinuedFraction.rule("bounded_prng", a1=5, seed=4),
            ContinuedFraction.rule("exp_round", a1=3),
            ContinuedFraction.rule("exp_sqrt_ceil", a1=3),
            ContinuedFraction.rule("log_power", a1=8, c=2.0),
            ContinuedFraction.rule("exp_qn_round", a1=2),
        ]
        assert len(numbers) == 20
        for cf in numbers:
            v = classify(cf)
            if v.diophantine.certified and v.condition_h is not None:
                assert v.condition_h.kind != "fail_at"
            if v.condition_h is not None and \
                    v.condition_h.kind == "pass_to_depth":
                assert not v.brjuno.diverging


def test_criterion_07_partition_tiling(suite):
    with Budget("7. partition tiling: tuned arnold b=0.3, levels <= 6 tile "
                "within 1e-9 and satisfy the three-term sandwich", 10.0):
        rep = geometry_report(suite[(0.3, "golden")], 6)
        for lev in rep.levels:
            assert abs(lev.tiling_total - 1.0) <= 1e-9
            assert lev.max_overlap <= 1e-9
            assert lev.m - 1e-9 <= lev.qn_distance <= lev.M + 1e-9


def test_criterion_08_classical_denjoy(suite):
    with Budget("8. classical distortion bound: max |ln Df^{q_n}| within "
                "1e-8 of Var(ln Df) for n <= 8", 10.0):
        rep = geometry_report(suite[(0.3, "golden")], 8)
        for dj in rep.denjoy:
            assert dj.classical_residual <= 1e-8


def test_criterion_09_c1_kam_cross_validation(suite):
    with Budget("9. cross-validation: bounded extrema-ratio trend exactly "
                "on the linearized maps of the 6-map suite", 60.0):
        targets = {"golden": ContinuedFraction.golden(),
                   "sqrt2": ContinuedFraction.periodic([2])}
        for (b, name), f in suite.items():
            res = kam_iterate(f, KamConfig(targets[name]))
            ratios, trend = c1_criterion(f, 6)
            assert res.verdict == "linearized", (b, name)
            assert trend == "bounded_trend", (b, name, ratios)


def test_criterion_10_herman_averaging(suite):
    with Budget("10. averaged conjugacies: defect decreasing along "
                "denominator times, averaging identity to 1e-10", 10.0):
        f = suite[(0.05, "golden")]
        defects = []
        for q in (5, 8, 13, 21, 34):  # the 4th..8th golden denominators
            h = herman_average(f, q, grid=1024)
            defects.append(h.defect)
            assert h.identity_residual < 1e-10
        assert all(b < a for a, b in zip(defects, defects[1:]))


def test_criterion_11_koksma(suite):
    with Budget("11. bounded-variation cancellation: no violations over 100 "
                "pairs for sin and ln Df at levels <= 6", 5.0):
        rng = np.random.default_rng(99)
        pairs = list(zip(rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)))
        f = suite[(0.3, "golden")]
        rho = rho_interval(f, 1e-10).value
        for n in (4, 5, 6):
            v = koksma_check(lambda t: np.sin(2 * np.pi * t), GOLDEN, n,
                             pairs, var=4.0)
            assert v <= 1e-8
            v = koksma_check(f, rho, n, pairs)
            assert v <= 1e-8


def test_criterion_12_bootstrap_fixed_point():
    with Budget("12. regularity bootstrap: strictly increasing into "
                "[3 - 1e-6, 3] within 60 steps", 1.0):
        from circlelab.geometry import bootstrap_schedule
        s = bootstrap_schedule(5.0, 0.0, 0.0, 60)
        assert all(b > a for a, b in zip(s, s[1:]))
        assert 3.0 - 1e-6 <= s[-1] <= 3.0


def test_criterion_13_scan_determinism(tmp_path):
    with Budget("13. determinism: tongue scan byte-identical across 1 and 8 "
                "workers at a fixed seed", 60.0):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({
            "scan": {"na": 50, "nb": 20, "b_min": 0.0, "b_max": 0.95,
                     "n_max": 400}}))
        d1, d8 = tmp_path / "w1", tmp_path / "w8"
        d1.mkdir()
        d8.mkdir()
        assert main(["tongue-scan", "--config", str(cfg), "--out", str(d1),
                     "--workers", "1", "--seed", "42"]) == 0
        assert main(["tongue-scan", "--config", str(cfg), "--out", str(d8),
                     "--workers", "8", "--seed", "42"]) == 0
        b1 = (d1 / "tongues.csv").read_bytes()
        b8 = (d8 / "tongues.csv").read_bytes()
        assert b1 == b8
        assert len(b1.splitlines()) == 1001
