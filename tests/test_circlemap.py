import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab.circlemap import (AnalyticCircleMap, ArnoldFamily,
                                 compose_project,
                                 conjugate_project, derivative, evaluate,
                                 inverse, iterate, log_derivative_variation,
                                 map_from_json, orbit_log_derivative, rotation,
                                 strip_norm)
from circlelab.errors import NotDiffeomorphism

RNG = np.random.default_rng(42)


def small_map(seed=0, degree=3, scale=0.01, c=0.4):
    rng = np.random.default_rng(seed)
    co = scale * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
    co /= np.arange(1, degree + 1) ** 2
    return AnalyticCircleMap(c, co)


def test_pure_rotation_values():
    f = ArnoldFamily(0.0).map_at(0.3)
    assert evaluate(f, 0.2) == pytest.approx(0.5)
    assert derivative(f, 0.77, 1) == pytest.approx(1.0)


def test_arnold_derivative_closed_form():
    f = ArnoldFamily(0.5).map_at(0.0)
    x = np.linspace(0, 1, 33)
    assert np.allclose(derivative(f, x, 1), 1.0 + 0.5 * np.cos(2 * np.pi * x),
                       atol=1e-14)
    assert derivative(f, 0.5, 1) == pytest.approx(0.5)


def test_lift_equivariance():
    f = small_map(3, degree=5, scale=0.02)
    x = RNG.uniform(-2, 2, 100)
    assert np.max(np.abs(evaluate(f, x + 1) - evaluate(f, x) - 1.0)) < 1e-13


def test_not_diffeomorphism_rejected():
    with pytest.raises(NotDiffeomorphism):
        ArnoldFamily(1.0)
    with pytest.raises(NotDiffeomorphism):
        AnalyticCircleMap(0.3, np.array([0.0 - 0.5j]))  # slope hits zero


def test_iterate_rotation_displacement():
    f = rotation(0.25)
    assert iterate(f, 0.1, 8) == pytest.approx(0.1 + 2.0)


def test_orbit_log_derivative_rotation_zero():
    f = rotation((math.sqrt(5) - 1) / 2)
    for r in range(4):
        assert orbit_log_derivative(f, 0.3, 50, r) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_orbit_log_derivative_matches_differencing(order):
    # r-th output against the central first difference of the (r-1)-th
    f = ArnoldFamily(0.3).map_at(0.61)
    n, x0, h = 40, 0.37, 1e-5
    fd = (orbit_log_derivative(f, x0 + h, n, order - 1)
          - orbit_log_derivative(f, x0 - h, n, order - 1)) / (2 * h)
    got = orbit_log_derivative(f, x0, n, order)
    assert got == pytest.approx(fd, rel=1e-5)


def test_orbit_log_derivative_chain_rule_identity():
    # D ln Df^n(x) = sum over the orbit of (D ln Df)(f^i x) Df^i(x)
    f = ArnoldFamily(0.4).map_at(0.55)
    x0, n = 0.21, 25
    lhs = orbit_log_derivative(f, x0, n, 1)
    rhs = 0.0
    x = x0
    a = 1.0
    for _ in range(n):
        g1 = derivative(f, x, 2) / derivative(f, x, 1)
        rhs += g1 * a
        a *= derivative(f, x, 1)
        x = evaluate(f, x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inverse_round_trip_and_monotone():
    f = ArnoldFamily(0.5).map_at(0.0)
    y = RNG.uniform(-1, 2, 50)
    x = inverse(f, y)
    assert np.max(np.abs(evaluate(f, x) - y)) < 1e-13
    ys = np.sort(y)
    assert np.all(np.diff(inverse(f, ys)) >= 0)
    assert inverse(rotation(0.3), 0.7) == pytest.approx(0.4)
    assert inverse(f, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_compose_rotations_exact():
    res = compose_project(rotation(0.25), rotation(0.5), 0)
    assert res.map.mean_shift == pytest.approx(0.75, abs=1e-15)
    assert res.map.degree == 0
    assert res.tail_energy == 0.0
    assert not res.alias_warning


def test_compose_with_identity_preserves_coefficients():
    g = small_map(7, degree=4, scale=0.01)
    res = compose_project(g, rotation(0.0), 4)
    assert np.max(np.abs(res.map.coeffs - g.coeffs)) < 1e-12
    assert res.map.mean_shift == pytest.approx(g.mean_shift, abs=1e-12)


def test_rotation_compose_anything_exact():
    f = small_map(9, degree=5, scale=0.015)
    res = compose_project(rotation(0.3), f, 5)
    assert np.max(np.abs(res.map.coeffs - f.coeffs)) < 1e-13
    assert res.map.mean_shift == pytest.approx(f.mean_shift + 0.3, abs=1e-13)
    assert res.tail_energy < 1e-28


def test_conjugation_matches_pointwise_sampling():
    f = ArnoldFamily(0.3).map_at(0.61)
    h = AnalyticCircleMap(0.0, np.array([0.02 + 0.01j]))
    res = conjugate_project(h, f, 16)
    x = RNG.uniform(0, 1, 64)
    direct = evaluate(h, evaluate(f, inverse(h, x)))
    assert np.max(np.abs(evaluate(res.map, x) - direct)) < \
        10 * math.sqrt(res.tail_energy) + 1e-12


def test_alias_warning_fires_on_aggressive_truncation():
    # composing two one-harmonic maps creates higher harmonics; projecting
    # back to degree 1 discards them, which a tight tolerance must flag
    f = ArnoldFamily(0.3).map_at(0.3)
    res = compose_project(f, f, 1, alias_tol=1e-12)
    assert res.alias_warning
    assert res.tail_energy > 0


def test_strip_norm_single_mode():
    eps, nu = 1e-3, 0.2
    f = AnalyticCircleMap(0.0, np.array([eps]))
    sn = strip_norm(f, rotation(0.0), nu)
    assert sn == pytest.approx(2 * eps * math.exp(2 * math.pi * nu), rel=1e-12)


def test_strip_norm_orders_and_monotonicity():
    f = small_map(11, degree=8, scale=0.005)
    g = rotation(0.4)
    at0 = strip_norm(f, g, 0.0)
    # the bound covers the real axis, where it is sampled directly
    x = np.arange(4096) / 4096
    assert at0 >= float(np.max(np.abs(evaluate(f, x) - evaluate(g, x))))
    prev = at0
    for nu in (0.05, 0.1, 0.2):
        cur = strip_norm(f, g, nu)
        assert cur >= prev
        prev = cur
    # strip-boundary samples at nu=0.1 stay under the coefficient bound
    nu = 0.1
    z = RNG.uniform(0, 1, 4096) + 1j * nu
    k = np.arange(1, f.degree + 1)
    vals = (f.mean_shift - g.mean_shift
            + (np.exp(2j * np.pi * np.outer(z, k)) @ f.coeffs)
            + (np.exp(-2j * np.pi * np.outer(np.conj(z), k)) @ np.conj(f.coeffs)))
    assert strip_norm(f, g, nu) >= np.max(np.abs(vals)) - 1e-12


def test_variation_rotation_zero():
    assert log_derivative_variation(rotation(0.37)) == 0.0


@pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 0.8])
def test_variation_arnold_closed_form(b):
    f = ArnoldFamily(b).map_at(0.2)
    ref = 2.0 * math.log((1.0 + b) / (1.0 - b))
    assert log_derivative_variation(f) == pytest.approx(ref, rel=1e-9)


def test_variation_translation_invariant():
    base = small_map(13, degree=3, scale=0.008)
    v0 = log_derivative_variation(base)
    shifted_coeffs = base.coeffs * np.exp(2j * np.pi * np.arange(1, 4) * 0.3)
    shifted = AnalyticCircleMap(base.mean_shift, shifted_coeffs)
    assert log_derivative_variation(shifted) == pytest.approx(v0, rel=1e-8)


def test_variation_at_least_grid_sum():
    f = small_map(17, degree=6, scale=0.01)
    x = np.arange(2048) / 2048.0
    vals = np.log(derivative(f, x, 1))
    grid_var = float(np.sum(np.abs(np.diff(vals))) + abs(vals[0] - vals[-1]))
    assert log_derivative_variation(f) >= grid_var - 1e-12


def test_map_json_round_trip():
    f = small_map(21, degree=3, scale=0.02, c=0.618)
    back = map_from_json(f.to_json())
    assert back.mean_shift == f.mean_shift
    assert np.array_equal(back.coeffs, f.coeffs)
    arn = map_from_json({"family": {"kind": "arnold", "a": 0.61, "b": 0.3}})
    assert arn.mean_shift == 0.61
    assert arn.degree == 1


@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50)
def test_arnold_family_always_valid(b, a):
    f = ArnoldFamily(b).map_at(a)
    assert f.df_min > 0


def test_affine_shift_family_retunes_constant_only():
    from circlelab.circlemap import AffineShiftFamily
    base = small_map(5, degree=3, scale=0.004)
    fam = AffineShiftFamily(base)
    g = fam.map_at(0.7)
    assert g.mean_shift == 0.7
    assert np.array_equal(g.coeffs, base.coeffs)
    assert fam.displacement_bound() == base.displacement_bound()


# ---------------------------------------------------------------------------
# the Horner evaluator against a 30-digit oracle


def _mp_derivative(mp, f, x, order):
    """D^order f(x) summed mode by mode in 30-digit arithmetic at the exact
    float x."""
    xm = mp.mpf(float(x))
    s = mp.mpf(0)
    for k, c in enumerate(f.coeffs, start=1):
        w = (2j * mp.pi * k) ** order * mp.mpc(c.real, c.imag)
        s += 2 * mp.re(w * mp.expjpi(2 * k * xm))
    base = xm + f.mean_shift if order == 0 else (1 if order == 1 else 0)
    return base + s


ORACLE_X = np.array([0.0, 0.125, 0.3183, 0.5, 0.77, 0.999, 1.0, -0.25, -3.7,
                     2.5, 7.9])


@pytest.mark.parametrize("degree", [0, 1, 16, 256])
def test_derivative_matches_mpmath_oracle(degree):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(degree)
    k = np.arange(1, degree + 1)
    co = 0.005 * (rng.standard_normal(degree)
                  + 1j * rng.standard_normal(degree)) / k ** 2
    f = AnalyticCircleMap(0.37, co)
    assert f.degree == degree
    for order in range(5):
        tol = 1e-13 * max(1.0, float(np.sum(np.abs((2 * np.pi * k) ** order * co))))
        want = [_mp_derivative(mp, f, x, order) for x in ORACLE_X]
        got = derivative(f, ORACLE_X, order)
        assert got.shape == ORACLE_X.shape
        assert max(abs(w - mp.mpf(float(g))) for w, g in zip(want, got)) <= tol
        for x, w in zip(ORACLE_X[::5], want[::5]):  # scalar in, float out
            val = derivative(f, float(x), order)
            assert type(val) is float
            assert abs(w - val) <= tol


def test_derivative_degree_zero_is_exact():
    f = rotation(0.3)
    x = np.array([-2.75, 0.0, 0.4, 3.5])
    assert np.array_equal(derivative(f, x, 0), x + 0.3)
    assert np.array_equal(derivative(f, x, 1), np.ones(4))
    for order in (2, 3, 4):
        assert np.array_equal(derivative(f, x, order), np.zeros(4))
    assert derivative(f, 0.5, 0) == 0.5 + 0.3 and type(derivative(f, 0.5, 1)) is float


def _log_derivative_per_order(f, x, n, order):
    """orbit_log_derivative's forward accumulation with every derivative of f
    taken by its own derivative() call."""
    cur = np.asarray(x, dtype=float)
    s, a, b, c = 0.0, 1.0, 0.0, 0.0
    for _ in range(n):
        f1, f2, f3, f4 = (derivative(f, cur, r) for r in range(1, 5))
        g1 = f2 / f1
        g2 = f3 / f1 - g1 * g1
        g3 = f4 / f1 - 3.0 * f3 * f2 / f1**2 + 2.0 * g1**3
        s = s + (np.log(f1), g1 * a, g2 * a * a + g1 * b,
                 g3 * a**3 + 3.0 * g2 * a * b + g1 * c)[order]
        a, b, c = (f1 * a, f2 * a * a + f1 * b,
                   f3 * a**3 + 3.0 * f2 * a * b + f1 * c)
        cur = evaluate(f, cur)
    return s


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_orbit_log_derivative_matches_per_order_calls(order):
    f = small_map(9, degree=6, scale=0.01)
    x = np.array([-0.4, 0.05, 0.5, 1.9])
    got = orbit_log_derivative(f, x, 12, order)
    want = _log_derivative_per_order(f, x, 12, order)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert orbit_log_derivative(f, 0.3, 12, order) == pytest.approx(
        float(_log_derivative_per_order(f, 0.3, 12, order)), rel=1e-13, abs=1e-13)
