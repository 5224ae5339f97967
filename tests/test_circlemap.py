import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlelab
import circlelab.rotation as R
from circlelab.circlemap import (CERT_GRID, AnalyticCircleMap, ArnoldFamily,
                                 derivative, evaluate, inverse, iterate,
                                 log_derivative_variation, map_from_json,
                                 orbit_lift, orbit_log_derivative, rotation)
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


@pytest.mark.parametrize("shape", [(37,), (6, 5)])
def test_iterate_on_an_array_is_the_last_orbit_point(shape):
    f = ArnoldFamily(0.3).map_at(0.61)
    xs = np.linspace(-0.7, 1.9, math.prod(shape)).reshape(shape)
    for n in (1, 2, 21):
        got = iterate(f, xs, n)
        assert got.shape == shape
        assert np.array_equal(got, orbit_lift(f, xs, n)[-1])
    same = iterate(f, xs.tolist(), 0)
    assert isinstance(same, np.ndarray) and same.dtype == float
    assert np.array_equal(same, xs)


@pytest.mark.parametrize("n", [-1, -2])
def test_orbit_lift_rejects_negative_length(n):
    with pytest.raises(ValueError, match="n must be >= 0"):
        orbit_lift(ArnoldFamily(0.3).map_at(0.61), 0.0, n)


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
    assert np.max(np.abs(evaluate(f, x) - y)) < 4e-15
    ys = np.sort(y)
    assert np.all(np.diff(inverse(f, ys)) >= 0)
    assert inverse(rotation(0.3), 0.7) == pytest.approx(0.4)
    assert inverse(f, 0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("m", [64, 4096])
def test_inverse_converges_in_few_newton_steps(monkeypatch, m):
    # a Newton step that rounds to zero marks a converged point; bisecting
    # it again costs ~40 evaluations, and the loop runs until every point
    # has converged
    import circlelab.circlemap as cm
    calls = []
    real = cm._eval_modes

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cm, "_eval_modes", counted)
    f = ArnoldFamily(0.5).map_at(0.0)
    y = np.arange(m) / m
    x = inverse(f, y)
    assert len(calls) <= 20
    monkeypatch.undo()
    assert np.max(np.abs(evaluate(f, x) - y)) <= 4.5e-16


@pytest.mark.parametrize("y", [1000.4567, -1000.4567, 1e7 + 0.25])
def test_inverse_converges_far_from_the_unit_interval(y):
    # an absolute stop of 1e-14 lies below an ulp of y once |y| is ~1000
    f = ArnoldFamily(0.5).map_at(0.3)
    x = inverse(f, y)
    assert abs(evaluate(f, x) - y) <= 2 * np.spacing(abs(y))


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


@pytest.mark.parametrize("b", [0.999, 0.9999])
def test_arnold_maps_near_b_one_certify(b):
    # min Df = 1 - b: the coefficient bound is exact for the family, where a
    # 2048-point grid with its Lipschitz margin (2 pi b / 4096) is not
    f = ArnoldFamily(b).map_at(0.6)
    assert 0.0 < f.df_min <= 1.0 - b
    assert f.df_min == pytest.approx(1.0 - b, rel=1e-9)


def test_certified_df_min_is_a_lower_bound():
    with pytest.raises(NotDiffeomorphism):
        AnalyticCircleMap(0.3, np.array([-0.5j]))
    # scale 0.02 certifies mostly by the coefficient bound, a few by the grid
    x = np.arange(1 << 14) / (1 << 14)
    for seed in range(20):
        f = small_map(seed, degree=4, scale=0.02)
        assert 0.0 < f.df_min <= derivative(f, x, 1).min()


def test_certification_refines_a_grid_whose_margin_fails():
    # Df = 1 + 0.52 cos(2 pi 100 x) + 0.52 sin(2 pi 200 x) has min about
    # 0.085: the coefficient bound (1 - 1.04) fails, and so does the
    # 2048-point grid, whose Lipschitz margin is about 0.24
    co = np.zeros(200, complex)
    co[99] = -0.52j / (4 * math.pi * 100)
    co[199] = -0.52 / (4 * math.pi * 200)
    f = AnalyticCircleMap(0.3, co)
    k = np.arange(1, 201)
    margin = np.sum(2 * (2 * math.pi * k) ** 2 * np.abs(co)) / (2 * CERT_GRID)
    coarse = np.arange(CERT_GRID) / CERT_GRID
    assert 0.0 < derivative(f, coarse, 1).min() < margin
    x = np.arange(1 << 18) / (1 << 18)
    assert 0.0 < f.df_min <= derivative(f, x, 1).min()


def test_affine_shift_family_retunes_constant_only():
    from circlelab.circlemap import AffineShiftFamily
    base = small_map(5, degree=3, scale=0.004)
    fam = AffineShiftFamily(base)
    g = fam.map_at(0.7)
    assert g.mean_shift == 0.7
    assert np.array_equal(g.coeffs, base.coeffs)


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


def test_package_exports_no_module_but_errors():
    """`__all__` names values, not submodules: the map `rotation` lives at
    `circlelab.circlemap.rotation`, and `circlelab.rotation` is the
    rotation-number module."""
    modules = [name for name in circlelab.__all__
               if isinstance(getattr(circlelab, name), types.ModuleType)]
    assert modules == ["errors"]
    assert R.rho_interval is circlelab.rho_interval
