import math
import random
from fractions import Fraction

import numpy as np
import pytest

import circlelab.rotation as rotation_module
from circlelab.circlemap import (AnalyticCircleMap, ArnoldFamily, evaluate,
                                 inverse, iterate, rotation)
from circlelab.contfrac import ContinuedFraction
from circlelab.errors import PeriodicOrbitDetected, TargetUnreachable
from circlelab.rotation import (RATIONAL_TOL, _estimate_from, _ReturnScan,
                                _scan_returns, _sine_only, _walk,
                                closest_return_batch, closest_returns,
                                eq_rot_check, quotients_from_returns,
                                rho_interval,
                                rotation_number_birkhoff,
                                rotation_number_closest_return, tune_parameter)
from circlelab.rotation import _N_CAP, ClosestReturn, _farey_width

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.mark.parametrize("alpha", [GOLDEN, 0.1234567891, 0.718281828])
def test_rotation_number_of_rotation_is_alpha(alpha):
    f = rotation(alpha)
    assert rotation_number_birkhoff(f, 0.3, 997).value == pytest.approx(alpha, abs=1e-12)
    est = rotation_number_closest_return(f, 0.0, depth=20, n_max=400000)
    assert est.value == pytest.approx(alpha, abs=est.error_bound)


def test_birkhoff_error_bound_consistency():
    f = ArnoldFamily(0.3).map_at(0.61)
    e1 = rotation_number_birkhoff(f, 0.0, 500)
    e2 = rotation_number_birkhoff(f, 0.0, 1000)
    assert abs(e1.value - e2.value) <= e1.error_bound + e2.error_bound


def test_golden_rotation_returns_are_fibonacci():
    rets = closest_returns(rotation(GOLDEN), 0.0, 60)
    assert [r.q for r in rets] == [1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert quotients_from_returns(rets) == [1] * 9
    signs = [math.copysign(1, r.err) for r in rets]
    assert all(s1 * s2 < 0 for s1, s2 in zip(signs, signs[1:]))


def test_sqrt2_returns_give_twos():
    rets = closest_returns(rotation(math.sqrt(2.0) - 1.0), 0.0, 200)
    assert [r.q for r in rets] == [1, 2, 5, 12, 29, 70, 169]
    assert quotients_from_returns(rets) == [2] * 6


def test_quotients_need_a_chain_from_q_equal_1():
    # signs alternate, but the first positive return is at q = 2: the chain
    # has no q_0 = 1 to start the recursion from
    rets = [ClosestReturn(2, 1, 0.1), ClosestReturn(3, 1, -0.05)]
    assert quotients_from_returns(rets) is None
    # a first negative return gets the virtual q_0 = 1 in front
    assert quotients_from_returns(rets[1:] + [ClosestReturn(4, 1, 0.01)]) \
        == [3, 1]


def test_quotients_need_the_three_term_recursion():
    # q = 1, 2, 4 alternate in sign, but 4 - 1 is no multiple of 2
    rets = [ClosestReturn(1, 0, 0.3), ClosestReturn(2, 1, -0.2),
            ClosestReturn(4, 1, 0.1)]
    assert quotients_from_returns(rets) is None
    assert quotients_from_returns(rets[:2] + [ClosestReturn(3, 1, 0.1)]) \
        == [2, 1]


def test_arnold_fixed_point_detected():
    with pytest.raises(PeriodicOrbitDetected) as exc:
        rotation_number_closest_return(ArnoldFamily(0.5).map_at(0.0), 0.0, 8, 1000)
    assert exc.value.q == 1 and exc.value.p == 0


def test_tongue_interior_detected():
    # inside the 0/1 tongue: a slightly above 0 with strong coupling; the
    # burnt-in base point sits on the attracting cycle
    f = ArnoldFamily(0.9).map_at(0.02)
    with pytest.raises(PeriodicOrbitDetected) as exc:
        rotation_number_closest_return(f, 0.1, 8, 5000, burn_in=500)
    assert exc.value.p == 0 and exc.value.q == 1


def test_tuned_map_extracts_target_quotients():
    tol = 1e-10
    a, est = tune_parameter(ArnoldFamily(0.3), ContinuedFraction.golden(), tol=tol)
    f = ArnoldFamily(0.3).map_at(a)
    # the accepted probe is the certificate: the same estimate a full
    # rescan of the tuned map gives, a bracket holding the target, tol/2 wide
    assert est == rho_interval(f, tol / 2)
    lo, hi = est.bracket
    assert lo <= GOLDEN <= hi
    assert est.error_bound == hi - lo <= tol / 2
    got = rotation_number_closest_return(f, 0.0, depth=8, n_max=100000)
    assert got.extracted_quotients[:8] == (1,) * 8
    assert abs(est.value - GOLDEN) <= 1e-10
    # the two estimators agree within their combined bounds
    b = rotation_number_birkhoff(f, 0.0, 2000)
    assert abs(b.value - got.value) <= b.error_bound + got.error_bound


def test_tuned_parameter_is_a_plain_float(tuned):
    assert type(tuned(0.3, "golden")) is float


def test_tune_b_zero_returns_target():
    a, _ = tune_parameter(ArnoldFamily(0.0), ContinuedFraction.golden(), tol=1e-10)
    assert a == pytest.approx(GOLDEN, abs=1e-10)


def test_tune_rejects_rational_target():
    with pytest.raises(ValueError):
        tune_parameter(ArnoldFamily(0.3), ContinuedFraction([2]), tol=1e-8)


def test_tune_unreachable_target():
    fam = ArnoldFamily(0.0)
    # displacement bound is 0, so a target can't sit outside a +/- pad window
    # of itself; fake unreachability via an alien family wrapper
    class Shifted:
        def map_at(self, a):
            return rotation(a * 0.0 + 0.9)  # constant rotation number

        def displacement_bound(self):
            return 0.0

    with pytest.raises(TargetUnreachable):
        tune_parameter(Shifted(), ContinuedFraction.golden(), tol=1e-8)


def test_tune_reads_only_map_at():
    class Bare:  # a family with map_at and nothing else
        map_at = staticmethod(ArnoldFamily(0.3).map_at)

    golden = ContinuedFraction.golden()
    a, est = tune_parameter(Bare(), golden, tol=1e-8)
    assert abs(est.value - GOLDEN) <= 1e-8
    assert (a, est) == tune_parameter(ArnoldFamily(0.3), golden, tol=1e-8)


def test_farey_width_is_the_narrowest_bracket():
    rng = random.Random(5)
    for _ in range(200):
        alpha, n = rng.uniform(0.0, 3.0), rng.randint(1, 80)
        x = Fraction(alpha)
        lo = max(Fraction(math.floor(x * q), q) for q in range(1, n + 1))
        hi = min(Fraction(math.floor(x * q) + 1, q) for q in range(1, n + 1))
        assert _farey_width(alpha, n) == float(hi) - float(lo)
    assert _farey_width(0.375, 8) == 0.0


def test_tune_names_a_target_no_scan_can_bracket():
    # the Farey neighbours of exp_round (a1 = 1) with q <= _N_CAP lie
    # 1.54e-9 apart, so no probe can certify it at tol 1e-9
    cf = ContinuedFraction.from_json(
        {"quotients": [1], "tail": {"kind": "rule", "name": "exp_round", "a1": 1}})
    lo, hi = cf.value_interval()
    assert _farey_width(0.5 * (lo + hi), _N_CAP) == pytest.approx(1.5432e-9, rel=1e-4)
    with pytest.raises(TargetUnreachable, match="narrower than 1.54e-09"):
        tune_parameter(ArnoldFamily(0.3), cf, tol=1e-9)


def test_tune_steers_past_locked_probes_to_a_typed_ending(monkeypatch):
    # [0; 3, 500, 500, ...] sits 2.2e-4 below 1/3, whose tongue is wide at
    # b = 0.9: the probes lock on period-3 orbits, each steering the bracket
    # by its p/q, until the bracket collapses with no certificate
    locked = []
    real = rotation_module._probe

    def probe(*args):
        try:
            return real(*args)
        except PeriodicOrbitDetected as po:
            locked.append(po.q)
            raise

    monkeypatch.setattr(rotation_module, "_probe", probe)
    with pytest.raises(TargetUnreachable, match="parameter bracket collapsed"):
        tune_parameter(ArnoldFamily(0.9), ContinuedFraction.periodic([3, 500]),
                       tol=1e-9)
    assert locked == [3] * 7


def test_monotone_in_parameter():
    fam = ArnoldFamily(0.3)
    vals = []
    for a in np.linspace(0.05, 0.95, 7):
        try:
            est = rho_interval(fam.map_at(a), 1e-6)
            vals.append(est.value)
        except PeriodicOrbitDetected as po:
            vals.append((po.p / po.q) % 1.0)
    assert all(v2 >= v1 - 1e-6 for v1, v2 in zip(vals, vals[1:]))


def test_x0_independence_within_bounds():
    f = ArnoldFamily(0.3).map_at(0.61)
    ests = [rotation_number_closest_return(f, x0, depth=10, n_max=200000)
            for x0 in (0.0, 0.31, 0.77)]
    for e1 in ests:
        for e2 in ests:
            assert abs(e1.value - e2.value) <= e1.error_bound + e2.error_bound


def test_conjugation_invariance_of_rotation_number():
    f = ArnoldFamily(0.2).map_at(0.61)
    h = AnalyticCircleMap(0.0, np.array([0.015 + 0.01j]))
    # h o f o h^{-1} sampled through `inverse` and projected onto 16 modes
    x = np.arange(64) / 64
    c = np.fft.rfft(evaluate(h, evaluate(f, inverse(h, x))) - x) / 64
    g = AnalyticCircleMap(c[0].real, c[1:17])
    ef = rho_interval(f, 1e-8)
    eg = rho_interval(g, 1e-8)
    # conjugation changes the map but not the rotation number; the projected
    # conjugate carries a small spectral tail, so allow it in the bound
    assert abs(ef.value - eg.value) <= ef.error_bound + eg.error_bound + 1e-7


def test_eq_rot_residual_rotation_zero():
    assert eq_rot_check(rotation(GOLDEN), 144) < 1e-12


def test_eq_rot_residual_small_at_denominator_times():
    a, _ = tune_parameter(ArnoldFamily(0.3), ContinuedFraction.golden(), tol=1e-10)
    f = ArnoldFamily(0.3).map_at(a)
    res_q = eq_rot_check(f, 55)      # a closest-return denominator
    res_generic = eq_rot_check(f, 50)
    assert res_q < 10.0 / 55
    assert res_q < res_generic


def _mp_lift_orbit(f, qs, dps=40):
    """{q: f^q(0)} from a dps-digit mpmath orbit of the lift."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        c = mp.mpf(f.mean_shift)
        modes = [(2 * mp.pi * k, mp.mpf(2.0 * v.real), mp.mpf(-2.0 * v.imag))
                 for k, v in enumerate(f.coeffs.tolist(), 1)]
        x = mp.mpf(0)
        out = {}
        for q in range(1, max(qs) + 1):
            s = c
            for k2p, ca, cb in modes:
                t = k2p * x
                s += ca * mp.cos(t) + cb * mp.sin(t)
            x += s
            if q in qs:
                out[q] = x
        return out


def test_return_errors_do_not_drift(arnold_b005_golden):
    # deep returns of the tuned golden map against a 40-digit orbit: an
    # orbit kept on the unreduced lift (size ~q) rounds at ~q * 1e-16 per
    # step and reads these errors off by ~1e-11 to 1e-10
    f = arnold_b005_golden
    qs = (46368, 75025)
    scan = _scan_returns(f, 0.0, max(qs), lambda s: False, RATIONAL_TOL)
    got = {r.q: r for r in scan.returns if r.q in qs}
    assert sorted(got) == list(qs)
    exact = _mp_lift_orbit(f, qs)
    for q in qs:
        r = got[q]
        assert abs(r.err - float(exact[q] - r.p)) <= 1e-12
    # the plain walk reads the same reduced orbit: its lift is one rounding
    # (half an ulp of 46368) off, its reduced end point stays within 1e-13
    q = qs[-1]
    assert abs(iterate(f, 0.0, q) - float(exact[q])) <= 4e-12
    assert abs(_walk(f, 0.0, q).y - float(exact[q] % 1)) <= 1e-13


def test_scalar_in_gives_float_out():
    f = ArnoldFamily(0.3).map_at(0.61)
    assert type(iterate(f, 0.25, 10)) is float
    scan = _scan_returns(f, 0.0, 2000, lambda s: False, RATIONAL_TOL)
    for r in scan.returns:
        assert type(r.err) is float and type(r.overall) is bool
    for est in (rho_interval(f, 1e-6),
                rotation_number_closest_return(f, 0.0, depth=6),
                rotation_number_birkhoff(f, 0.0, 100)):
        assert type(est.value) is float and type(est.error_bound) is float


T, F = True, False
# (q, p, overall) of every return recorded in 20000 steps from x0 = 0: what
# a scan that offers every step to _ReturnScan.offer records
_RETURNS_REFERENCE = {
    (0.05, 0.61): [
        (1, 1, T), (2, 1, T), (3, 2, T), (5, 3, T), (8, 5, F), (13, 8, F),
        (18, 11, T), (23, 14, F), (41, 25, T), (59, 36, T), (100, 61, T),
        (159, 97, F), (259, 158, T), (359, 219, F), (618, 377, F),
        (877, 535, F), (1136, 693, T), (1395, 851, T), (2531, 1544, F),
        (3926, 2395, F), (5321, 3246, F), (6716, 4097, F), (8111, 4948, F),
        (9506, 5799, F), (10901, 6650, T), (12296, 7501, T),
    ],
    (0.9, 0.605): [
        (1, 1, T), (2, 1, T), (3, 2, F), (5, 3, T), (8, 5, F), (13, 8, T),
        (18, 11, F), (31, 19, T), (44, 27, T), (57, 35, F), (101, 62, F),
        (145, 89, F), (189, 116, F), (233, 143, T), (277, 170, F),
        (510, 313, T), (743, 456, T), (1253, 769, F), (1996, 1225, F),
        (2739, 1681, F), (3482, 2137, T), (4225, 2593, F), (7707, 4730, F),
        (11189, 6867, F), (14671, 9004, F), (18153, 11141, F),
    ],
    (0.3, 0.4142): [
        (1, 0, T), (2, 1, T), (3, 1, F), (5, 2, T), (7, 3, F), (12, 5, T),
        (17, 7, T), (29, 12, T), (46, 19, T), (75, 31, T), (121, 50, F),
        (196, 81, T), (271, 112, F), (467, 193, F), (663, 274, F),
        (859, 355, T), (1055, 436, T), (1914, 791, T), (2969, 1227, T),
        (4883, 2018, T), (7852, 3245, F), (12735, 5263, F), (17618, 7281, F),
    ],
}


@pytest.mark.parametrize("b, a", sorted(_RETURNS_REFERENCE))
def test_scan_records_the_reference_returns(b, a):
    f = ArnoldFamily(b).map_at(a)
    scan = _scan_returns(f, 0.0, 20000, lambda s: False, RATIONAL_TOL)
    got = [(r.q, r.p, r.overall) for r in scan.returns]
    assert got == _RETURNS_REFERENCE[(b, a)]


def _reference_walk(f, n: int, x0: float = 0.0) -> tuple:
    """(q, p, err, overall) of every return in n steps from x0, walked with
    the full mode loop (cosine term included) and an unconditional floor on
    every step, every step offered to _ReturnScan.offer; and the end state
    (disp, y).  e is y - y0 wrapped into [-1/2, 1/2), p is w plus the wrap."""
    scan = _ReturnScan()
    y0 = x0 - math.floor(x0)
    y, w = y0, 0
    for q in range(1, n + 1):
        s = f.mean_shift
        for k2p, ca, cb in f._scalar_modes:
            t = k2p * y
            s += ca * math.cos(t) + cb * math.sin(t)
        y += s
        k = math.floor(y)
        y -= k
        w += k
        d = y - y0
        up, down = d >= 0.5, d < -0.5
        scan.offer(q, w + up - down, d - 1.0 if up else d + 1.0 if down else d)
    return ([(r.q, r.p, r.err, r.overall) for r in scan.returns],
            (w + (y - y0), y))


def _records(f, n: int, x0: float = 0.0) -> tuple:
    scan = _scan_returns(f, x0, n, lambda s: False, RATIONAL_TOL)
    return ([(r.q, r.p, r.err, r.overall) for r in scan.returns],
            (scan.disp, scan.y))


def test_long_scan_equals_the_reference_walk(arnold_b005_golden):
    # the tuned map's orbit to q = 196418 takes the sine-only step
    assert _records(arnold_b005_golden, 196418) == _reference_walk(
        arnold_b005_golden, 196418)


_REFERENCE_MAPS = [
    ("arnold_a-0.4", ArnoldFamily(0.3).map_at(-0.4)),  # below [0, 1) on 40%
    ("arnold_a-1.4", ArnoldFamily(0.3).map_at(-1.4)),  # below on every step
    ("arnold_a2.3", ArnoldFamily(0.3).map_at(2.3)),    # above on every step
    ("one_mode_cos", AnalyticCircleMap(0.6, np.array([0.01 + 0.02j]))),
    ("degree2", AnalyticCircleMap(0.41, np.array([0.012 - 0.004j,
                                                  0.003 + 0.002j]))),
]
# a base point y0 off 0 splits the steps that can record no return into two
# windows of [0, 1), one on each side of y0; 1 - 2**-53 puts y0 at the top
_REFERENCE_X0 = [0.0, 0.37, 0.5, 0.9999999, 1.0 - 2.0 ** -53, -0.25]


@pytest.mark.parametrize("f, x0", [
    pytest.param(f, x0, id=name if x0 == 0.0 else f"{name}-x0={x0!r}")
    for name, f in _REFERENCE_MAPS for x0 in _REFERENCE_X0])
def test_scan_equals_the_reference_walk(f, x0):
    got = _records(f, 50000, x0)
    assert len(got[0]) > 30
    assert got == _reference_walk(f, 50000, x0)


def _rotation_reference(c: float, n: int, stop) -> _ReturnScan:
    """A rotation's return scan with every step offered to
    _ReturnScan.offer, in closed form: f^q(x0) - x0 = q c."""
    scan = _ReturnScan()
    for q in range(1, n + 1):
        d = q * c
        p = round(d)
        if scan.offer(q, p, d - p):
            if abs(d - p) < RATIONAL_TOL:
                raise PeriodicOrbitDetected(q, p, d - p)
            if stop(scan):
                break
    return scan


def _closest_or_lock(run):
    try:
        return run()
    except PeriodicOrbitDetected as po:
        return ("locked", po.q, po.p, po.residual)


@pytest.mark.parametrize("c", [0.3123, 2.0 / 7.0 + 3e-9])
def test_rotation_scan_offers_only_running_minima(monkeypatch, c):
    # a rotation's chunk offers only the returns below their side's running
    # minimum, and records what offering every step records
    f = rotation(c)
    ref = _rotation_reference(c, 400, lambda s: s.overall_count >= 26)
    offers = []
    real = _ReturnScan.offer

    def counted(self, *args):
        offers.append(1)
        return real(self, *args)

    monkeypatch.setattr(_ReturnScan, "offer", counted)
    est = rotation_number_closest_return(f, 0.1, 24, 400)
    monkeypatch.undo()
    assert len(offers) <= 2 * len(ref.returns)
    assert est == _estimate_from((ref.lower.q, ref.lower.p),
                                 (ref.upper.q, ref.upper.p),
                                 ref.overall_returns(), ref.returns[-1].q)
    assert _closest_or_lock(lambda: closest_returns(f)) == _closest_or_lock(
        lambda: _rotation_reference(c, 100000,
                                    lambda s: False).overall_returns())


def _mixed_maps(seed: int, n: int) -> tuple:
    """Seeded maps and base points: Arnold maps with b in (0, 0.95), maps
    of degree 2 and rotations (degree 0), rational ones among them."""
    rng = random.Random(seed)
    maps = []
    for i in range(n):
        kind = i % 5
        if kind < 3:
            maps.append(ArnoldFamily(rng.uniform(0.01, 0.95)).map_at(
                rng.uniform(-1.0, 2.0)))
        elif kind == 3:
            v1, v2 = (r * np.exp(2j * np.pi * rng.random())
                      for r in (rng.uniform(0.0, 0.04), rng.uniform(0.0, 0.015)))
            maps.append(AnalyticCircleMap(rng.random(), np.array([v1, v2])))
        else:
            maps.append(rotation(rng.choice([0.5, 0.4, rng.random()])))
    return maps, [rng.uniform(-2.0, 3.0) for _ in range(n)]


def _outcome(r):
    """A result compared by value: the estimate, or the periodic orbit's
    (q, p, residual)."""
    if isinstance(r, PeriodicOrbitDetected):
        return ("locked", r.q, r.p, r.residual)
    return r


def _per_cell(maps, x0s, depth, n_max, burn_in):
    out = []
    for f, x0 in zip(maps, x0s):
        try:
            out.append(rotation_number_closest_return(f, x0, depth, n_max,
                                                      burn_in))
        except PeriodicOrbitDetected as po:
            out.append(po)
    return out


def _kind(r) -> str:
    return "locked" if isinstance(r, PeriodicOrbitDetected) else r.method


def _cosine_maps(seed: int, n: int) -> tuple:
    """Seeded maps of degree 1 whose mode has a cosine weight (a real
    v_hat(1)), which `_sine_only` refuses, and base points; every other one
    sits near the tongue of rho = 0."""
    rng = random.Random(seed)
    maps = [AnalyticCircleMap(rng.uniform(-0.05, 0.05) if i % 2 else
                              rng.random(), np.array([rng.uniform(0.0, 0.04)]))
            for i in range(n)]
    return maps, [rng.uniform(-2.0, 3.0) for _ in range(n)]


@pytest.mark.parametrize("depth, n_max, burn_in", [(24, 400, 128), (3, 300, 0)])
def test_closest_return_batch_equals_per_cell_scans(depth, n_max, burn_in):
    maps, x0s = _mixed_maps(5, 150)
    cos_maps, cos_x0s = _cosine_maps(8, 30)
    maps, x0s = maps + cos_maps, x0s + cos_x0s
    ref = _per_cell(maps, x0s, depth, n_max, burn_in)
    got = closest_return_batch(maps, x0s, depth, n_max, burn_in)
    assert [_outcome(r) for r in got] == [_outcome(r) for r in ref]
    assert {_kind(r) for r in ref} == {"closest_return", "birkhoff", "locked"}
    assert {f.degree for f in maps} == {0, 1, 2}
    cosine = {_kind(r) for f, r in zip(maps, ref)
              if f.degree == 1 and not _sine_only(f)}
    assert "closest_return" in cosine
    if burn_in:  # the burnt-in base points sit on attracting cycles
        assert {(f.degree, _kind(r)) for f, r in zip(maps, ref)} >= {
            (d, "locked") for d in (0, 1, 2)}
        assert "locked" in cosine
    if depth == 3:  # the depth + 2 stop rule ends some scans early
        deep = _per_cell(maps, x0s, 24, n_max, burn_in)
        assert any(_outcome(a) != _outcome(b) for a, b in zip(ref, deep))
    # the other maps of the batch (rotations, cosine weights, degree 2) do
    # not move an Arnold map's result
    arnold = [i for i, f in enumerate(maps) if _sine_only(f)]
    alone = closest_return_batch([maps[i] for i in arnold],
                                 [x0s[i] for i in arnold], depth, n_max,
                                 burn_in)
    assert [_outcome(r) for r in alone] == [_outcome(got[i]) for i in arnold]


def _arnold_maps(seed: int, n: int) -> tuple:
    """Seeded Arnold maps and base points, every sixth at b = 0 (a rotation,
    rational at a = 0.5)."""
    rng = random.Random(seed)
    maps = [ArnoldFamily(0.0 if i % 6 == 0 else rng.uniform(0.01, 0.95))
            .map_at(0.5 if i % 24 == 0 else rng.uniform(-1.0, 2.0))
            for i in range(n)]
    return maps, [rng.uniform(-2.0, 3.0) for _ in range(n)]


@pytest.mark.parametrize("depth", [24, 3])
def test_arnold_batch_takes_the_sine_only_step(monkeypatch, depth):
    # a batch of Arnold maps walks every sine-only map in its arrays: the
    # scalar scan runs on one only for its Birkhoff fallback.  Its results
    # are the per-cell scans'
    maps, x0s = _arnold_maps(3, 150)
    ref = _per_cell(maps, x0s, depth, 400, 128)
    scans = []
    real = rotation_module._scan_returns

    def scan(f, x0, n_max, stop, rational_tol, *args):
        if _sine_only(f):
            scans.append((f, x0, n_max, rational_tol))
        return real(f, x0, n_max, stop, rational_tol, *args)

    monkeypatch.setattr(rotation_module, "_scan_returns", scan)
    got = closest_return_batch(maps, x0s, depth, 400, 128)
    monkeypatch.undo()
    fallback = [(f, x0, 400, 0.0) for f, x0, r in zip(maps, x0s, got)
                if _sine_only(f) and _kind(r) == "birkhoff"]
    assert fallback and scans == fallback
    assert [_outcome(r) for r in got] == [_outcome(r) for r in ref]
    assert {_kind(r) for r in ref} == {"closest_return", "birkhoff", "locked"}
    assert {(f.degree, _kind(r)) for f, r in zip(maps, ref)} >= {
        (0, "closest_return"), (0, "locked"), (1, "locked")}
    if depth == 3:  # the depth + 2 stop rule ends some scans early
        deep = _per_cell(maps, x0s, 24, 400, 128)
        assert any(_outcome(a) != _outcome(b) for a, b in zip(ref, deep))


def test_closest_return_batch_builds_no_per_return_record(monkeypatch):
    # the batch keeps its return state in arrays: no sine-only map is
    # offered a return, and records are built only for the overall-return
    # chain of each estimate.  The only offers and records left are those of
    # the Birkhoff fallback's plain walks, counted apart below.
    depth, n_max = 24, 400
    maps, x0s = _mixed_maps(5, 150)
    maps, x0s = zip(*[(f, x0) for f, x0 in zip(maps, x0s) if _sine_only(f)])
    offers, records = [], []
    real_offer, real_record = _ReturnScan.offer, rotation_module.ClosestReturn

    def offer(self, *args):
        offers.append(1)
        return real_offer(self, *args)

    def record(*args):
        records.append(1)
        return real_record(*args)

    monkeypatch.setattr(_ReturnScan, "offer", offer)
    monkeypatch.setattr(rotation_module, "ClosestReturn", record)
    got = closest_return_batch(list(maps), list(x0s), depth, n_max, 128)
    batch_offers, batch_records = len(offers), len(records)
    del offers[:], records[:]
    fallback = [(f, x0) for f, x0, r in zip(maps, x0s, got)
                if _kind(r) == "birkhoff"]
    for f, x0 in fallback:
        rotation_number_birkhoff(f, x0, n_max)
    estimates = sum(_kind(r) == "closest_return" for r in got)
    assert fallback and estimates
    assert batch_offers == len(offers)
    assert batch_records - len(records) <= (depth + 2) * estimates


def test_closest_return_batch_does_not_depend_on_slice_size():
    maps, x0s = _mixed_maps(6, 60)
    whole = [_outcome(r) for r in closest_return_batch(maps, x0s, 24, 400, 64)]
    for size in (1, 7):
        parts = []
        for i in range(0, len(maps), size):
            parts += closest_return_batch(maps[i:i + size], x0s[i:i + size],
                                          24, 400, 64)
        assert [_outcome(r) for r in parts] == whole


def test_closest_return_batch_rejects_what_the_scan_rejects():
    f = ArnoldFamily(0.3).map_at(0.61)
    with pytest.raises(ValueError):
        closest_return_batch([f], [0.0], depth=0)
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        closest_return_batch([f], [0.0], burn_in=-1)
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        rotation_number_closest_return(f, 0.0, burn_in=-1)
    assert closest_return_batch([], []) == []


@pytest.mark.parametrize("n_x0s", [1, 3])
def test_closest_return_batch_needs_one_base_point_per_map(n_x0s):
    f = ArnoldFamily(0.3).map_at(0.61)
    with pytest.raises(ValueError):
        closest_return_batch([f, f], [0.0] * n_x0s)


def test_rho_interval_takes_f_and_eps_only():
    # rho_interval(f, eps) always scans up to the one orbit cap; a third
    # argument is an error, not a cap
    with pytest.raises(TypeError):
        rho_interval(ArnoldFamily(0.3).map_at(0.61), 1e-6, 400000)


@pytest.mark.parametrize("eps", [0.0, -1e-6, math.nan])
def test_rho_interval_needs_a_positive_eps(eps):
    # no bracket is narrower than 0: eps = 0 would walk to the stall guard,
    # or divide by zero in the Birkhoff fallback
    for f in (ArnoldFamily(0.3).map_at(0.61), rotation(1e-9)):
        with pytest.raises(ValueError, match="eps must be positive"):
            rho_interval(f, eps)


def test_rho_interval_falls_back_to_birkhoff_past_the_orbit_cap():
    # a rotation by 1e-9 has no closest return within the orbit cap, so the
    # estimate is a Birkhoff average over the cap, whose 1/n bound is wider
    # than the eps asked for
    est = rho_interval(rotation(1e-9), 1e-10)
    assert est.method == "birkhoff"
    assert est.n == _N_CAP == 8_000_000
    assert est.error_bound == 1.25e-7
    assert est.value == pytest.approx(1e-9, abs=est.error_bound)
