import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab.circlemap import ArnoldFamily, orbit_log_derivative, rotation
from circlelab.contfrac import ContinuedFraction
from circlelab.errors import EmptyWindow, PeriodicOrbitDetected
from circlelab.geometry import (GeometryReport, beta_recursion_check,
                                bootstrap_schedule, build_partition,
                                c1_criterion, denjoy_checks,
                                derivative_growth_check, geometry_report,
                                koksma_check, pq_chain, ratio_trend)
from circlelab.rotation import tune_parameter

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden_rotation_report():
    return geometry_report(rotation(GOLDEN), 5)


@pytest.fixture(scope="module")
def arnold_report(arnold_b03_golden):
    return geometry_report(arnold_b03_golden, 8)


def test_pq_chain_matches_convergents():
    chain = pq_chain(GOLDEN, 4)
    assert chain[:4] == [(1, 0), (1, 1), (2, 1), (3, 2)]
    chain = pq_chain(math.sqrt(2) - 1, 4)
    assert chain[:4] == [(1, 0), (2, 1), (5, 2), (12, 5)]


def test_rotation_intervals_are_congruent(golden_rotation_report):
    for lev in golden_rotation_report.levels:
        assert float(np.ptp(lev.beta)) < 1e-12
        assert lev.beta[0] == pytest.approx(lev.qn_distance, abs=1e-9)
        assert lev.ratio == pytest.approx(1.0, abs=1e-9)


def test_rotation_tiling_exact(golden_rotation_report):
    for lev in golden_rotation_report.levels:
        assert abs(lev.tiling_total - 1.0) < 1e-12
        assert lev.max_overlap < 1e-12


def test_rotation_baseline_degenerate_checks(golden_rotation_report):
    for dj in golden_rotation_report.denjoy:
        assert abs(dj.classical_residual) < 1e-12
        assert dj.var == 0.0
    for gr in golden_rotation_report.growth:
        assert gr.c_estimate < 1e-10
        # power sums are exactly q_{n+1} * beta^l / M^(l-1) with beta = alpha_n
        assert gr.c_power_sums[1] == pytest.approx(
            golden_rotation_report.levels[gr.n - 1].q_next
            * golden_rotation_report.levels[gr.n - 1].qn_distance, rel=1e-6)
    for br in golden_rotation_report.beta_rec:
        assert br.c_estimate < 1e-7


def test_arnold_tiling_and_sandwich(arnold_report):
    for lev in arnold_report.levels[:6]:
        assert abs(lev.tiling_total - 1.0) <= 1e-9
        assert lev.max_overlap <= 1e-9
        assert lev.certified
        assert lev.m - 1e-9 <= lev.qn_distance <= lev.M + 1e-9
        assert lev.m > 0


def test_arnold_classical_denjoy(arnold_report):
    for dj in arnold_report.denjoy:
        assert dj.classical_residual <= 1e-8


def _sequential_abs_max(fn, grid_vals, grid_x, spread):
    """Reference search: one golden-section search per top grid candidate,
    run one after another on one or two points at a time."""
    best = float(np.max(np.abs(grid_vals)))
    wit = float(grid_x[np.argmax(np.abs(grid_vals))])
    for i in np.argsort(np.abs(grid_vals))[-3:]:
        lo, hi = grid_x[i] - spread, grid_x[i] + spread
        for _ in range(12):
            m1 = lo + 0.382 * (hi - lo)
            m2 = lo + 0.618 * (hi - lo)
            v1, v2 = np.abs(fn(np.array([m1, m2])))
            if v1 < v2:
                lo = m1
            else:
                hi = m2
        xs = 0.5 * (lo + hi)
        vs = float(np.abs(fn(np.array([xs])))[0])
        if vs > best:
            best, wit = vs, xs
    return best, wit


def test_denjoy_search_matches_sequential_reference(arnold_b03_golden,
                                                    arnold_report):
    f = arnold_b03_golden
    for lev in arnold_report.levels[:6]:
        dj = denjoy_checks(f, lev.n, lev)
        mx, wit = _sequential_abs_max(
            lambda t: orbit_log_derivative(f, t, lev.q, 0),
            orbit_log_derivative(f, lev.grid, lev.q, 0), lev.grid,
            1.0 / lev.grid.size)
        assert dj.witness == wit
        assert dj.improved_constant == pytest.approx(
            mx / math.sqrt(lev.M), rel=1e-15, abs=0.0)
        assert dj.classical_residual == pytest.approx(
            mx - dj.var, rel=0.0, abs=2e-15 * max(mx, dj.var))


def test_arnold_improved_denjoy_stability(arnold_report):
    consts = sorted(d.improved_constant for d in arnold_report.denjoy[2:8])
    med = 0.5 * (consts[len(consts) // 2 - 1] + consts[len(consts) // 2]) \
        if len(consts) % 2 == 0 else consts[len(consts) // 2]
    assert all(c <= 2.0 * med for c in consts)
    assert all(c >= med / 2.0 for c in consts)


def test_arnold_growth_constants_stable(arnold_report):
    cs = [g.c_estimate for g in arnold_report.growth[2:]]
    assert all(c2 <= 3.0 * c1 for c1, c2 in zip(cs, cs[1:]))
    for g in arnold_report.growth:
        assert g.c_power_sums[1] < 10.0
        assert g.c_power_sums[2] < 10.0


def test_growth_order_two_scaling(arnold_b03_golden, arnold_report):
    lev = arnold_report.levels[4]
    g1 = derivative_growth_check(arnold_b03_golden, 5, lev, order=1)
    g2 = derivative_growth_check(arnold_b03_golden, 5, lev, order=2)
    assert g2.c_estimate > 0
    ratio = g2.c_estimate / g1.c_estimate ** 2
    assert 1e-2 < ratio < 1e2


def test_beta_recursion_constants_and_bounds(arnold_report):
    cs = [b.c_estimate for b in arnold_report.beta_rec[2:]]
    assert all(c2 <= 3.0 * c1 for c1, c2 in zip(cs, cs[1:]))
    for b in arnold_report.beta_rec:
        assert b.ratio_bound_upper_ok and b.ratio_bound_lower_ok


def test_beta_recursion_rotation_exact():
    rep = geometry_report(rotation(GOLDEN), 4)
    br = beta_recursion_check(rotation(GOLDEN), 2, rep.levels[1], rep.levels[2])
    assert br.c_estimate < 1e-7


def test_beta_recursion_on_refined_next_level(arnold_b03_golden):
    # build_partition refines a level's grid by factors of 4 from the same
    # origin; the recursion check must compare two levels on the coarser grid
    f = arnold_b03_golden
    chain = pq_chain(GOLDEN, 4)
    lev2 = build_partition(f, 2, chain=chain, rho=GOLDEN, grid=1024)
    lev3 = build_partition(f, 3, chain=chain, rho=GOLDEN, grid=1024)
    lev3_fine = build_partition(f, 3, chain=chain, rho=GOLDEN, grid=4096)
    assert (lev2.grid.size, lev3.grid.size, lev3_fine.grid.size) == (1024, 1024, 4096)
    same = beta_recursion_check(f, 2, lev2, lev3)
    mixed = beta_recursion_check(f, 2, lev2, lev3_fine)
    assert mixed.c_estimate == pytest.approx(same.c_estimate, rel=1e-12)
    assert mixed.witness == same.witness


def test_partition_detects_periodic_orbit():
    f = ArnoldFamily(0.5).map_at(0.0)  # fixed point at 0
    with pytest.raises(PeriodicOrbitDetected):
        build_partition(f, 1)
    # a wrong chain for a valid map is caught by the tiling check
    from circlelab.errors import TilingFailure
    g = ArnoldFamily(0.2).map_at(0.61)
    with pytest.raises(TilingFailure):
        build_partition(g, 1, chain=[(1, 0), (3, 1), (4, 1)], rho=0.61)


def test_koksma_sin_and_lndf(arnold_b03_golden, arnold_report):
    rng = np.random.default_rng(11)
    pairs = list(zip(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)))
    v = koksma_check(lambda t: np.sin(2 * np.pi * t), GOLDEN, 6, pairs, var=4.0)
    assert v <= 1e-8
    v = koksma_check(arnold_b03_golden, arnold_report.rho, 6, pairs)
    assert v <= 1e-8
    v = koksma_check(lambda t: np.full_like(t, 2.7), GOLDEN, 5, pairs, var=0.0)
    assert v <= 1e-12


def test_koksma_requires_variation_for_callables():
    with pytest.raises(ValueError):
        koksma_check(lambda t: t, GOLDEN, 4, [(0.1, 0.2)])


def test_bootstrap_reference_values():
    s = bootstrap_schedule(5.0, 0.0, 0.0, 60)
    assert s[1] == pytest.approx(0.75)
    assert all(b > a for a, b in zip(s, s[1:]))
    assert 3.0 - 1e-6 <= s[-1] <= 3.0
    assert bootstrap_schedule(5.0, 0.0, 3.0, 4) == [3.0] * 5


def test_bootstrap_empty_window():
    with pytest.raises(EmptyWindow):
        bootstrap_schedule(2.0, 0.0, 0.0, 5)
    with pytest.raises(ValueError):
        bootstrap_schedule(5.0, 0.0, 3.5, 5)


@given(st.floats(min_value=2.2, max_value=9.0),
       st.floats(min_value=0.0, max_value=1.5))
@settings(max_examples=60)
def test_bootstrap_monotone_below_fixed_point(r, sigma):
    fix = r - 2.0 - sigma
    if fix <= 1e-6:
        return
    s = bootstrap_schedule(r, sigma, 0.0, 30)
    assert all(b > a for a, b in zip(s, s[1:]))
    assert s[-1] <= fix + 1e-12


def test_ratio_trend_rules():
    assert ratio_trend([1.0, 1.01, 1.0, 1.02]) == "bounded_trend"
    assert ratio_trend([1.0, 2.0, 4.0, 8.0]) == "growing_trend"
    assert ratio_trend([1.0, 5.0, 1.0, 9.0]) == "inconclusive"
    assert ratio_trend([1.0, 2.0]) == "inconclusive"


def test_c1_rotation_bounded():
    ratios, verdict = c1_criterion(rotation(GOLDEN), 5)
    assert verdict == "bounded_trend"
    assert all(abs(r - 1.0) < 1e-9 for r in ratios)


def test_c1_tuned_arnold_bounded(arnold_report):
    assert arnold_report.trend == "bounded_trend"
    assert max(arnold_report.ratios) < 10.0


def test_strong_coupling_ratios_grow():
    # near the tongue boundary the extrema ratios climb steadily; at these
    # depths the per-level growth stays below the 1.5x/level verdict gate,
    # so only the overall climb is asserted
    a, _ = tune_parameter(ArnoldFamily(0.95), ContinuedFraction.golden(),
                          tol=1e-9)
    ratios, verdict = c1_criterion(ArnoldFamily(0.95).map_at(a), 6)
    assert ratios[-1] > 3.0 * ratios[0]
    assert verdict in ("bounded_trend", "growing_trend", "inconclusive")


def test_conjugacy_links_geometry_and_newton_scheme(arnold_b005_golden):
    # the conjugacy is unique up to a rotation, so three independent
    # constructions must agree: the Newton-scheme conjugacy, the orbit
    # average, and the partition extrema ratio (which converges to the
    # slope spread of the conjugacy)
    import numpy as np
    from circlelab.circlemap import derivative, evaluate
    from circlelab.kam import KamConfig, herman_average, kam_iterate
    res = kam_iterate(arnold_b005_golden, KamConfig(ContinuedFraction.golden()))
    hm = herman_average(arnold_b005_golden, 55, grid=2048)
    z = np.arange(2048) / 2048.0
    diff = evaluate(res.h, z) - evaluate(hm.h, z)
    osc = float(diff.max() - diff.min())
    assert osc <= 3.0 * hm.defect + 1e-9
    dh = derivative(res.h, z, 1)
    dh_ratio = float(dh.max() / dh.min())
    ratios, _ = c1_criterion(arnold_b005_golden, 8)
    assert ratios[-1] == pytest.approx(dh_ratio, rel=0.15)


def test_report_csv_and_summary(arnold_report):
    text = arnold_report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("n,q_n,q_n1,")
    assert len(lines) == len(arnold_report.levels) + 1
    summary = arnold_report.to_json_summary()
    assert summary["sandwich_ok"] and summary["tiling_ok"]
    assert summary["classical_denjoy_ok"]
    assert summary["uncertified_levels"] == []
    assert summary["trend"] == "bounded_trend"


def test_summary_lists_uncertified_levels():
    # a coarse starting grid on a strongly distorted map runs out of
    # refinements before the Lipschitz margin certifies the deeper levels
    f = ArnoldFamily(0.9).map_at(0.6083935216319816)
    rep = geometry_report(f, 4, grid=256, checks=False)
    assert [lev.certified for lev in rep.levels] == [True, True, False, False]
    assert rep.to_json_summary()["uncertified_levels"] == [3, 4]
    assert rep.to_csv().split("\n")[0] == GeometryReport.CSV_HEADER
