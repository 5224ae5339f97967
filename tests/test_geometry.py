import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab import circlemap
from circlelab.circlemap import (ArnoldFamily, derivative, evaluate,
                                 orbit_log_derivative, rotation)
from circlelab.contfrac import ContinuedFraction
from circlelab.errors import DerivativeBlowup, EmptyWindow, PeriodicOrbitDetected
from circlelab.geometry import (GeometryReport, PartitionLevel,
                                beta_recursion_check, bootstrap_schedule,
                                build_partition, c1_criterion, denjoy_checks,
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


def test_denjoy_maximum_is_the_grid_maximum(arnold_report):
    """Each level's Denjoy maximum is max |ln Df^{q_n}| over its own grid,
    witnessed by the grid point of the first argmax."""
    for lev, dj in zip(arnold_report.levels, arnold_report.denjoy):
        vals = np.abs(lev.log_df)
        i = int(np.argmax(vals))
        assert dj.witness == lev.grid[i]
        assert dj.classical_residual == vals[i] - dj.var
        assert dj.improved_constant == vals[i] / math.sqrt(lev.M)


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


def _growth_reference(f, lev, order):
    """The growth check as four orbit walks from scratch, one per sampled j,
    and a fifth for the power sums: (c_estimate, witness, c_power_sums)."""
    q1 = lev.q_next
    scale = (lev.beta / math.sqrt(lev.M)) ** order
    c_best, witness = 0.0, (0, 0.0)
    for j in sorted({1, max(1, q1 // 3), max(1, (2 * q1) // 3), q1}):
        vals = np.abs(orbit_log_derivative(f, lev.grid, j, order)) * scale
        i = int(np.argmax(vals))
        if vals[i] > c_best:
            c_best, witness = float(vals[i]), (j, float(lev.grid[i]))
    a = np.ones_like(lev.grid)
    s1 = np.ones_like(lev.grid)
    s2 = np.ones_like(lev.grid)
    x = lev.grid
    for _ in range(q1 - 1):
        df = derivative(f, x, 1)
        x = evaluate(f, x)
        a = a * df
        s1 += a
        s2 += a * a
    return c_best, witness, {1: float(np.max(s1 * lev.beta)),
                             2: float(np.max(s2 * lev.beta ** 2 / lev.M))}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_growth_check_matches_separate_walks(arnold_b03_golden, arnold_report,
                                             order):
    f = arnold_b03_golden
    for lev in arnold_report.levels:
        g = derivative_growth_check(f, lev.n, lev, order=order)
        q1 = lev.q_next
        assert (g.n, g.order) == (lev.n, order)
        assert g.j_samples == tuple(sorted({1, max(1, q1 // 3),
                                            max(1, (2 * q1) // 3), q1}))
        assert (g.c_estimate, g.witness, g.c_power_sums) == \
            _growth_reference(f, lev, order)


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


def _flat_level(n, beta, qn_distance):
    """A hand-built level of four equal lengths (no map behind it)."""
    grid = np.arange(4) / 4.0
    return PartitionLevel(n=n, q=n, p=1, q_next=n + 1, p_next=1, sign=1.0,
                          qn_distance=qn_distance, beta=np.full(4, beta),
                          grid=grid, log_df=np.zeros(4), m=beta, M=beta,
                          tiling_total=1.0, max_overlap=0.0)


def test_beta_recursion_vacuous_when_c_sqrt_m_reaches_one():
    # beta_{n+1} = 0.4 against (a_{n+1}/a_n) beta_n = 5: the empirical C is
    # about 8.6, so 1 - C sqrt(M_n) <= 0 and the ratio bounds say nothing
    lev_n, lev_n1 = _flat_level(2, 0.5, 0.01), _flat_level(3, 0.4, 0.1)
    br = beta_recursion_check(rotation(GOLDEN), 2, lev_n, lev_n1)
    assert br.c_estimate * math.sqrt(lev_n.M) >= 1.0
    assert br.vacuous
    assert br.ratio_bound_upper_ok and br.ratio_bound_lower_ok


def test_partition_detects_periodic_orbit():
    f = ArnoldFamily(0.5).map_at(0.0)  # fixed point at 0
    with pytest.raises(PeriodicOrbitDetected):
        build_partition(f, 1)
    # a rotation by 0.3 walked along golden's chain: f^2 - id - 1 = -0.4 at
    # level 2, so the level's beta is negative on its whole grid
    with pytest.raises(PeriodicOrbitDetected, match="f\\^2 - id - 1"):
        build_partition(rotation(0.3), 2, chain=pq_chain(GOLDEN, 3), rho=GOLDEN)
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


def test_geometry_report_checks_flag_is_keyword_only():
    # keyword-only, so no positional value binds to a removed parameter
    with pytest.raises(TypeError):
        geometry_report(rotation(GOLDEN), 2, 3, 4096, False)


def _assert_same_record(got, want):
    """Field-by-field equality of two records, arrays compared exactly."""
    assert type(got) is type(want)
    for fld in dataclasses.fields(want):
        a, b = getattr(got, fld.name), getattr(want, fld.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b), fld.name
        else:
            assert a == b, fld.name


@pytest.mark.parametrize("case", ["b03_golden", "b03_sqrt2", "b09_grid256"])
def test_report_reads_one_walk_as_standalone_calls(case, tuned):
    # the report walks its grid once; every level and check it reads off
    # that walk must equal what the standalone functions compute
    f, n_max, grid = {
        "b03_golden": (ArnoldFamily(0.3).map_at(tuned(0.3, "golden")), 8, 4096),
        "b03_sqrt2": (ArnoldFamily(0.3).map_at(tuned(0.3, "sqrt2")), 6, 4096),
        # every level refines its own grid past 256 points; levels 3-4 run
        # out of refinements uncertified
        "b09_grid256": (ArnoldFamily(0.9).map_at(0.6083935216319816), 4, 256),
    }[case]
    rep = geometry_report(f, n_max, grid=grid)
    chain = pq_chain(rep.rho, n_max + 1)
    assert len(rep.levels) == len(rep.denjoy) == len(rep.growth) == n_max
    for lev, dj, gr in zip(rep.levels, rep.denjoy, rep.growth):
        alone = build_partition(f, lev.n, chain=chain, rho=rep.rho, grid=grid)
        _assert_same_record(lev, alone)
        _assert_same_record(dj, denjoy_checks(f, lev.n, alone))
        _assert_same_record(gr, derivative_growth_check(f, lev.n, alone))
        assert np.array_equal(lev.log_df,
                              orbit_log_derivative(f, lev.grid, lev.q, 0))
    sizes = [lev.grid.size for lev in rep.levels]
    certified = [lev.certified for lev in rep.levels]
    if case == "b09_grid256":
        assert (sizes, certified) == ([4096] * 4, [True, True, False, False])
    else:
        assert (sizes, certified) == ([grid] * n_max, [True] * n_max)


def test_blowup_guard_stops_the_checks_not_the_ratios(monkeypatch):
    # the checks walk at order 1 under the guard; c1_criterion walks at
    # order 0 only as far as q_{n_max} and never meets it
    f = ArnoldFamily(0.9).map_at(0.6083935216319816)
    ratios = c1_criterion(f, 6)
    monkeypatch.setattr(circlemap, "_BLOWUP_GUARD", 2.0)
    with pytest.raises(DerivativeBlowup):
        geometry_report(f, 6)
    assert c1_criterion(f, 6) == ratios
