import json
import math
import random
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelab.arithmetic import (ClassifyConfig, _brjuno_windows,
                                  brjuno_function, brjuno_interval,
                                  brjuno_sum, classify, condition_h_check,
                                  diophantine_estimate, h_recursion_states,
                                  r_alpha)
from circlelab.contfrac import ContinuedFraction, RuleTail
from circlelab.errors import (DepthExhausted, ExactnessExhausted, NotBrjuno,
                              RationalDetected)
from circlelab.levelindex import ZERO, LevelReal

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def quadratic_surd_bracket(d: int, shift: int, den: int, digits: int = 60):
    """(sqrt(d) - shift) / den as an exact-enough Fraction pair (oracle)."""
    scale = 10 ** digits
    r = math.isqrt(d * scale * scale)
    lo = Fraction(r - 1, scale)
    hi = Fraction(r + 1, scale)
    return (lo - shift) / den, (hi - shift) / den


def oracle_dioph_min(quots, alpha_lo, alpha_hi, sigma, depth):
    """Independent minimization of q^(2+sigma)|alpha - p/q| over convergents,
    using only the three-term recursion and Fraction arithmetic."""
    p0, q0, p1, q1 = 1, 0, 0, 1
    best = None
    for k in range(depth):
        a = quots[k]
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        err = max(abs(alpha_lo - Fraction(p1, q1)), abs(alpha_hi - Fraction(p1, q1)))
        v = float(q1 * q1 * err) * float(q1) ** sigma
        best = v if best is None else min(best, v)
    return best


def test_diophantine_golden_matches_oracle():
    lo, hi = quadratic_surd_bracket(5, 1, 2)
    ref = oracle_dioph_min([1] * 30, lo, hi, 0.0, 30)
    est = diophantine_estimate(ContinuedFraction.golden(), 0.0, 30)
    assert est.gamma_hat == pytest.approx(ref, rel=1e-9)
    # trend value approaches 1/sqrt(5) from the two alternating sides
    assert est.values[-1] == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-6)
    assert est.certified


def test_diophantine_sqrt2_matches_oracle():
    lo, hi = quadratic_surd_bracket(2, 1, 1)
    ref = oracle_dioph_min([2] * 30, lo, hi, 0.0, 30)
    est = diophantine_estimate(ContinuedFraction.periodic([2]), 0.0, 30)
    assert est.gamma_hat == pytest.approx(ref, rel=1e-9)
    assert est.values[-1] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-6)
    assert est.certified


def _periodic_dioph_oracle(period, sigma, depth, mp):
    """q_k^(2+sigma) |alpha - p_k/q_k| for k = 1..depth, alpha the purely
    periodic fraction [0; period, period, ...] summed backwards over 400
    quotients in mpmath (error below 1e-150)."""
    alpha = mp.mpf(0)
    for k in range(400, 0, -1):
        alpha = 1 / (period[(k - 1) % len(period)] + alpha)
    p0, q0, p1, q1 = 1, 0, 0, 1
    out = []
    for k in range(depth):
        a = period[k % len(period)]
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append(mp.mpf(q1) ** (2 + mp.mpf(sigma))
                   * abs(alpha - mp.mpf(p1) / q1))
    return out


def test_diophantine_values_are_lower_bounds_against_mpmath():
    # the per-convergent values bound the true ones from below, also once
    # p_k/q_k is closer to alpha than a fixed-depth bracket of alpha resolves
    mp = pytest.importorskip("mpmath")
    rng = random.Random(8)
    periods = [[9, 2, 7]] + [
        [rng.randint(1, 9) for _ in range(rng.randint(1, 4))] for _ in range(60)]
    depth = 30
    with mp.workdps(200):
        for period in periods:
            for sigma in (0.0, 0.5):
                est = diophantine_estimate(ContinuedFraction.periodic(period),
                                           sigma, depth)
                ref = _periodic_dioph_oracle(period, sigma, depth, mp)
                for k, (v, r) in enumerate(zip(est.values, ref), 1):
                    assert v <= r, (period, sigma, k)
                    assert v >= r * (1 - 1e-12), (period, sigma, k)


def test_diophantine_log_data_values_are_lower_bounds(monkeypatch):
    # past the exact convergents the value comes from the log brackets of
    # q_k and q_{k+1}: forced here from k = 12 on the periodic [1, 5], it
    # must stay below the true value and, as beta_k > 1/(2 q_{k+1}), within
    # a factor 2 of it
    mp = pytest.importorskip("mpmath")
    exact = ContinuedFraction.convergent

    def convergent(self, n):
        if n >= 12:
            raise ExactnessExhausted("forced")
        return exact(self, n)

    monkeypatch.setattr(ContinuedFraction, "convergent", convergent)
    depth = 30
    with mp.workdps(200):
        for sigma in (0.0, 0.5):
            est = diophantine_estimate(ContinuedFraction.periodic([1, 5]),
                                       sigma, depth)
            ref = _periodic_dioph_oracle([1, 5], sigma, depth, mp)
            for k, (v, r) in enumerate(zip(est.values, ref), 1):
                assert v <= r, (sigma, k)
                low = 0.5 if k >= 11 else 1.0 - 1e-12  # k = 11 needs q_12
                assert v >= r * low * (1 - 1e-12), (sigma, k)


def test_diophantine_values_of_a_finite_fraction():
    # [0; 2, 3, 4] = 13/30 has convergents 1/2, 3/7 and itself: at k = 2
    # the Gauss iterate alpha_3 is 0, at k = 3 p_3/q_3 is alpha and the value
    # is 0, and past the last quotient the depth runs out
    cf = ContinuedFraction([2, 3, 4])
    est = diophantine_estimate(cf, 0.0, 3)
    alpha = Fraction(13, 30)
    exact = [q * q * abs(alpha - Fraction(p, q))
             for p, q in ((1, 2), (3, 7), (13, 30))]
    assert exact == [Fraction(4, 15), Fraction(7, 30), 0]
    assert est.values == (0.26666666666666644, 0.23333333333333314, 0.0)
    assert all(v <= r for v, r in zip(est.values, exact))
    with pytest.raises(DepthExhausted):
        diophantine_estimate(cf, 0.0, 4)


def test_diophantine_exp_rule_decays():
    est = diophantine_estimate(ContinuedFraction.rule("exp_round", a1=3), 0.0, 6)
    assert est.gamma_hat < 1e-3
    assert not est.certified


def test_brjuno_sum_single_term_at_depth_two():
    cf = ContinuedFraction([3, 7, 15, 1])
    res = brjuno_sum(cf, 2)
    p2, q2 = cf.convergent(2)
    q1 = cf.convergent(1)[1]
    assert res.value == pytest.approx(math.log(q2) / q1, rel=1e-9)


def test_brjuno_sum_golden_converges():
    res = brjuno_sum(ContinuedFraction.golden(), 40)
    assert not res.diverging
    assert res.terms[-1] < 1e-6  # increments settle well below 1e-6 by depth 40


def test_brjuno_sum_divergent_rule_flagged_quickly():
    res = brjuno_sum(ContinuedFraction.rule("exp_qn_round", a1=2), 10)
    assert res.diverging


def test_brjuno_function_golden_closed_form():
    ref = math.log(1.0 / GOLDEN) / (1.0 - GOLDEN)
    assert brjuno_function(GOLDEN, 60) == pytest.approx(ref, abs=1e-6)


def test_brjuno_function_one_step_unrolling():
    # x = 1/(2 + golden): one Gauss step lands on the golden mean
    x = 1.0 / (2.0 + GOLDEN)
    d = 50
    lhs = brjuno_function(x, d)
    rhs = math.log(1.0 / x) + x * brjuno_function(GOLDEN, d - 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_brjuno_function_self_consistency_random():
    rng = random.Random(20260808)
    for _ in range(25):
        x = rng.uniform(0.01, 0.99)
        try:
            b_x = brjuno_function(x, 40)
            gx = 1.0 / x - math.floor(1.0 / x)
            b_gx = brjuno_function(gx, 40)
        except RationalDetected:
            continue
        assert abs(b_x - (math.log(1.0 / x) + x * b_gx)) < 1e-6


def test_brjuno_interval_widens_tail_past_finite_end():
    # the window [3, 1] ends one quotient before the fraction does, so the
    # first omitted term is unknown: the allowance must widen, not vanish
    _, _, tail = brjuno_interval(ContinuedFraction([3, 1, 4]), 0, 2)
    assert tail >= 1e300


def test_brjuno_interval_brackets_true_value():
    lo, hi, tail = brjuno_interval(ContinuedFraction.golden(), 0, 40)
    ref = math.log(1.0 / GOLDEN) / (1.0 - GOLDEN)
    assert lo.to_float() <= ref <= hi.to_float() + tail
    assert tail < 1e-5


def test_functional_equation_residual_below_tail_allowance():
    # the one-step unrolling residual of the truncated value is one omitted
    # term, which the tail allowance must dominate (with room to spare)
    d = 40
    x = GOLDEN
    gx = 1.0 / x - math.floor(1.0 / x)
    resid = abs(brjuno_function(x, d)
                - (math.log(1.0 / x) + x * brjuno_function(gx, d)))
    _, _, tail = brjuno_interval(ContinuedFraction.golden(), 0, d)
    assert resid < 10.0 * tail


def _reference_window(cf, n, depth, b_cap=50.0):
    """brjuno_interval(cf, n, depth) as one window of its own: a depth-step
    Horner sweep and a forward-summed L sum (infinite fractions only)."""
    window = [cf.log_inverse_interval(n + j) for j in range(depth - 1, -1, -1)]
    b_lo = b_hi = s_lo = ZERO
    for llo, lhi in window:
        b_lo = llo.add(b_lo.mul_exp_neg(lhi))
        b_hi = lhi.add(b_hi.mul_exp_neg(llo))
    for llo, _ in reversed(window):
        s_lo = s_lo.add(llo)
    l_lo, l_hi = cf.log_inverse_interval(n + depth)
    tail = (l_hi.mul_exp_neg(s_lo).to_float()
            + LevelReal.from_float(b_cap).mul_exp_neg(s_lo.add(l_lo)).to_float()
            + 1e-300)
    return b_lo, b_hi, tail if math.isfinite(tail) else 1e300


@pytest.mark.parametrize("cf", [
    ContinuedFraction.golden(),
    ContinuedFraction.periodic([3, 1, 7]),
    ContinuedFraction.rule("bounded_prng", a1=2, seed=12345, lo=1, hi=9),
    ContinuedFraction.rule("exp_round", a1=3),
    ContinuedFraction.rule("exp_sqrt_ceil", a1=3),
    ContinuedFraction.rule("log_power", a1=3, c=2.0),
], ids=["golden", "periodic", "bounded_prng", "exp_round", "exp_sqrt_ceil",
        "log_power"])
def test_brjuno_windows_match_per_window_sweeps(cf):
    # the H check's windows [n, 70), n = 0..30, from one backward sweep
    windows = _brjuno_windows(cf, 0, 30, 70, 50.0)
    assert len(windows) == 31
    for n, (b_lo, b_hi, tail) in enumerate(windows):
        ref_lo, ref_hi, ref_tail = _reference_window(cf, n, 70 - n)
        assert (b_lo, b_hi) == (ref_lo, ref_hi)
        assert tail == pytest.approx(ref_tail, rel=1e-13)
        if n < 30:  # [30, 70) is itself the 40-term window of n = 30
            # against the 40-term window [n, n + 40): never looser
            short_lo, _, short_tail = _reference_window(cf, n, 40)
            assert b_lo >= short_lo
            assert tail <= short_tail
    assert brjuno_interval(cf, 5, 40) == _brjuno_windows(cf, 5, 5, 45, 50.0)[0]
    with pytest.raises(ValueError):
        brjuno_interval(cf, 0, 0)


def test_r_alpha_branch_continuity_and_values():
    for alpha in (0.1, 0.5, GOLDEN, 0.9):
        ell = math.log(1.0 / alpha)
        assert r_alpha(alpha, ell) == pytest.approx(1.0 / alpha, rel=1e-12)
        assert r_alpha(alpha, 0.0) == pytest.approx(1.0)
    assert r_alpha(0.5, 2.0) == pytest.approx(2.0 * (2.0 - math.log(2.0) + 1.0))


@given(st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=0.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=200)
def test_r_alpha_monotone_and_at_least_one(alpha, r, dr):
    v1 = r_alpha(alpha, r)
    v2 = r_alpha(alpha, r + dr)
    assert v2 >= v1 - 1e-12
    assert v1 >= max(1.0, r) - 1e-12


def test_h_recursion_states_nondecreasing():
    for cf in (ContinuedFraction.golden(), ContinuedFraction.periodic([2, 1])):
        rs = [s.r for s in h_recursion_states(cf, 2, 12)]
        assert all(b >= a for a, b in zip(rs, rs[1:]))


def test_condition_h_golden_passes_at_k2():
    v = condition_h_check(ContinuedFraction.golden(), 10, 20, 40)
    assert v.kind == "pass_to_depth"
    assert all(p.passed_at == 2 for p in v.probes)


def test_condition_h_sqrt2_passes():
    v = condition_h_check(ContinuedFraction.periodic([2]), 10, 20, 40)
    assert v.kind == "pass_to_depth"


def test_condition_h_tower_rule_not_pass():
    v = condition_h_check(ContinuedFraction.rule("exp_sqrt_ceil", a1=3), 10, 20, 40)
    assert v.kind in ("fail_at", "inconclusive")
    assert v.kind == "fail_at" and v.fail_m <= 10


def test_condition_h_exp_round_fails():
    v = condition_h_check(ContinuedFraction.rule("exp_round", a1=3), 10, 20, 40)
    assert v.kind == "fail_at"


def test_condition_h_log_power_passes():
    v = condition_h_check(ContinuedFraction.rule("log_power", a1=8, c=2.0), 10, 20, 40)
    assert v.kind == "pass_to_depth"


def test_condition_h_requires_brjuno():
    with pytest.raises(NotBrjuno):
        condition_h_check(ContinuedFraction.rule("exp_qn_round", a1=2), 5, 10, 20)


def test_condition_h_reads_every_window_to_the_sweep_end():
    # every window ends at index 10 + 20 + 40 - 1 = 69, whose bracket needs
    # a_70: a finite fraction that stops short has no data for the check
    with pytest.raises(DepthExhausted):
        condition_h_check(ContinuedFraction([1] * 60), 10, 20, 40)
    v = condition_h_check(ContinuedFraction([1] * 75), 10, 20, 40)
    assert v.kind == "pass_to_depth"


def test_condition_h_exp_round_a1_1_is_inconclusive_at_k1():
    # no seed m <= 1 is settled either way within k <= 1
    v = condition_h_check(ContinuedFraction.rule("exp_round", a1=1), 1, 1, 40)
    assert (v.kind, v.fail_m) == ("inconclusive", None)


def test_classify_demotes_fail_at_under_a_certified_diophantine_pass():
    golden, conf = ContinuedFraction.golden(), ClassifyConfig(h_m_max=1, h_k_max=1)
    h = condition_h_check(golden, 1, 1, conf.h_b_depth, conf.b_cap)
    assert (h.kind, h.fail_m) == ("fail_at", 0)
    v = classify(golden, conf)
    assert v.diophantine.certified
    assert (v.condition_h.kind, v.condition_h.fail_m) == ("inconclusive", None)
    assert v.condition_h.probes == h.probes
    assert v.note.endswith("(class-order consistency)")


def test_classify_golden():
    v = classify(ContinuedFraction.golden())
    assert v.diophantine.certified
    assert not v.brjuno.diverging
    assert v.condition_h.kind == "pass_to_depth"
    ref = math.log(1.0 / GOLDEN) / (1.0 - GOLDEN)
    assert v.brjuno_B == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("cf", [ContinuedFraction.golden(),
                                ContinuedFraction.rule("exp_round", a1=3)],
                         ids=["golden", "exp_round"])
def test_classify_computes_each_bracket_once(cf, monkeypatch):
    computed = {"_bracket": Counter(), "_log_inverse": Counter()}
    for name, count in computed.items():
        def counting(self, n, _f=getattr(ContinuedFraction, name), _c=count):
            _c[n] += 1
            return _f(self, n)
        monkeypatch.setattr(ContinuedFraction, name, counting)
    classify(cf)
    for count in computed.values():
        assert count and max(count.values()) == 1


@pytest.mark.parametrize("config, depths", [
    (ClassifyConfig(), [40]),
    (ClassifyConfig(brjuno_depth=30), [30, 40]),  # the H check's own depth 40
], ids=["default", "brjuno_depth30"])
def test_classify_computes_its_brjuno_data_once(config, depths, monkeypatch):
    import circlelab.arithmetic as arith
    calls = Counter()
    for name in ("brjuno_sum", "brjuno_interval", "_brjuno_windows"):
        def counting(cf, *args, _f=getattr(arith, name), _name=name, **kw):
            calls[(_name,) + args + tuple(kw.values())] += 1
            return _f(cf, *args, **kw)
        monkeypatch.setattr(arith, name, counting)
    arith.classify(ContinuedFraction.golden(), config)
    d = config.brjuno_depth
    # each Brjuno sum once; brjuno_B's window [0, d) once, which is a sweep
    # of its own; the H check's windows [n, 70), n = 0..30, in one sweep
    assert calls == Counter({**{("brjuno_sum", s): 1 for s in depths},
                             ("brjuno_interval", 0, d, 50.0): 1,
                             ("_brjuno_windows", 0, 0, d, 50.0): 1,
                             ("_brjuno_windows", 0, 30, 70, 50.0): 1})


def test_classify_gates_the_h_check_at_its_own_depth():
    # the sum diverges from depth 5 on: a classify at brjuno_depth 4 does
    # not flag it, and its H check still refuses the fraction at depth 40
    cf = ContinuedFraction([1, 1], RuleTail("exp_qn_round"))
    assert not brjuno_sum(cf, 4).diverging
    assert brjuno_sum(cf, 40).diverging
    with pytest.raises(NotBrjuno):
        classify(cf, ClassifyConfig(brjuno_depth=4))


def test_classify_finite_fraction_is_rational():
    with pytest.raises(RationalDetected):
        classify(ContinuedFraction([3, 1, 4]))


def test_classify_log_power_dioph_fail_h_pass():
    v = classify(ContinuedFraction.rule("log_power", a1=8, c=2.0))
    assert not v.diophantine.certified
    assert v.condition_h.kind == "pass_to_depth"


def test_classify_exp_round_brjuno_pass_h_fail():
    v = classify(ContinuedFraction.rule("exp_round", a1=3))
    assert not v.brjuno.diverging
    assert v.condition_h.kind == "fail_at"


def test_classify_never_pairs_certified_dioph_with_h_fail():
    cfs = [ContinuedFraction.golden(), ContinuedFraction.periodic([2]),
           ContinuedFraction.periodic([1, 2]),
           ContinuedFraction.rule("bounded_prng", a1=2, seed=3),
           ContinuedFraction.rule("exp_round", a1=3)]
    for cf in cfs:
        v = classify(cf)
        if v.diophantine.certified and v.condition_h is not None:
            assert v.condition_h.kind != "fail_at"
        if v.condition_h is not None and v.condition_h.kind == "pass_to_depth":
            assert not v.brjuno.diverging


def test_verdict_serializes():
    v = classify(ContinuedFraction.golden())
    blob = v.to_json()
    assert blob["condition_h"]["kind"] == "pass_to_depth"
    assert blob["diophantine"]["certified"] is True


def _record(r):
    """Every field of a record, nested records and tuples of them too."""
    if is_dataclass(r):
        return {f.name: _record(getattr(r, f.name)) for f in fields(r)}
    return [_record(x) for x in r] if isinstance(r, tuple) else r


@pytest.mark.parametrize("cf", [
    ContinuedFraction.golden(),
    ContinuedFraction.rule("exp_round", a1=3),
    ContinuedFraction.rule("exp_qn_round", a1=2)], ids=["golden", "fail_at", "tower"])
def test_verdict_json_holds_every_field_of_every_record(cf):
    v = classify(cf)
    want = _record(v)
    want["brjuno_sum"] = want.pop("brjuno")
    assert json.loads(json.dumps(v.to_json())) == want
