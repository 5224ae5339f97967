import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab.contfrac import (ContinuedFraction, PeriodicTail,
                                RuleTail, cf_expand, convergents)
from circlelab.errors import (DepthExhausted, ExactnessExhausted,
                              RationalDetected)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = math.sqrt(2.0) - 1.0


def test_golden_convergents_are_fibonacci():
    cs = convergents(ContinuedFraction.golden(), 5)
    assert [(c.p, c.q) for c in cs] == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]


def test_sqrt2_convergents_by_hand_recursion():
    cs = convergents(ContinuedFraction.periodic([2]), 3)
    assert [(c.p, c.q) for c in cs] == [(1, 2), (2, 5), (5, 12)]


def test_first_convergent_is_inverse_of_first_quotient():
    for qs in ([3, 1, 4], [7], [1, 2, 2]):
        c = convergents(ContinuedFraction(qs), 1)[0]
        assert (c.p, c.q) == (1, qs[0])


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=3, max_size=20))
def test_convergent_recursion_exact(quots):
    cf = ContinuedFraction(quots)
    cs = convergents(cf, len(quots))
    p = [1, 0] + [c.p for c in cs]
    q = [0, 1] + [c.q for c in cs]
    for k, a in enumerate(quots, start=2):
        assert p[k + 0] == a * p[k - 1] + p[k - 2]
        assert q[k + 0] == a * q[k - 1] + q[k - 2]
    for c in cs:
        assert math.gcd(c.p, c.q) == 1
    assert all(q2 > q1 for q1, q2 in zip(q[2:], q[3:]))


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=12))
@settings(max_examples=100)
def test_best_approximation_sandwich(quots):
    cf = ContinuedFraction.periodic(quots, start=1, period=len(quots))
    lo, hi = cf.shifted_value_bracket(0)
    cs = convergents(cf, len(quots) + 4)
    for k in range(1, len(quots) + 3):
        pk, qk = cs[k - 1].p, cs[k - 1].q
        qk1 = cs[k].q
        if qk * qk1 > 10**33:
            break  # beyond the value bracket's resolution
        err_lo = min(abs(lo - Fraction(pk, qk)), abs(hi - Fraction(pk, qk)))
        err_hi = max(abs(lo - Fraction(pk, qk)), abs(hi - Fraction(pk, qk)))
        # the true value is strictly interior; the closed bracket endpoints
        # can attain the classical bounds exactly
        assert err_hi <= Fraction(1, qk * qk1)
        assert err_lo >= Fraction(1, qk * (qk1 + qk))


def test_cf_expand_golden():
    cf = cf_expand(GOLDEN, 5)
    assert [cf.quotient(i) for i in range(1, 6)] == [1, 1, 1, 1, 1]


def test_cf_expand_sqrt2():
    cf = cf_expand(SQRT2M1, 4)
    assert [cf.quotient(i) for i in range(1, 5)] == [2, 2, 2, 2]


@pytest.mark.parametrize("depth", [1, 3, 10])
def test_cf_expand_rational_detected(depth):
    with pytest.raises(RationalDetected):
        cf_expand(0.5, depth)


@given(st.floats(min_value=0.01, max_value=0.99))
@example(0.5238272512199454)  # q_8 = 70426315: past double precision
@settings(max_examples=100)
def test_cf_expand_reproduces_value(x):
    try:
        cf = cf_expand(x, 8)
    except RationalDetected:
        return
    p, q = cf.convergent(8)
    assert abs(x - p / q) < 1.0 / q**2


def test_value_interval_golden():
    lo, hi = ContinuedFraction.golden().value_interval()
    assert lo <= GOLDEN <= hi
    assert hi - lo < 1e-15


def test_finite_tail_exhausts():
    cf = ContinuedFraction([1, 2, 3])
    assert cf.quotient(3) == 3
    with pytest.raises(DepthExhausted):
        cf.quotient(4)


def test_periodic_tail_indexing():
    cf = ContinuedFraction.periodic([5, 1, 2, 3], start=2, period=3)
    got = [cf.quotient(i) for i in range(1, 11)]
    assert got == [5, 1, 2, 3, 1, 2, 3, 1, 2, 3]


def test_quotients_stable_across_deeper_requests():
    cf = ContinuedFraction.rule("exp_round", a1=3)
    first = [cf.quotient(i) for i in range(1, 4)]
    cf.quotient(10)
    assert [cf.quotient(i) for i in range(1, 4)] == first == [3, 20, 485165195]


def test_exp_round_exactness_handoff():
    cf = ContinuedFraction.rule("exp_round", a1=3)
    assert cf.quotient(3) == 485165195
    assert cf.quotient(4) is None
    lo, hi = cf.quotient_log(4)
    assert lo.to_float() == pytest.approx(485165195, rel=1e-9)
    with pytest.raises(ExactnessExhausted):
        cf.convergent(4)


def test_exp_sqrt_ceil_prefix():
    cf = ContinuedFraction.rule("exp_sqrt_ceil", a1=3)
    got = [cf.quotient(i) for i in range(1, 7)]
    ref = [3]
    for _ in range(5):
        ref.append(math.ceil(math.exp(math.sqrt(ref[-1]))))
    assert got == ref
    # the generated quotients sit inside the e^sqrt(a) .. e^a corridor
    for a, nxt in zip(ref, ref[1:]):
        assert math.exp(math.sqrt(a)) <= nxt <= math.exp(a)


def test_lnq_matches_exact_logs_in_exact_range():
    cf = ContinuedFraction.rule("exp_round", a1=3)
    for n in range(1, 4):
        _, q = cf.convergent(n)
        lo, hi = cf.lnq_interval(n)
        assert lo.to_float() <= math.log(q) <= hi.to_float()
        assert hi.to_float() - lo.to_float() < 1e-10 * max(1.0, math.log(q))


def test_lnq_growth_beyond_exact_range():
    cf = ContinuedFraction.rule("exp_round", a1=3)
    lo4, hi4 = cf.lnq_interval(4)
    # q_4 = a_4 q_3 + q_2 with ln a_4 ~ 4.85e8 and ln q_3 ~ 24
    assert lo4.to_float() == pytest.approx(485165195 + 24.1, rel=1e-4)
    lo5, _ = cf.lnq_interval(5)
    assert lo5 > hi4


def test_log_inverse_interval_tracks_quotient():
    cf = ContinuedFraction.periodic([3])
    lo, hi = cf.log_inverse_interval(0)
    alpha = (math.sqrt(13.0) - 3.0) / 2.0  # fixed point of 1/(3+x)
    assert lo.to_float() <= math.log(1.0 / alpha) <= hi.to_float()


def test_bounded_prng_rule_is_deterministic_and_bounded():
    a = ContinuedFraction.rule("bounded_prng", a1=2, seed=7)
    b = ContinuedFraction.rule("bounded_prng", a1=2, seed=7)
    qa = [a.quotient(i) for i in range(1, 40)]
    qb = [b.quotient(i) for i in range(1, 40)]
    assert qa == qb
    assert all(1 <= x <= 9 for x in qa)


def test_json_round_trip():
    cases = [
        ContinuedFraction([3, 7, 15, 1]),
        ContinuedFraction.periodic([1]),
        ContinuedFraction.periodic([5, 1, 2, 3], start=2, period=3),
        ContinuedFraction.rule("exp_round", a1=3),
        ContinuedFraction.rule("log_power", a1=8, c=2.0),
    ]
    for cf in cases:
        blob = json.dumps(cf.to_json())
        back = ContinuedFraction.from_json(json.loads(blob))
        n = 6 if isinstance(cf.tail, (PeriodicTail, RuleTail)) else 4
        assert [back.quotient(i) for i in range(1, n)] == \
               [cf.quotient(i) for i in range(1, n)]
        assert type(back.tail) is type(cf.tail)


def test_concurrent_quotient_access_is_consistent():
    # lazy extension must never mutate earlier entries, even under
    # concurrent deep requests from several threads
    from concurrent.futures import ThreadPoolExecutor
    cf = ContinuedFraction.rule("log_power", a1=8, c=2.0)
    first = [cf.quotient(i) for i in range(1, 4)]

    def probe(depth):
        return [cf.quotient(i) for i in range(1, depth)]

    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(probe, [10, 25, 40, 25, 10, 40, 30, 15]))
    for r in results:
        assert r[:3] == first
    deep = max(results, key=len)
    for r in results:
        assert r == deep[:len(r)]


# one fraction of each kind the arith benchmark classifies
BRACKET_KINDS = {
    "golden": lambda: ContinuedFraction.golden(),
    "periodic": lambda: ContinuedFraction.periodic([3, 1, 4]),
    "bounded_prng": lambda: ContinuedFraction.rule("bounded_prng", a1=2,
                                                   seed=5, lo=1, hi=9),
    "exp_round": lambda: ContinuedFraction.rule("exp_round", a1=3),
    "exp_sqrt_ceil": lambda: ContinuedFraction.rule("exp_sqrt_ceil", a1=3),
    "exp_qn_round": lambda: ContinuedFraction.rule("exp_qn_round", a1=2),
    "log_power": lambda: ContinuedFraction.rule("log_power", a1=3, c=2.0),
}


def _bits(pair):
    """A bracket as comparable data: Fractions and floats as they are,
    LevelReals as their (level, m)."""
    return tuple((x.level, x.m) if hasattr(x, "level") else x for x in pair)


@pytest.mark.parametrize("kind", sorted(BRACKET_KINDS))
def test_kept_brackets_equal_fresh_reverse_reads(kind):
    # a kept bracket is the one a fraction that has seen no other query
    # computes, whatever the order of the queries
    cf, fresh = BRACKET_KINDS[kind](), BRACKET_KINDS[kind]()
    reads = ("shifted_value_bracket", "gauss_iterate_interval",
             "log_inverse_interval")
    forward = {(name, n): _bits(getattr(cf, name)(n))
               for n in range(61) for name in reads}
    reverse = {(name, n): _bits(getattr(fresh, name)(n))
               for n in range(60, -1, -1) for name in reads}
    assert forward == reverse
    for n in range(61):
        assert cf.shifted_value_bracket(n) is cf.shifted_value_bracket(n)
        assert cf.log_inverse_interval(n) is cf.log_inverse_interval(n)


def test_a_bracket_that_raises_raises_again():
    cf = ContinuedFraction([3, 1, 4])
    for _ in range(2):
        with pytest.raises(RationalDetected):
            cf.shifted_value_bracket(3)


def test_concurrent_bracket_reads_are_consistent():
    # threads that ask for the same brackets at once get equal values and,
    # once kept, one object per index; a short switch interval makes the
    # threads interleave inside the bracket computations
    import sys
    from concurrent.futures import ThreadPoolExecutor
    cf = ContinuedFraction.rule("log_power", a1=8, c=2.0)
    serial = ContinuedFraction.rule("log_power", a1=8, c=2.0)
    ranges = [(0, 30), (10, 40), (20, 50), (5, 45), (0, 50), (25, 35),
              (15, 25), (30, 50)]

    def probe(span):
        lo, hi = span
        return {n: cf.log_inverse_interval(n) for n in range(lo, hi)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(probe, ranges, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for r in results:
        for n, pair in r.items():
            assert _bits(pair) == _bits(serial.log_inverse_interval(n))
            assert pair is cf.log_inverse_interval(n)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        ContinuedFraction([0, 1])
    with pytest.raises(ValueError):
        ContinuedFraction.periodic([1, 2], start=2, period=2)
    with pytest.raises(ValueError):
        ContinuedFraction.rule("no_such_rule", a1=3)
    with pytest.raises(ValueError):
        cf_expand(1.5, 3)
