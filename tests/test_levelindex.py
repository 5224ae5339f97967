import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelab.levelindex import CAP, ONE, ZERO, LevelReal

mp = pytest.importorskip("mpmath")
mp.mp.prec = 120


def to_mp(x: LevelReal):
    """mpmath value of x, or None once past the oracle-comparable range."""
    v = mp.mpf(x.m)
    for _ in range(x.level):
        if v > 230000:  # exp would leave the range mpmath handles quickly
            return None
        v = mp.exp(v)
    return v


def close_mp(x: LevelReal, ref, rel=1e-10):
    got = to_mp(x)
    if got is None:
        return True  # beyond oracle range; structural tests cover this
    if ref == 0:
        return abs(got) < rel
    return abs(got - ref) <= rel * abs(ref)


finite_small = st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                         allow_infinity=False)


@given(finite_small)
def test_from_to_float_roundtrip(x):
    lr = LevelReal.from_float(x)
    back = lr.to_float()
    assert back == pytest.approx(x, rel=1e-12, abs=1e-12)


@given(finite_small)
def test_canonical_band(x):
    lr = LevelReal.from_float(x)
    if lr.level == 0:
        assert 0.0 <= lr.m < CAP
    else:
        assert lr.m < CAP
        assert lr.m >= math.log(CAP) - 1e-9


@given(finite_small, finite_small)
def test_order_matches_floats(a, b):
    la, lb = LevelReal.from_float(a), LevelReal.from_float(b)
    if a < b:
        assert la < lb or math.isclose(a, b, rel_tol=1e-15)
    if a > b:
        assert la > lb or math.isclose(a, b, rel_tol=1e-15)


@given(st.floats(min_value=1.0, max_value=700.0))
def test_exp_log_inverse(x):
    lr = LevelReal.from_float(x)
    assert lr.exp().log().to_float() == pytest.approx(x, rel=1e-12)
    assert lr.log().exp().to_float() == pytest.approx(x, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=700.0), st.integers(min_value=0, max_value=3),
       st.floats(min_value=0.0, max_value=700.0), st.integers(min_value=0, max_value=3))
@settings(max_examples=200)
def test_add_against_mpmath(ma, ea, mb, eb):
    a = LevelReal.from_float(ma)
    for _ in range(ea):
        a = a.exp()
    b = LevelReal.from_float(mb)
    for _ in range(eb):
        b = b.exp()
    ma_v, mb_v = to_mp(a), to_mp(b)
    if ma_v is None or mb_v is None:
        return  # beyond oracle range; structural tests below take over
    assert close_mp(a.add(b), ma_v + mb_v, rel=1e-9)


@given(st.floats(min_value=0.5, max_value=600.0), st.floats(min_value=0.0, max_value=600.0))
@example(a=512.0, b=511.5)
def test_diff_against_floats(a, b):
    hi, lo = max(a, b), min(a, b)
    d = LevelReal.from_float(hi).diff(LevelReal.from_float(lo))
    assert d.to_float() == pytest.approx(hi - lo, rel=1e-10, abs=1e-10)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=0.1, max_value=500.0))
def test_scale_matches(c, x):
    got = LevelReal.from_float(x).scale(c).to_float()
    assert got == pytest.approx(c * x, rel=1e-11)


@given(st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.0, max_value=200.0))
def test_mul_exp_neg_matches(x, ell):
    got = LevelReal.from_float(x).mul_exp_neg(LevelReal.from_float(ell)).to_float()
    assert got == pytest.approx(x * math.exp(-ell), rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("x, c", [(600.0, 1e-3), (1e5, 2e-6), (1e200, 1e-201)])
def test_scale_below_one_from_level_one(x, c):
    got = LevelReal.from_float(x).scale(c).to_float()
    assert got == pytest.approx(x * c, rel=1e-11)


@pytest.mark.parametrize("ln_x, c", [(600.0, 1e-300), (600.0, 1e-261),
                                     (700.0, 1e-305)])
def test_scale_below_one_from_level_two(ln_x, c):
    got = LevelReal.from_float(ln_x).exp().scale(c).to_float()
    assert got == pytest.approx(math.exp(ln_x + math.log(c)), rel=1e-11)


@pytest.mark.parametrize("ln_x, ell", [(600.0, 599.5), (550.0, 549.9)])
def test_mul_exp_neg_below_e_from_level_two(ln_x, ell):
    x = LevelReal.from_float(ln_x).exp()
    got = x.mul_exp_neg(LevelReal.from_float(ell)).to_float()
    assert got == pytest.approx(math.exp(ln_x - ell), rel=1e-9)


def test_mul_exp_neg_huge_cases():
    big = LevelReal.from_float(7.0)
    for _ in range(10):
        big = big.exp()  # exp^10(7)
    small_l = LevelReal.from_float(3.0)
    # dividing a tower by e^3 leaves it a tower of the same height
    out = big.mul_exp_neg(small_l)
    assert out.level == big.level
    # dividing by a far larger tower collapses to zero
    huge_l = LevelReal.from_float(7.0)
    for _ in range(12):
        huge_l = huge_l.exp()
    assert big.mul_exp_neg(huge_l) == ZERO


def test_tower_ordering_and_monotonicity():
    a = LevelReal.from_float(7.5)
    b = LevelReal.from_float(7.6)
    for _ in range(20):
        a, b = a.exp(), b.exp()
    assert a < b
    assert a.add(ONE) >= a
    assert b.diff(a) <= b
    assert a.exp() > a
    assert a.log() < a


def test_add_float_absorption_and_moderate():
    x = LevelReal.from_float(100.0)
    assert x.add_float(1.5).to_float() == pytest.approx(101.5)
    big = LevelReal.from_float(10.0)
    for _ in range(5):
        big = big.exp()
    assert big.add_float(1e6) >= big
    # relative change is below mantissa resolution
    assert big.add_float(1e6).level == big.level


def test_add_float_past_float_range():
    # e^709.5 and e^720 overflow to_float, so the sum is taken on the log:
    # e^709.5 - 1.5e308 is negative and clamps to 0, e^720 - 1e308 is not
    assert LevelReal.from_float(709.5).exp().add_float(-1.5e308) is ZERO
    x = LevelReal.from_float(720.0).exp().add_float(-1e308)
    assert close_mp(x, mp.exp(720) - mp.mpf("1e308"))


def test_nudge_up_strictly_increases():
    for x in [ZERO, ONE, LevelReal.from_float(511.9), LevelReal.from_float(1e300)]:
        assert x.nudge_up() > x
    t = LevelReal.from_float(9.0)
    for _ in range(7):
        t = t.exp()
    assert t.nudge_up() > t


def test_zero_identities():
    assert ZERO.add(ZERO) == ZERO
    assert ZERO.exp() == ONE
    assert ONE.log() == ZERO
    x = LevelReal.from_float(42.0)
    assert x.add(ZERO).to_float() == pytest.approx(42.0)
    assert x.diff(ZERO).to_float() == pytest.approx(42.0)


def test_from_float_edge_inputs():
    for bad in (math.nan, -1e-3):
        with pytest.raises(ValueError):
            LevelReal.from_float(bad)
    # a round-off negative is zero; infinity saturates past float range
    assert LevelReal.from_float(-1e-12) == ZERO
    assert LevelReal.from_float(math.inf).to_float() >= 1e307


def test_mul_exp_neg_below_one_underflows_to_zero():
    x = LevelReal.from_float(0.5)
    assert x.level == 0
    assert x.mul_exp_neg(LevelReal.from_float(800.0)) == ZERO
