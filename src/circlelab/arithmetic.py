"""Arithmetic classification of rotation numbers.

Three nested classes are probed at finite depth, from quotient data only:

* Diophantine: q^(2+sigma) |alpha - p/q| stays bounded below over convergents.
* Brjuno: sum of ln(q_{n+1}) / q_n converges.
* The linearization condition tested by the threshold recursion
  R_{k+1} = Rmap_{alpha_k}(R_k) against truncated Brjuno values, where
  Rmap_alpha(r) = (r - ln(1/alpha) + 1) / alpha  once r >= ln(1/alpha),
  and e^r below that.  One backward sweep of B(alpha) = ln(1/alpha) +
  alpha B(G(alpha)) gives every window n <= m_max + k_max; each ends at index
  m_max + k_max + b_depth - 1, so b_depth is the depth of the last to start.

Verdicts are honest about truncation: a pass or a fail is certified only when
the two-sided interval data leaves a margin above the guard band and the
truncation-tail allowance; everything else is inconclusive.  Absolute errors
below ~1e-290 (underflowed correction terms) are absorbed by the guard bands.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from .contfrac import ContinuedFraction, FiniteTail
from .errors import (DepthExhausted, ExactnessExhausted, NotBrjuno,
                     RationalDetected)
from .levelindex import ZERO, LevelReal

_GUARD = 1e-9  # decision guard band (absolute at level 0, mantissa above)
_TAIL_FLOOR = 1e-300
_LN2 = math.nextafter(math.log(2.0), math.inf)  # above ln 2


# ---------------------------------------------------------------------------
# Diophantine estimate


@dataclass(frozen=True)
class DiophantineEstimate:
    sigma: float
    depth: int
    gamma_hat: float
    attained_at: int
    certified: bool
    values: tuple = field(repr=False, default=())


def diophantine_estimate(cf: ContinuedFraction, sigma: float,
                         depth: int) -> DiophantineEstimate:
    """Best lower bound for the Diophantine constant over denominators up to
    q_depth.  Convergents minimize q^(2+sigma)|alpha - p/q| among all
    rationals with denominator below the next return time, so scanning them
    is exhaustive for that range.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    values = [_dioph_value(cf, k, sigma) for k in range(1, depth + 1)]
    gamma_hat = min(values)
    attained = values.index(gamma_hat) + 1
    certified = (depth >= 5 and gamma_hat > 0.0
                 and attained <= depth - 3
                 and min(values[-3:]) >= 0.8 * gamma_hat)
    return DiophantineEstimate(sigma, depth, gamma_hat, attained, certified,
                               tuple(values))


def _dioph_value(cf, k, sigma) -> float:
    """q_k^(2+sigma) |alpha - p_k/q_k|, rounded down: with exact convergents
    q_k^(1+sigma) / (q_{k+1} + alpha_{k+1} q_k), the Gauss iterate
    alpha_{k+1} = G^(k+1)(alpha) taken at the top of its bracket; past them,
    q_k^(1+sigma) / (2 q_{k+1}) from the log brackets of q_k and q_{k+1}."""
    try:
        _, q = cf.convergent(k)
        try:
            _, q1 = cf.convergent(k + 1)
            t = Fraction(cf.gauss_iterate_interval(k + 1)[1])
        except DepthExhausted:  # a finite fraction ends at p_k/q_k = alpha
            return 0.0
        except RationalDetected:  # ... or at p_{k+1}/q_{k+1}: alpha_{k+1} = 0
            t = Fraction(0)
        # the roundings sum to < sigma + 6 half-ulps; 2 sigma + 8 come off
        return (float(Fraction(q) / (q1 + t * q)) * float(q) ** sigma
                * (1.0 - (sigma + 4.0) * 2.0 ** -52))
    except (ExactnessExhausted, OverflowError):
        # beta_k = 1/(q_{k+1} + alpha_{k+1} q_k) > 1/(2 q_{k+1}), so the value
        # exceeds exp((1+sigma) ln q_k - ln q_{k+1} - ln 2): ln q_k from the
        # bottom of its bracket, ln q_{k+1} from the top
        lnq = cf.lnq_interval(k)[0].to_float() * (1.0 + sigma)
        lnq1 = cf.lnq_interval(k + 1)[1].to_float() + _LN2
        if not math.isfinite(lnq + lnq1):  # past float range: 0 bounds it
            return 0.0
        # the float sum rounds by < 4 half-ulps of its largest operand
        t = lnq1 - lnq + 4.0 * 2.0 ** -52 * (lnq1 + lnq)
        if t > 745.0:
            return 0.0
        return math.exp(min(-t, 709.0)) * (1.0 - 4.0 * 2.0 ** -52)


# ---------------------------------------------------------------------------
# Brjuno sum and Brjuno function


@dataclass(frozen=True)
class BrjunoSumResult:
    value: float
    diverging: bool
    depth: int
    terms: tuple = field(repr=False, default=())


def brjuno_sum(cf: ContinuedFraction, depth: int) -> BrjunoSumResult:
    """Truncated sum of ln(q_{n+1})/q_n with a divergence heuristic: the sum
    is flagged diverging when the last 3 threshold-decidable terms each
    exceed the threshold 1.0 (growth of that shape cannot be summable).

    Deep terms of super-exponential chains stop being decidable against the
    threshold once their two-sided bounds straddle it (iterated-exponential
    resolution limit); those are skipped by the heuristic, never invented.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    terms = []
    decided = []  # True = certified above threshold, False = certified below
    for n in range(1, depth):
        num_lo, num_hi = cf.lnq_interval(n + 1)
        den_lo, den_hi = cf.lnq_interval(n)
        # term = ln(q_{n+1}) / q_n = ln(q_{n+1}) * e^{-ln q_n}
        t_lo = num_lo.mul_exp_neg(den_hi).to_float()
        t_hi = num_hi.mul_exp_neg(den_lo).to_float()
        terms.append(t_lo)
        if t_lo > 1.0:
            decided.append(True)
        elif t_hi <= 1.0:
            decided.append(False)
    total = math.fsum(t for t in terms if math.isfinite(t))
    if any(not math.isfinite(t) for t in terms):
        total = math.inf
    k = min(3, len(decided))
    diverging = k > 0 and all(decided[-k:])
    return BrjunoSumResult(total, diverging, depth, tuple(terms))


def brjuno_function(x: float, depth: int) -> float:
    """Truncated Brjuno function of x in (0,1): the partial sum of
    beta_{j-1} ln(1/x_j) along the Gauss orbit x_{j+1} = {1/x_j}."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly inside (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = 0.0
    beta = 1.0
    y = x
    for _ in range(depth):
        if y < 1e-12:
            raise RationalDetected("Gauss iterate vanished at working precision")
        total += beta * math.log(1.0 / y)
        beta *= y
        inv = 1.0 / y
        y = inv - math.floor(inv)
    return total


def brjuno_interval(cf: ContinuedFraction, n: int, depth: int,
                    b_cap: float = 50.0):
    """Two-sided LevelReal bounds for the depth-truncated Brjuno value of the
    n-th Gauss iterate, plus a float tail allowance.

    The truncated value is a lower bound of the true one (all terms are
    positive).  The tail allowance is beta_{depth-1} L_{n+depth} (the first
    omitted term, computed from known data) plus beta_depth * b_cap with
    b_cap a configured cap on deeper truncated values.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _brjuno_windows(cf, n, n, n + depth, b_cap)[0]


def _brjuno_windows(cf, first, last, end, b_cap):
    """brjuno_interval's (b_lo, b_hi, tail) of the windows [n, end) for
    n = first..last, from one backward sweep: B(alpha_j) = L_j +
    alpha_j B(alpha_{j+1}) is its Horner step, and each window's tail reads
    the L sum of that window and the one L at `end`."""
    try:
        l_end = cf.log_inverse_interval(end)
    except (DepthExhausted, ExactnessExhausted, RationalDetected):
        l_end = None  # no data past the windows: the allowance widens
    b_lo = b_hi = s_lo = ZERO  # s_lo: lower bound of the window's L sum
    windows = []
    for j in range(end - 1, first - 1, -1):
        llo, lhi = cf.log_inverse_interval(j)
        b_lo = llo.add(b_lo.mul_exp_neg(lhi))
        b_hi = lhi.add(b_hi.mul_exp_neg(llo))
        s_lo = s_lo.add(llo)
        if j <= last:
            tail = _TAIL_FLOOR + (math.inf if l_end is None else (
                l_end[1].mul_exp_neg(s_lo).to_float() + LevelReal.from_float(
                    b_cap).mul_exp_neg(s_lo.add(l_end[0])).to_float()))
            windows.append((b_lo, b_hi,
                            tail if math.isfinite(tail) else 1e300))
    return windows[::-1]


# ---------------------------------------------------------------------------
# The threshold recursion and the linearization condition


def r_alpha(alpha: float, r: float) -> float:
    """One step of the threshold map: (r - ln(1/alpha) + 1)/alpha for
    r >= ln(1/alpha), e^r below; continuous at the joint."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if r < 0.0:
        raise ValueError("r must be >= 0")
    ell = math.log(1.0 / alpha)
    if r >= ell:
        return (r - ell + 1.0) / alpha
    return math.exp(r)


def _r_step(r: LevelReal, ell: LevelReal) -> LevelReal:
    if r >= ell:
        d = r.diff(ell).add_float(1.0)
        return ell.add(d.log()).exp()
    return r.exp()


@dataclass(frozen=True)
class HRecursionState:
    """One step of the threshold recursion seeded at the m-th Gauss iterate;
    r saturates to inf when past float range."""
    m: int
    k: int
    r: float
    alpha_gauss: float


def h_recursion_states(cf: ContinuedFraction, m: int, k_max: int):
    """Yield the recursion states R_0..R_{k_max} at seed m (diagnostics)."""
    r = ZERO
    for k in range(k_max + 1):
        alo, ahi = cf.gauss_iterate_interval(m + k)
        yield HRecursionState(m, k, r.to_float(), 0.5 * (alo + ahi))
        llo, lhi = cf.log_inverse_interval(m + k)
        r = _r_step(r, llo)


@dataclass(frozen=True)
class HProbe:
    m: int
    passed_at: Optional[int]
    certified_below: bool


@dataclass(frozen=True)
class ConditionHVerdict:
    kind: str  # "pass_to_depth" | "fail_at" | "inconclusive"
    m_max: int
    k_max: int
    b_depth: int  # every window ends at m_max + k_max + b_depth - 1
    fail_m: Optional[int]
    probes: tuple = field(repr=False, default=())


def condition_h_check(cf: ContinuedFraction, m_max: int, k_max: int,
                      b_depth: int, b_cap: float = 50.0) -> ConditionHVerdict:
    """Truncated test of the linearization condition: every seed m <= m_max
    must reach R_k >= B(alpha_{m+k}) for some k <= k_max.

    pass_to_depth: every m admits a certified k (recursion lower bound beats
    the Brjuno upper bound plus tail allowance).
    fail_at(m):    for some m the recursion upper bound stays below the
    truncated Brjuno lower bound, with margin beyond the tail allowance, for
    every k <= k_max.
    inconclusive:  anything else.

    B(alpha_n) is truncated at index m_max + k_max + b_depth - 1 for every
    n, so b_depth is the depth of the window that starts last.
    """
    return _condition_h(cf, m_max, k_max, b_depth, b_cap, None)


def _condition_h(cf, m_max, k_max, b_depth, b_cap, gate):
    """condition_h_check's body.  `gate` is a Brjuno sum already computed
    (used when its depth is the gate's)."""
    if min(m_max, k_max, b_depth) < 1:
        raise ValueError("m_max, k_max, b_depth must all be >= 1")
    gate_depth = max(40, m_max + k_max + 2)
    if gate is None or gate.depth != gate_depth:
        gate = brjuno_sum(cf, gate_depth)
    if gate.diverging:
        raise NotBrjuno("divergence-certified quotient growth")
    windows = _brjuno_windows(cf, 0, m_max + k_max,
                              m_max + k_max + b_depth, b_cap)
    probes = []
    for m in range(0, m_max + 1):
        r_lo = r_hi = ZERO
        found = None
        below = True
        for k in range(0, k_max + 1):
            b_lo, b_hi, tail = windows[m + k]
            if r_lo >= b_hi.add_float(tail).nudge_up(_GUARD):
                found = k
                break
            if not r_hi.add_float(tail).nudge_up(_GUARD) <= b_lo:
                below = False
            if k < k_max:
                llo, lhi = cf.log_inverse_interval(m + k)
                r_lo = _r_step(r_lo, llo)
                r_hi = _r_step(r_hi, lhi)
        probes.append(HProbe(m, found, found is None and below))
    fails = [p.m for p in probes if p.certified_below]
    kind = ("pass_to_depth" if all(p.passed_at is not None for p in probes)
            else "fail_at" if fails else "inconclusive")
    return ConditionHVerdict(kind, m_max, k_max, b_depth,
                             fails[0] if fails else None, tuple(probes))


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class ClassifyConfig:
    sigma: float = 0.0
    diophantine_depth: int = 30
    brjuno_depth: int = 40
    h_m_max: int = 10
    h_k_max: int = 20
    h_b_depth: int = 40  # windows end at h_m_max + h_k_max + h_b_depth - 1
    b_cap: float = 50.0


@dataclass(frozen=True)
class ArithmeticVerdict:
    diophantine: DiophantineEstimate
    brjuno: BrjunoSumResult
    brjuno_B: float
    condition_h: Optional[ConditionHVerdict]
    config: ClassifyConfig
    note: str = ""

    def to_json(self) -> dict:
        """Every field, nested records included; `brjuno` is `brjuno_sum`."""
        out = asdict(self)
        out["brjuno_sum"] = out.pop("brjuno")
        return out


def classify(cf: ContinuedFraction,
             config: ClassifyConfig = ClassifyConfig()) -> ArithmeticVerdict:
    """Bundle the three classifications at the configured depths.

    Verdict-order consistency is enforced: a certified Diophantine pass
    demotes a fail_at answer for the linearization condition to inconclusive
    (at equal truncation depths the strict class order admits no such pair,
    so one of the heuristics must have been fooled).

    A finite fraction is rational: RationalDetected is raised up front."""
    if isinstance(cf.tail, FiniteTail):
        raise RationalDetected("a finite continued fraction is rational")
    dio = diophantine_estimate(cf, config.sigma, config.diophantine_depth)
    bs = brjuno_sum(cf, config.brjuno_depth)
    blo, bhi, _ = brjuno_interval(cf, 0, config.brjuno_depth, config.b_cap)
    b_mid = 0.5 * (blo.to_float() + bhi.to_float()) \
        if math.isfinite(bhi.to_float()) else blo.to_float()
    note = ""
    if bs.diverging:
        h = None
        note = "Brjuno sum diverging: linearization-condition check vacuous"
    else:
        h = _condition_h(cf, config.h_m_max, config.h_k_max,
                         config.h_b_depth, config.b_cap, bs)
        if dio.certified and h.kind == "fail_at":
            h = ConditionHVerdict("inconclusive", h.m_max, h.k_max,
                                  h.b_depth, None, h.probes)
            note = ("certified Diophantine pass demoted a fail_at verdict "
                    "to inconclusive (class-order consistency)")
    return ArithmeticVerdict(dio, bs, b_mid, h, config, note)
