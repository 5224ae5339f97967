"""Rotation-number estimation and family tuning.

Two estimators: the plain orbit average (error bound 1/n from the classical
displacement bound), and the closest-return accelerated form, which reads
convergent denominators off the orbit's return times -- the return
combinatorics of a circle map with no periodic orbit equal those of the
rotation by its rotation number, so successive best returns bracket it with
error 1/(q_d q_{d+1}).

The return scan is a single streaming pass over the orbit with an early-exit
callback, so tuning decisions (is the rotation number left or right of the
target?) only consume as much orbit as they need.  The tuning probe that
ends on a two-sided bracket holding the target is itself the certificate:
its estimate is read off that scan, and the orbit is not walked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .circlemap import AnalyticCircleMap, iterate
from .contfrac import ContinuedFraction, FiniteTail
from .errors import PeriodicOrbitDetected, TargetUnreachable

RATIONAL_TOL = 1e-12
_CHUNK = 1 << 16


@dataclass(frozen=True)
class RotationEstimate:
    value: float                 # in [0, 1)
    method: str                  # "birkhoff" | "closest_return"
    n: int                       # orbit length consumed
    error_bound: float
    extracted_quotients: Optional[tuple] = None
    bracket: Optional[tuple] = None  # certified (lo, hi), unreduced


@dataclass(frozen=True)
class ClosestReturn:
    q: int
    p: int
    err: float  # signed lift displacement error f^q(x0) - x0 - p
    overall: bool = True  # beat the best of BOTH sides (a convergent time);
    # False marks a one-sided (semiconvergent) improvement


def rotation_number_birkhoff(f: AnalyticCircleMap, x0: float = 0.0,
                             n: int = 1000) -> RotationEstimate:
    """Orbit-average estimate (f^n(x0) - x0)/n mod 1, error bound 1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    disp = iterate(f, x0, n) - x0
    return RotationEstimate(value=(disp / n) % 1.0, method="birkhoff", n=n,
                            error_bound=1.0 / n)


class _ReturnScan:
    """Streaming closest-return state with per-side tracking.

    A return (q, p, e) with e = f^q(x0) - x0 - p certifies a side of the
    rotation number regardless of any chain structure: the sign of
    f^q - id - p is x-independent for a map without a period-q orbit, so
    e > 0 forces rho > p/q and e < 0 forces rho < p/q.  Tracking the best
    fraction on each side keeps the certified bracket tightening even when
    strong distortion makes the one-sided minimum sequence skip levels.
    """

    __slots__ = ("returns", "best_pos", "best_neg", "lower", "upper",
                 "overall_count")

    def __init__(self):
        self.returns: list[ClosestReturn] = []
        self.best_pos = math.inf   # smallest positive e so far
        self.best_neg = math.inf   # smallest |e| among negative e so far
        self.lower: Optional[ClosestReturn] = None  # rho > p/q side
        self.upper: Optional[ClosestReturn] = None  # rho < p/q side
        self.overall_count = 0

    def offer(self, q: int, p: int, e: float) -> bool:
        """Record (q, p, e) if it improves its side; True when recorded."""
        best_both = min(self.best_pos, self.best_neg)
        overall = abs(e) < best_both * (1.0 - 1e-12)
        if e >= 0:
            if e >= self.best_pos * (1.0 - 1e-12):
                return False
            self.best_pos = e
            rec = ClosestReturn(q, p, e, overall)
            self.lower = rec
        else:
            if -e >= self.best_neg * (1.0 - 1e-12):
                return False
            self.best_neg = -e
            rec = ClosestReturn(q, p, e, overall)
            self.upper = rec
        self.returns.append(rec)
        self.overall_count += overall
        return True

    def overall_returns(self) -> list[ClosestReturn]:
        return [r for r in self.returns if r.overall]

    def bracket(self) -> Optional[tuple]:
        if self.lower is None or self.upper is None:
            return None
        return (self.lower.p / self.lower.q, self.upper.p / self.upper.q)

    def width(self) -> float:
        br = self.bracket()
        return math.inf if br is None else br[1] - br[0]


def _scan_returns(f: AnalyticCircleMap, x0: float, n_max: int,
                  stop: Callable[[_ReturnScan], bool],
                  rational_tol: float,
                  stall_factor: Optional[int] = None) -> _ReturnScan:
    """Walk the orbit feeding the per-side return state; after each recorded
    return, stop(scan) may end the walk early.

    With stall_factor set, the walk also gives up once the orbit has run
    stall_factor times past the last recorded return: return gaps are
    bounded by the next partial quotient, so a long stall means the
    structure broke (float floor, or the value drifted off the target's
    quotient pattern) and deeper certified returns will not come.
    """
    scan = _ReturnScan()

    def stalled_at(q_last: int) -> int:
        if stall_factor is None:
            return n_max
        return min(n_max, stall_factor * q_last + 4096)

    stall_q = stalled_at(1)
    if f.degree == 0:
        c = f.mean_shift
        done = 0
        while done < min(n_max, stall_q):
            m = min(_CHUNK, n_max - done)
            j = np.arange(done + 1, done + m + 1, dtype=float)
            d = j * c
            p = np.round(d)
            e = d - p
            cand = np.nonzero((e >= 0) & (e < scan.best_pos) |
                              (e < 0) & (-e < scan.best_neg))[0]
            for i in cand:
                q = int(j[i])
                if not scan.offer(q, int(p[i]), float(e[i])):
                    continue
                stall_q = stalled_at(q)
                if abs(float(e[i])) < rational_tol:
                    raise PeriodicOrbitDetected(q, int(p[i]), float(e[i]))
                if stop(scan):
                    return scan
            done += m
        return scan
    x = float(x0)
    step = f.step_scalar
    for q in range(1, n_max + 1):
        if q > stall_q:
            break
        x = step(x)
        d = x - x0
        p = round(d)
        e = d - p
        if scan.offer(q, int(p), e):
            stall_q = stalled_at(q)
            if abs(e) < rational_tol:
                raise PeriodicOrbitDetected(q, int(p), e)
            if stop(scan):
                return scan
    return scan


def closest_returns(f: AnalyticCircleMap, x0: float = 0.0,
                    n_max: int = 100000, max_returns: Optional[int] = None,
                    rational_tol: float = RATIONAL_TOL,
                    burn_in: int = 0) -> list[ClosestReturn]:
    """Times q at which the orbit of the base point comes closer to it than
    ever before on the corresponding side.  Raises PeriodicOrbitDetected on
    a return within rational_tol.

    burn_in > 0 advances the base point along the orbit first; with an
    attracting periodic cycle present, a generic point never returns to
    itself, but its burnt-in image sits close enough to the cycle for the
    rationality detector to fire.
    """
    base = iterate(f, x0, burn_in) if burn_in else x0
    if max_returns is None:
        scan = _scan_returns(f, base, n_max, lambda s: False, rational_tol)
    else:
        scan = _scan_returns(f, base, n_max,
                             lambda s: s.overall_count >= max_returns,
                             rational_tol)
    return scan.overall_returns()


def quotients_from_returns(returns: list[ClosestReturn]) -> Optional[list[int]]:
    """Partial quotients from the return-time chain, or None when the sign
    alternation or the three-term recursion fails (precision exhausted or
    levels skipped under strong distortion)."""
    if len(returns) < 2:
        return None
    es = [r.err for r in returns]
    if any(e1 * e2 >= 0 for e1, e2 in zip(es, es[1:])):
        return None
    chain = [r.q for r in returns]
    if es[0] < 0:
        chain = [1] + chain  # virtual q_0 = 1 return on the positive side
    if chain[0] != 1:
        return None
    quots = [chain[1]] if len(chain) > 1 else []
    for j in range(2, len(chain)):
        num = chain[j] - chain[j - 2]
        if num <= 0 or num % chain[j - 1] != 0:
            return None
        quots.append(num // chain[j - 1])
    return quots if all(a >= 1 for a in quots) else None


def _estimate_from(scan: _ReturnScan, n_used: int) -> Optional[RotationEstimate]:
    br = scan.bracket()
    if br is None:
        return None
    lo, hi = br
    ra, rb = scan.lower, scan.upper
    value = ((ra.p + rb.p) / (ra.q + rb.q)) % 1.0
    quots = quotients_from_returns(scan.overall_returns())
    return RotationEstimate(value=value, method="closest_return",
                            n=n_used, error_bound=hi - lo,
                            extracted_quotients=tuple(quots) if quots else None,
                            bracket=(lo, hi))


def rotation_number_closest_return(f: AnalyticCircleMap, x0: float = 0.0,
                                   depth: int = 12, n_max: int = 100000,
                                   burn_in: int = 0) -> RotationEstimate:
    """Closest-return estimate: the mediant of the best return fractions on
    the two sides, certified between them; falls back to the plain average
    when no two-sided bracket forms."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    base = iterate(f, x0, burn_in) if burn_in else x0
    scan = _scan_returns(f, base, n_max,
                         lambda s: s.overall_count >= depth + 2, RATIONAL_TOL)
    est = _estimate_from(scan, scan.returns[-1].q if scan.returns else n_max)
    if est is None:
        return rotation_number_birkhoff(f, x0, n_max)
    return est


def rho_interval(f: AnalyticCircleMap, eps: float, x0: float = 0.0,
                 n_cap: int = 8_000_000,
                 stall_factor: Optional[int] = None) -> RotationEstimate:
    """Closest-return estimate refined until its certified bracket is
    narrower than eps (or the orbit cap / stall guard ends the scan).
    PeriodicOrbitDetected propagates."""
    scan = _scan_returns(f, x0, n_cap, lambda s: s.width() <= eps,
                         RATIONAL_TOL, stall_factor)
    est = _estimate_from(scan, scan.returns[-1].q if scan.returns else n_cap)
    if est is None:
        return rotation_number_birkhoff(f, x0, max(1024, min(n_cap, int(2.0 / eps))))
    return est


def _probe(f: AnalyticCircleMap, alpha: float, eps: float, x0: float,
           n_cap: int) -> tuple[float, Optional[RotationEstimate]]:
    """(deviation estimate, certified estimate or None) for rho(f) vs alpha.

    The deviation is the uncertified sharpened value (p_d + err_d)/q_d of
    the deepest return minus alpha.  For a conjugated rotation the return
    error is Dh(y0) times the exact displacement error, so this lands within
    O(|Dh - 1|) of the truth relative to the certified bracket width -- good
    enough to steer a root find even where certified returns have stalled.

    The estimate comes when the scan ends on a bracket of width <= eps
    holding alpha: the first such return, where rho_interval(f, eps) stops
    too under any stall guard at least as loose as this one's.
    """
    def stop(s: _ReturnScan) -> bool:
        br = s.bracket()
        if br is not None and (br[1] < alpha or br[0] > alpha):
            return True
        if s.lower is not None and s.lower.p / s.lower.q > alpha:
            return True
        if s.upper is not None and s.upper.p / s.upper.q < alpha:
            return True
        return s.width() <= eps

    scan = _scan_returns(f, x0, n_cap, stop, RATIONAL_TOL, stall_factor=16)
    if not scan.returns:
        b = rotation_number_birkhoff(f, x0, 4096)
        return b.value - alpha, None
    r = scan.returns[-1]
    dev = (r.p + r.err) / r.q - alpha
    br = scan.bracket()
    if scan.width() <= eps and br[0] <= alpha <= br[1]:
        return dev, _estimate_from(scan, r.q)
    return dev, None


def tune_parameter(family, target: ContinuedFraction, tol: float = 1e-10,
                   x0: float = 0.0, n_cap: int = 8_000_000
                   ) -> tuple[float, RotationEstimate]:
    """Find the family parameter whose rotation number certifies within tol
    of the target value.

    Continuity and monotonicity of the rotation number in the additive
    parameter justify a safeguarded secant iteration on the sharpened
    closest-return value.  Each probe scans only until the returns place the
    target on one side or bracket it within tol/2; the first probe whose
    two-sided bracket holds the target is the certificate, and its estimate
    (the one rho_interval(map, tol/2) would return) is returned as it is.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(target.tail, FiniteTail):
        raise ValueError("target must be an irrational continued fraction")
    tlo, thi = target.value_interval()
    if thi - tlo > tol / 10.0:
        raise ValueError("target value bracket is wider than tol/10")
    alpha = 0.5 * (tlo + thi)
    pad = family.displacement_bound() + 1e-3
    lo, hi = alpha - pad, alpha + pad
    a = alpha
    prev: Optional[tuple] = None
    slope = 1.0
    for _ in range(80):
        try:
            dev, est = _probe(family.map_at(a), alpha, tol / 2, x0, n_cap)
        except PeriodicOrbitDetected as po:
            dev, est = po.p / po.q - alpha, None
        if est is not None:
            return float(a), est
        # maintain the monotone bracket and take a safeguarded secant step
        if dev > 0:
            hi = min(hi, a)
        else:
            lo = max(lo, a)
        if prev is not None and abs(a - prev[0]) > 0:
            s = (dev - prev[1]) / (a - prev[0])
            if 0.05 <= s <= 50.0:
                slope = s
        prev = (a, dev)
        a_next = a - dev / slope
        if not lo < a_next < hi:
            a_next = 0.5 * (lo + hi)
        if hi - lo < 1e-15:
            raise TargetUnreachable(
                "parameter bracket collapsed before certification")
        a = a_next
    raise TargetUnreachable("no certified parameter within the iteration cap")


def eq_rot_check(f: AnalyticCircleMap, n: int, x0: float = 0.0) -> float:
    """Residual between the orbit-averaged displacement (the unique-ergodicity
    estimate of the invariant-measure displacement integral) and the certified
    rotation number."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = 1e-12 if f.degree == 0 else 1e-10  # rotations certify cheaply
    rho = rho_interval(f, eps, x0, stall_factor=64)
    avg = (iterate(f, x0, n) - x0) / n
    d = abs(avg % 1.0 - rho.value)
    return min(d, 1.0 - d)
