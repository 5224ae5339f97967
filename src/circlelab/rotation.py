"""Rotation-number estimation and family tuning.

Two estimators: the plain orbit average (error bound 1/n from the classical
displacement bound), and the closest-return accelerated form, which reads
convergent denominators off the orbit's return times -- the return
combinatorics of a circle map with no periodic orbit equal those of the
rotation by its rotation number, so successive best returns bracket it with
error 1/(q_d q_{d+1}).  Both walk one reduced orbit (`_scan_returns`), and
so do every burn-in and `circlemap.iterate` at a float.

The return scan is a single streaming pass over the orbit with an early-exit
callback, so tuning decisions (is the rotation number left or right of the
target?) only consume as much orbit as they need.  The tuning probe that
ends on a two-sided bracket holding the target is itself the certificate:
its estimate is read off that scan, and the orbit is not walked again.

The scan walks the orbit reduced to [0, 1) with an integer winding count,
so a return error at q ~ 10^6 carries the rounding of a number in [0, 1)
(~1e-16 per step) rather than that of the lift, which has grown to ~q.  Its
inner loop is plain float arithmetic with the map's mode sum inlined: a
sine-only map (`_sine_only`: every Arnold map) steps by one sine, and floor
runs only on the steps where y leaves [0, 2), since floor(y) is 0 or 1 there.
A step whose y lies in a quiet window, where no return can beat its side's
best, ends on that one test.

Many short scans of sine-only maps, such as the cells of a tongue picture,
run as one batch (`closest_return_batch`): each orbit is one entry of a
numpy array, stepped by the scalar loop's sine-only step, so each result
equals the per-map `rotation_number_closest_return`, the scan every other
map takes.  The batch keeps each map's return state in arrays indexed by
map and builds records only for the overall-return chains its estimates
read; both it and the scalar scan build every estimate through
`_estimate_from`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .circlemap import TWO_PI, AnalyticCircleMap
from .contfrac import ContinuedFraction, FiniteTail
from .errors import PeriodicOrbitDetected, TargetUnreachable

RATIONAL_TOL = 1e-12
_IMPROVE = 1.0 - 1e-12  # factor by which a return must beat its side's best
_CHUNK = 1 << 16
_STALL = 64  # stall guard of rho_interval and _probe (see _scan_returns)
_N_CAP = 8_000_000  # orbit cap of rho_interval and _probe
_QUIET_GUARD = 2.0 ** -50  # covers the rounding of y - y0 and window ends


@dataclass(frozen=True)
class RotationEstimate:
    value: float                 # in [0, 1)
    method: str                  # "birkhoff" | "closest_return"
    n: int                       # orbit length consumed
    error_bound: float
    extracted_quotients: Optional[tuple] = None
    bracket: Optional[tuple] = None  # certified closed [lo, hi], unreduced


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
    disp = _walk(f, x0, n).disp
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
                 "overall_count", "disp", "y")

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
        overall = abs(e) < best_both * _IMPROVE
        if e >= 0:
            if e >= self.best_pos * _IMPROVE:
                return False
            self.best_pos = e
            rec = ClosestReturn(q, p, e, overall)
            self.lower = rec
        else:
            if -e >= self.best_neg * _IMPROVE:
                return False
            self.best_neg = -e
            rec = ClosestReturn(q, p, e, overall)
            self.upper = rec
        self.returns.append(rec)
        self.overall_count += overall
        return True

    def end(self, disp: float, y: float) -> "_ReturnScan":
        self.disp, self.y = disp, y
        return self

    def overall_returns(self) -> list[ClosestReturn]:
        return [r for r in self.returns if r.overall]

    def bracket(self) -> Optional[tuple]:
        if self.lower is None or self.upper is None:
            return None
        return (self.lower.p / self.lower.q, self.upper.p / self.upper.q)

    def width(self) -> float:
        br = self.bracket()
        return math.inf if br is None else br[1] - br[0]

    def estimate(self) -> Optional[RotationEstimate]:
        """`_estimate_from` of this scan, or None while a side is empty."""
        lo, up = self.lower, self.upper
        if lo is None or up is None:
            return None
        return _estimate_from((lo.q, lo.p), (up.q, up.p),
                              self.overall_returns(), self.returns[-1].q)


def _sine_only(f: AnalyticCircleMap) -> bool:
    """Whether f is x + c + cb*sin(2 pi x): one mode, of cosine weight
    exactly zero (every Arnold map with b != 0).  Such a map steps by
    c + cb*sin(t), the float of the mode sum c + (ca*cos(t) + cb*sin(t))
    up to the sign of a zero, since ca*cos(t) = +-0.0 adds an exact zero."""
    modes = f._scalar_modes
    return len(modes) == 1 and modes[0][1] == 0.0


def _scan_returns(f: AnalyticCircleMap, x0: float, n_max: int,
                  stop: Callable[[_ReturnScan], bool],
                  rational_tol: float,
                  stall_factor: Optional[int] = None) -> _ReturnScan:
    """Walk the orbit feeding the per-side return state; after each recorded
    return, stop(scan) may end the walk early.

    The orbit is walked reduced: y in [0, 1) and an integer winding count w
    with f^q(x0) = floor(x0) + w + y.  Each step adds the mode sum to y and,
    when y has left [0, 1), moves floor(y) into w (inside it floor(y) is 0).
    y leaves on a share ~rho of the steps (62% of a golden scan, 41% of a
    sqrt 2 - 1 one), so floor is skipped on the rest; and when y lands in
    [1, 2), where floor(y) is exactly 1, the step subtracts 1.0 and adds 1
    to w without calling floor.  Reduced, y keeps the absolute precision of
    a number in [0, 1) at every q, where the unreduced lift (of size ~q)
    rounds at ~q * 1e-16 per step.  The return error e = f^q(x0) - x0 - p is
    y - y0 wrapped to [-1/2, 1/2), a difference that is exact at a close
    return (both lie in [0, 1)), and p is w plus the wrap.  The mode sum is
    inlined, and a `_sine_only` map steps by c + cb*sin(t).  The return
    state is offered only returns it may record: beating their side's best
    by its rule (the loop), or their side's strict running minimum (a
    rotation's closed-form chunk).

    The loop skips that rule on the steps where no return can be recorded.
    With thresholds thr_pos and thr_neg (each side's best |e| times
    _IMPROVE), e escapes both exactly when y lies on the circle arc from
    y0 + thr_pos to y0 + 1 - thr_neg, which in [0, 1) is two quiet windows,
    [y0 - 1 + thr_pos + g, y0 - thr_neg - g] and
    [y0 + thr_pos + g, y0 + 1 - thr_neg - g], set after each recorded
    return.  g = _QUIET_GUARD (2^-50) exceeds the rounding of y - y0 and of
    the window ends (a few 2^-53), so a y inside a window fails the exact
    test too, and the step goes on at once; every other step runs that test.
    While a side has no return its threshold is inf and both windows are
    empty, so every step is tested.  The records, the estimates and the end
    state are those of the walk that tests every step.

    With stall_factor set, the walk also gives up once the orbit has run
    stall_factor times past the last recorded return: return gaps are
    bounded by the next partial quotient, so a long stall means the
    structure broke (float floor, or the value drifted off the target's
    quotient pattern) and deeper certified returns will not come.

    The scan records where the walk stopped, for `_walk`: y, and disp =
    f^q(x0) - x0 = w + (y - y0) (q c for a rotation), rounded once.
    """
    scan = _ReturnScan()

    def stalled_at(q_last: int) -> int:
        if stall_factor is None:
            return n_max
        return min(n_max, stall_factor * q_last + 4096)

    stall_q = stalled_at(1)
    x0 = float(x0)
    y0 = x0 - math.floor(x0)
    c = f.mean_shift
    if f.degree == 0:
        done = 0
        while done < min(n_max, stall_q):
            m = min(_CHUNK, n_max - done)
            d = np.arange(done + 1, done + m + 1, dtype=float) * c
            p = np.round(d)
            e = d - p
            ep, en = np.where(e >= 0, e, np.inf), np.where(e >= 0, np.inf, -e)
            run = np.minimum.accumulate  # each side's running minimum of |e|
            for i in np.nonzero((ep < run(np.r_[scan.best_pos, ep[:-1]])) |
                                (en < run(np.r_[scan.best_neg, en[:-1]])))[0]:
                q = done + 1 + int(i)
                if not scan.offer(q, int(p[i]), float(e[i])):
                    continue
                stall_q = stalled_at(q)
                if abs(float(e[i])) < rational_tol:
                    raise PeriodicOrbitDetected(q, int(p[i]), float(e[i]))
                if stop(scan):
                    return scan.end(q * c, (y0 + q * c) % 1.0)
            done += m
        return scan.end(done * c, (y0 + done * c) % 1.0)
    modes = f._scalar_modes
    sine_only = _sine_only(f)
    k2p1, _, cb1 = modes[0]
    cos, sin, floor = math.cos, math.sin, math.floor
    y, w = y0, 0
    thr_pos = thr_neg = math.inf
    lo1 = lo2 = math.inf  # the quiet windows [lo1, hi1] and [lo2, hi2]:
    hi1 = hi2 = -math.inf  # empty while a side has no return
    q = 0
    while q < stall_q:
        for q in range(q + 1, stall_q + 1):
            if sine_only:
                y += c + cb1 * sin(k2p1 * y)
            else:
                s = c
                for k2p, ca, cb in modes:
                    t = k2p * y
                    s += ca * cos(t) + cb * sin(t)
                y += s
            if y >= 1.0:
                if y < 2.0:  # floor(y) is 1
                    y -= 1.0
                    w += 1
                else:
                    k = floor(y)
                    y -= k
                    w += k
            elif not y >= 0.0:  # below 0, or NaN; in [0, 1) nothing moves
                k = floor(y)
                y -= k
                w += k
            if lo2 <= y <= hi2 or lo1 <= y <= hi1:
                continue  # e cannot beat its side's threshold
            d = y - y0
            e = d
            if e >= 0.5:
                e -= 1.0
            elif e < -0.5:
                e += 1.0
            if e >= 0.0:
                if e >= thr_pos:
                    continue
            elif -e >= thr_neg:
                continue
            p = w + (d >= 0.5) - (d < -0.5)
            scan.offer(q, p, e)  # records: e beat its side's threshold
            thr_pos = scan.best_pos * _IMPROVE
            thr_neg = scan.best_neg * _IMPROVE
            lo1 = y0 - 1.0 + thr_pos + _QUIET_GUARD
            hi1 = y0 - thr_neg - _QUIET_GUARD
            lo2 = y0 + thr_pos + _QUIET_GUARD
            hi2 = y0 + 1.0 - thr_neg - _QUIET_GUARD
            stall_q = stalled_at(q)
            if abs(e) < rational_tol:
                raise PeriodicOrbitDetected(q, p, e)
            if stop(scan):
                return scan.end(w + (y - y0), y)
            break  # the loop limit moved with the stall guard
    return scan.end(w + (y - y0), y)


def _walk(f: AnalyticCircleMap, x0: float, n: int) -> _ReturnScan:
    """The return scan's orbit of x0 walked n steps, read for where it ends
    (.disp, .y); it stops at no return and tests for no periodic orbit."""
    return _scan_returns(f, x0, n, lambda s: False, 0.0)


def closest_returns(f: AnalyticCircleMap, x0: float = 0.0,
                    n_max: int = 100000) -> list[ClosestReturn]:
    """Times q <= n_max at which the orbit of the base point comes closer to
    it than ever before on the corresponding side.  Raises
    PeriodicOrbitDetected on a return within RATIONAL_TOL."""
    scan = _scan_returns(f, x0, n_max, lambda s: False, RATIONAL_TOL)
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


def _estimate_from(lower: tuple, upper: tuple, overall: list,
                   last_q: int) -> RotationEstimate:
    """The mediant estimate of the closed bracket p/q <= rho <= p'/q' of the
    best returns lower = (q, p) and upper = (q', p'), with the quotients of
    the overall-return chain and n = last_q, the last recorded return.  The
    bracket is closed: a map with a period-q orbit (on a tongue) has
    rho = p/q, so a return forces only rho >= p/q, or rho <= p'/q'."""
    (qa, pa), (qb, pb) = lower, upper
    lo, hi = pa / qa, pb / qb
    quots = quotients_from_returns(overall)
    return RotationEstimate(value=((pa + pb) / (qa + qb)) % 1.0,
                            method="closest_return", n=last_q,
                            error_bound=hi - lo,
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
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    # a rotation's returns do not depend on the base point: no burn-in
    base = _walk(f, x0, burn_in).y if f.degree else x0
    scan = _scan_returns(f, base, n_max,
                         lambda s: s.overall_count >= depth + 2, RATIONAL_TOL)
    est = scan.estimate()
    if est is None:
        return rotation_number_birkhoff(f, x0, n_max)
    return est


def closest_return_batch(maps, x0s, depth: int = 12, n_max: int = 100000,
                         burn_in: int = 0) -> list:
    """For each map, what rotation_number_closest_return(f, x0, depth, n_max,
    burn_in) gives: its RotationEstimate, or the PeriodicOrbitDetected it
    raises, returned here in its place.

    The `_sine_only` maps walk together, one array entry per map, each
    stepped by the scalar scan's sine-only step c + cb sin(2 pi y): the base
    points are reduced to [0, 1) once, and the burn-in and the return scan
    both step that reduced orbit, as the scalar walk does (it floors every
    step, where a floor(y) of 0 subtracts exactly), so a result does not
    depend on the other maps in the batch.  Every other map takes the
    scalar scan, one by one.

    Each map's return state lives in arrays indexed by map, as
    `_ReturnScan.offer` would keep it: the side thresholds (best |e| times
    _IMPROVE), the (q, p) of each side's best return, the q of the last
    recorded return, the count of overall returns and their chain (q, p, e),
    depth + 2 rows, which a map cannot overflow because it leaves the walk
    at depth + 2 overall returns.  A step updates the maps whose return beats
    a threshold with masked array operations; Python sees only a locked map
    (|e| < RATIONAL_TOL) and the maps that leave.  The estimates are built
    once, at the end, by `_estimate_from`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if len(x0s) != len(maps):
        raise ValueError("x0s must hold one base point per map")
    out: list = [None] * len(maps)
    live = []
    for i, f in enumerate(maps):
        if _sine_only(f):
            live.append(i)
            continue
        try:
            out[i] = rotation_number_closest_return(f, x0s[i], depth, n_max,
                                                    burn_in)
        except PeriodicOrbitDetected as po:
            out[i] = po
    if not live:
        return out
    ids = np.array(live)
    c = np.array([maps[i].mean_shift for i in live])
    cb = np.array([maps[i]._scalar_modes[0][2] for i in live])
    y = np.array([float(x0s[i]) for i in live])
    y -= np.floor(y)
    for _ in range(burn_in):
        y += c + cb * np.sin(TWO_PI * y)
        y -= np.floor(y)
    y0 = y - np.floor(y)  # 1.0 from -1e-17: reduce again, as the scalar scan
    y, w = y0.copy(), np.zeros_like(y0)
    thr_pos = np.full_like(y0, math.inf)
    thr_neg = np.full_like(y0, math.inf)
    # the return state, indexed by map
    side_q = np.zeros((2, len(maps)), np.int64)  # rows: lower, upper
    side_p = np.zeros((2, len(maps)))
    last_q = np.zeros(len(maps), np.int64)
    count = np.zeros(len(maps), np.int64)
    stop_at = depth + 2
    chain_q, chain_p, chain_e = (np.zeros((stop_at, len(maps)))
                                 for _ in range(3))
    for q in range(1, n_max + 1):
        y += c + cb * np.sin(TWO_PI * y)
        k = np.floor(y)
        y -= k
        w += k
        d = y - y0
        up, down = d >= 0.5, d < -0.5
        e = np.where(up, d - 1.0, np.where(down, d + 1.0, d))
        hit = np.flatnonzero(np.where(e >= 0.0, e < thr_pos, -e < thr_neg))
        if not hit.size:
            continue
        i, eh = ids[hit], e[hit]
        p = w[hit] + up[hit] - down[hit]
        a = np.abs(eh)
        overall = a < np.minimum(thr_pos[hit], thr_neg[hit])
        neg = eh < 0.0
        thr_pos[hit[~neg]] = a[~neg] * _IMPROVE
        thr_neg[hit[neg]] = a[neg] * _IMPROVE
        side = neg.astype(np.intp)
        side_q[side, i] = q
        side_p[side, i] = p
        last_q[i] = q
        io, n_o = i[overall], count[i[overall]]
        chain_q[n_o, io] = q
        chain_p[n_o, io] = p[overall]
        chain_e[n_o, io] = eh[overall]
        count[io] = n_o + 1
        locked = a < RATIONAL_TOL
        done = locked | (count[i] >= stop_at)
        if not done.any():
            continue
        for j in np.flatnonzero(locked).tolist():
            out[int(i[j])] = PeriodicOrbitDetected(q, int(p[j]), float(eh[j]))
        keep = np.ones(ids.size, bool)
        keep[hit[done]] = False
        ids, c, cb = ids[keep], c[keep], cb[keep]
        y, y0, w = y[keep], y0[keep], w[keep]
        thr_pos, thr_neg = thr_pos[keep], thr_neg[keep]
        if not ids.size:
            break
    sq, sp, lq, n_ov = (side_q.T.tolist(), side_p.T.tolist(),
                        last_q.tolist(), count.tolist())
    cq, cp, ce = chain_q.T.tolist(), chain_p.T.tolist(), chain_e.T.tolist()
    for i in live:
        if out[i] is not None:
            continue
        (ql, qu), (pl, pu) = sq[i], sp[i]
        if not (ql and qu):
            out[i] = rotation_number_birkhoff(maps[i], x0s[i], n_max)
            continue
        m = n_ov[i]
        chain = [ClosestReturn(int(r), int(pr), er) for r, pr, er in
                 zip(cq[i][:m], cp[i][:m], ce[i][:m])]
        out[i] = _estimate_from((ql, int(pl)), (qu, int(pu)), chain, lq[i])
    return out


def rho_interval(f: AnalyticCircleMap, eps: float) -> RotationEstimate:
    """Closest-return estimate of the orbit from x0 = 0, refined until its
    certified bracket is narrower than eps (or the orbit cap / the _STALL
    guard ends the scan).  The bracket is a property of f: the sign of
    f^q - id - p does not depend on the base point.  A scan with no usable
    return falls back to a Birkhoff average of at most _N_CAP steps, whose
    error bound can be wider than eps.
    PeriodicOrbitDetected propagates."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    scan = _scan_returns(f, 0.0, _N_CAP, lambda s: s.width() <= eps,
                         RATIONAL_TOL, _STALL)
    est = scan.estimate()
    if est is None:
        return rotation_number_birkhoff(f, 0.0, max(1024, min(_N_CAP, int(2.0 / eps))))
    return est


def _probe(f: AnalyticCircleMap, alpha: float,
           eps: float) -> tuple[float, Optional[RotationEstimate]]:
    """(deviation estimate, certified estimate or None) for rho(f) vs alpha.

    The deviation is the uncertified sharpened value (p_d + err_d)/q_d of
    the deepest return minus alpha.  For a conjugated rotation the return
    error is Dh(y0) times the exact displacement error, so this lands within
    O(|Dh - 1|) of the truth relative to the certified bracket width -- good
    enough to steer a root find even where certified returns have stalled.

    The estimate comes when the scan ends on a bracket of width <= eps
    holding alpha: the first such return, where rho_interval(f, eps), under
    the same stall guard, stops too.
    """
    def stop(s: _ReturnScan) -> bool:
        if s.lower is not None and s.lower.p / s.lower.q > alpha:
            return True
        if s.upper is not None and s.upper.p / s.upper.q < alpha:
            return True
        return s.width() <= eps

    scan = _scan_returns(f, 0.0, _N_CAP, stop, RATIONAL_TOL, _STALL)
    r = scan.returns[-1]
    dev = (r.p + r.err) / r.q - alpha
    br = scan.bracket()
    if scan.width() <= eps and br[0] <= alpha <= br[1]:
        return dev, scan.estimate()
    return dev, None


def _farey_width(alpha: float, n: int) -> float:
    """Width, rounded as `_ReturnScan.width` rounds it, of the narrowest
    p/q < alpha < p'/q' with q, q' <= n: the last convergent of the float
    alpha and its largest semiconvergent within n (0 if alpha is a p/q)."""
    x = Fraction(alpha)
    p0, q0, p1, q1 = 0, 1, 1, 0  # the convergents k - 2 and k - 1
    while True:
        a = math.floor(x)
        if a * q1 + q0 > n:
            j = (n - q0) // q1
            lo, hi = sorted((p1 / q1, (j * p1 + p0) / (j * q1 + q0)))
            return hi - lo
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if x == a:
            return 0.0
        x = 1 / (x - a)


def tune_parameter(family, target: ContinuedFraction, tol: float = 1e-10
                   ) -> tuple[float, RotationEstimate]:
    """Find the family parameter whose rotation number certifies within tol
    of the target value, each probe walking the orbit from x0 = 0.

    Continuity and monotonicity of the rotation number in the additive
    parameter justify a safeguarded secant iteration on the sharpened
    closest-return value.  Each probe scans only until the returns place the
    target on one side or bracket it within tol/2; the first probe whose
    two-sided bracket holds the target is the certificate, and its estimate
    (the one rho_interval(map, tol/2) would return) is returned as it is.
    A target whose Farey neighbours within the orbit cap lie more than tol/2
    apart can have no such bracket: TargetUnreachable before any probe.

    `family` needs only `map_at(a)`: x + a + v(x), v fixed; the search
    keeps a within map_at(target).displacement_bound() + 1e-3 of target.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(target.tail, FiniteTail):
        raise ValueError("target must be an irrational continued fraction")
    tlo, thi = target.value_interval()
    if thi - tlo > tol / 10.0:
        raise ValueError("target value bracket is wider than tol/10")
    alpha = 0.5 * (tlo + thi)
    width = _farey_width(alpha, _N_CAP)
    if width > tol / 2:
        raise TargetUnreachable(f"no bracket of returns within {_N_CAP} steps "
                                f"is narrower than {width:.3g}, above tol/2")
    pad = family.map_at(alpha).displacement_bound() + 1e-3
    lo, hi = alpha - pad, alpha + pad
    a = alpha
    prev: Optional[tuple] = None
    slope = 1.0
    for _ in range(80):
        try:
            dev, est = _probe(family.map_at(a), alpha, tol / 2)
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


def _certified_rho(f: AnalyticCircleMap) -> float:
    """rho(f) from a bracket narrower than 1e-12 for a rotation, which
    certifies cheaply, and than 1e-10 for any other map."""
    return rho_interval(f, 1e-12 if f.degree == 0 else 1e-10).value


def eq_rot_check(f: AnalyticCircleMap, n: int) -> float:
    """Residual between the orbit-averaged displacement from x0 = 0 (the
    unique-ergodicity estimate of the invariant-measure displacement
    integral) and the certified rotation number."""
    avg = rotation_number_birkhoff(f, 0.0, n).value
    d = abs(avg - _certified_rho(f))
    return min(d, 1.0 - d)
