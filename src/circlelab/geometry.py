"""Partition geometry diagnostics at closest-return times.

Level n of the dynamical partition tiles the circle with the q_{n+1} images
of the interval from x to f^{q_n}(x) together with the q_n images of the next
one.  Everything here is measured on that structure: interval-length extrema
(certified by grid plus a Lipschitz margin), distortion inequalities for
ln Df^{q_n}, derivative power sums over disjoint intervals, the level-to-level
length recursion, a bounded-variation cancellation check at return times, and
the regularity-bootstrap fixed-point schedule.

Inequality constants reported here are the smallest empirical ones on the
grid, with the witness point attached; they are per-map, per-level
observations, never universal claims.

All of these readings live on one orbit of one grid, and a report walks it
once: `circlemap._Orbit` steps the base grid to q_{n_max+1}, and as the
walk passes each mark it keeps only what the levels read -- beta_n and
ln Df^{q_n} at j = q_n, |D ln Df^j| at the growth samples, and the power
sums as prefixes of one running sum.  One orbit of 0 serves every level's
tiling.  The report reads that one walk directly; `build_partition`,
`denjoy_checks` and `derivative_growth_check` each walk their own and
return the report's results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .circlemap import (AnalyticCircleMap, _Orbit, derivative,
                        log_derivative_variation, orbit_lift)
from .contfrac import cf_expand, convergents
from .errors import EmptyWindow, PeriodicOrbitDetected, TilingFailure
from .kam import _fmt
from .rotation import rho_interval

TILING_TOL = 1e-9


def pq_chain(rho: float, depth: int) -> list[tuple[int, int]]:
    """(q_k, p_k) for k = 0..depth: the convergent chain of rho, seeded with
    (q_0, p_0) = (1, 0).  The return times of any map with this rotation
    number are exactly these denominators, so the partition structure is
    derived arithmetically rather than re-detected from the orbit (which can
    skip levels under strong distortion)."""
    r = rho % 1.0
    cf = cf_expand(r, depth)
    return [(1, 0)] + [(c.q, c.p) for c in convergents(cf, depth)]


@dataclass(frozen=True)
class PartitionLevel:
    n: int
    q: int
    p: int
    q_next: int
    p_next: int
    sign: float                    # sign of f^{q_n} - id - p_n
    qn_distance: float             # |q_n rho - p_n|
    beta: np.ndarray = field(repr=False)
    grid: np.ndarray = field(repr=False)
    log_df: np.ndarray = field(repr=False)  # ln Df^{q_n} on the grid
    m: float                       # min of beta (certified when flagged)
    M: float                       # max of beta
    tiling_total: float
    max_overlap: float
    certified: bool = True         # Lipschitz margin small enough to certify

    @property
    def ratio(self) -> float:
        return self.M / self.m


def _growth_samples(q1: int) -> list[int]:
    return sorted({1, max(1, q1 // 3), max(1, (2 * q1) // 3), q1})


def _growth_record(n: int, order: int, level: PartitionLevel, samples: dict,
                   s1: np.ndarray, s2: np.ndarray) -> "GrowthCheck":
    """The growth check of level n from |D^order ln Df^j| at its sampled j
    and the power sums through q_{n+1} - 1."""
    j_samples = _growth_samples(level.q_next)
    scale = (level.beta / math.sqrt(level.M)) ** order
    c_best, witness = 0.0, (0, 0.0)
    for j in j_samples:
        vals = samples[j] * scale
        i = int(np.argmax(vals))
        if vals[i] > c_best:
            c_best = float(vals[i])
            witness = (j, float(level.grid[i]))
    c_sums = {
        1: float(np.max(s1 * level.beta)),
        2: float(np.max(s2 * level.beta ** 2 / level.M)),
    }
    return GrowthCheck(n=n, order=order, c_estimate=c_best, witness=witness,
                       c_power_sums=c_sums, j_samples=tuple(j_samples))


def _tiling(orb: np.ndarray, q: int, p: int, q1: int, p1: int,
            sign: float) -> tuple[float, float]:
    """(total length, max overlap) of the level's tiling by the orbit of 0:
    q_{n+1} copies of the level-n interval and q_n copies of the
    level-(n+1) interval.  Reads orb[:q + q1] only."""
    len_n = sign * (orb[q:q + q1] - orb[:q1] - p)
    sign1 = -sign
    len_n1 = sign1 * (orb[q1:q1 + q] - orb[:q] - p1)
    if sign > 0:
        starts_n = orb[:q1] % 1.0
    else:
        starts_n = (orb[q:q + q1] - p) % 1.0
    if sign1 > 0:
        starts_n1 = orb[:q] % 1.0
    else:
        starts_n1 = (orb[q1:q1 + q] - p1) % 1.0
    lengths = np.concatenate([len_n, len_n1])
    starts = np.concatenate([starts_n, starts_n1])
    total = float(np.sum(lengths))
    order = np.argsort(starts)
    s_sorted = starts[order]
    l_sorted = lengths[order]
    gaps = np.diff(np.concatenate([s_sorted, [s_sorted[0] + 1.0]]))
    overlaps = l_sorted - gaps
    max_overlap = float(np.max(overlaps))
    if max_overlap > TILING_TOL:
        raise TilingFailure(max_overlap)
    return total, max_overlap


class _LevelWalk:
    """Levels of the dynamical partition read off one walk of the base grid.

    The constructor walks the grid once, through every mark in order: at
    j = q_n it builds level n into `levels` (raising PeriodicOrbitDetected or
    TilingFailure before it steps past q_n); with order >= 1 it also keeps
    |D^order ln Df^j| at every growth sample j of the levels, and at
    j = q_{n+1} it puts level n's growth record into `growth` and drops the
    samples no later record reads.  A level that does not certify on the
    base grid refines and walks its own grid, its growth record included, as
    soon as it is built.  The tiling of every level reads one orbit of 0."""

    def __init__(self, f: AnalyticCircleMap, chain: Sequence[tuple],
                 rho: float, var: float, grid: int, levels: Sequence[int],
                 order: int):
        self.f, self.chain, self.rho, self.var = f, chain, rho, var
        self.grid = grid
        self.order = order
        self.walk = _Orbit(f, np.arange(grid) / grid, order)
        top = max(levels)
        self.tiling = orbit_lift(f, 0.0, chain[top][0] + chain[top + 1][0])
        self.levels: dict = {}
        self.growth: dict = {}
        # marks (j, kind, n): at one j, kind 0 builds level n, 1 keeps a
        # growth sample it reads and 2 records its growth, in that order
        reads = {n: _growth_samples(chain[n + 1][0])
                 for n in levels} if order else {}
        marks = [(chain[n][0], 0, n) for n in levels]
        for n, js in reads.items():
            marks += [(j, 1, n) for j in js]
            marks.append((chain[n + 1][0], 2, n))
        samples: dict = {}
        for j, kind, n in sorted(marks):
            self.walk.advance(j)
            if kind == 0:
                self.levels[n] = self._build(n)
            elif kind == 1:
                if j not in samples:
                    samples[j] = np.abs(self.walk.d)
            else:
                if n not in self.growth:
                    self.growth[n] = _growth_record(
                        n, order, self.levels[n], samples, self.walk.s1,
                        self.walk.s2)
                done = reads.pop(n)
                still = set().union(*reads.values())
                for k in set(done) - still:
                    samples.pop(k, None)

    def _build(self, n: int) -> PartitionLevel:
        q, p = self.chain[n]
        q1, p1 = self.chain[n + 1]
        sign = math.copysign(1.0, q * self.rho - p)
        lip = math.exp(self.var) - 1.0
        # refine the grid until the Lipschitz margin certifies the extrema;
        # on wildly distorted maps fall back to uncertified grid extrema
        walk = self.walk
        g = self.grid
        certified = True
        while True:
            beta = sign * (walk.x - walk.x0 - p)
            if float(beta.min()) <= 0.0:
                raise PeriodicOrbitDetected(q, p, float(beta.min()))
            margin = lip / (2.0 * g)
            if margin <= 0.5 * float(beta.min()):
                break
            if g >= 16 * self.grid or g >= 65536:
                certified = False
                margin = 0.0
                break
            g *= 4
            walk = _Orbit(self.f, np.arange(g) / g).advance(q)
        total, max_overlap = _tiling(self.tiling, q, p, q1, p1, sign)
        level = PartitionLevel(
            n=n, q=q, p=p, q_next=q1, p_next=p1, sign=sign,
            qn_distance=abs(q * self.rho - p), beta=beta, grid=walk.x0,
            log_df=walk.ln.copy(), m=float(beta.min()) - margin,
            M=float(beta.max()) + margin, tiling_total=total,
            max_overlap=max_overlap, certified=certified)
        if self.order and walk is not self.walk:
            self.growth[n] = derivative_growth_check(self.f, n, level,
                                                     self.order)
        return level


def build_partition(f: AnalyticCircleMap, n: int,
                    chain: Optional[Sequence[tuple]] = None,
                    rho: Optional[float] = None, grid: int = 4096) -> PartitionLevel:
    """Level-n partition data: return-interval lengths over a grid with
    certified extrema and ln Df^{q_n} on the same grid, plus the tiling
    checks (total length 1 within 1e-9, pairwise-disjoint interiors) on the
    orbit of x0 = 0.  Read off a q_n-step walk of the grid."""
    if rho is None:
        rho = rho_interval(f, 1e-10).value
    if chain is None:
        chain = pq_chain(rho, n + 1)
    if len(chain) < n + 2:
        raise ValueError(f"need the convergent chain through level {n + 1}, "
                         f"have {len(chain) - 1}")
    return _LevelWalk(f, chain, rho, log_derivative_variation(f), grid, [n],
                      0).levels[n]


# ---------------------------------------------------------------------------
# per-level inequality checks


@dataclass(frozen=True)
class DenjoyChecks:
    n: int
    classical_residual: float   # max |ln Df^{q_n}| - Var(ln Df)
    improved_constant: float    # max |ln Df^{q_n}| / sqrt(M_n)
    witness: float
    var: float


def _denjoy_record(n: int, level: PartitionLevel, var: float) -> DenjoyChecks:
    """max |ln Df^{q_n}| over the level's grid, witnessed by the grid point
    of its first argmax."""
    vals = np.abs(level.log_df)
    i = int(np.argmax(vals))
    mx = float(vals[i])
    return DenjoyChecks(n=n, classical_residual=mx - var,
                        improved_constant=mx / math.sqrt(level.M),
                        witness=float(level.grid[i]), var=var)


def denjoy_checks(f: AnalyticCircleMap, n: int,
                  level: PartitionLevel) -> DenjoyChecks:
    """Classical distortion bound (must hold up to round-off) and the
    empirical constant of its partition-refined sharpening, from the level's
    ln Df^{q_n} grid."""
    return _denjoy_record(n, level, log_derivative_variation(f))


@dataclass(frozen=True)
class GrowthCheck:
    n: int
    order: int
    c_estimate: float                  # smallest C for the derivative bound
    witness: tuple                     # (j, x) attaining it
    c_power_sums: dict                 # l -> smallest C for the sum bound
    j_samples: tuple


def derivative_growth_check(f: AnalyticCircleMap, n: int,
                            level: PartitionLevel, order: int = 1
                            ) -> GrowthCheck:
    """Empirical constants for the orbit-derivative growth bound
    |D^r ln Df^j| <= C (sqrt(M_n)/beta_n)^r at j in {1, q/3, 2q/3, q}, and
    for the disjoint-interval power sums sum_{i<q} (Df^i)^l <= C M^(l-1)/beta^l
    at l = 1, 2 (q = q_{n+1}), from one q-step orbit walk over the grid."""
    if not 1 <= order <= 3:
        raise ValueError("order must be 1..3")
    walk = _Orbit(f, level.grid, order)
    samples = {j: np.abs(walk.advance(j).d)
               for j in _growth_samples(level.q_next)}
    return _growth_record(n, order, level, samples, walk.s1, walk.s2)


@dataclass(frozen=True)
class BetaRecursionCheck:
    n: int
    c_estimate: float
    witness: float
    smoothness: int
    ratio_bound_upper_ok: bool
    ratio_bound_lower_ok: bool
    vacuous: bool


def beta_recursion_check(f: AnalyticCircleMap, n: int, level_n: PartitionLevel,
                         level_n1: PartitionLevel, smoothness: int = 3
                         ) -> BetaRecursionCheck:
    """Empirical constant of the level-to-level length recursion
    |beta_{n+1} - (a_{n+1}/a_n) beta_n| <= C [M^{(k-1)/2} beta_n
    + M^{1/2} beta_{n+1}], then the induced extrema-ratio bounds evaluated
    with that constant (vacuous when 1 - C sqrt(M) <= 0)."""
    # refined grids hold grid * 4^j points from 0: compare on the coarser one
    size = min(level_n.grid.size, level_n1.grid.size)
    step_n, step_n1 = level_n.grid.size // size, level_n1.grid.size // size
    beta_n, beta_n1 = level_n.beta[::step_n], level_n1.beta[::step_n1]
    ratio = level_n1.qn_distance / level_n.qn_distance
    resid = np.abs(beta_n1 - ratio * beta_n)
    mk = level_n.M ** ((smoothness - 1) / 2.0)
    ms = math.sqrt(level_n.M)
    bracket = mk * beta_n + ms * beta_n1
    vals = resid / bracket
    i = int(np.argmax(vals))
    c = float(vals[i])
    denom = 1.0 - c * ms
    if denom <= 0.0:
        up_ok, lo_ok, vacuous = True, True, True
    else:
        bound_up = level_n.M * (ratio + c * mk) / denom
        bound_lo = level_n.m * (ratio - c * mk) / (1.0 + c * ms)
        up_ok = level_n1.M <= bound_up * (1.0 + 1e-12)
        lo_ok = level_n1.m >= bound_lo - 1e-12
        vacuous = False
    return BetaRecursionCheck(n=n, c_estimate=c,
                              witness=float(level_n.grid[i * step_n]),
                              smoothness=smoothness,
                              ratio_bound_upper_ok=up_ok,
                              ratio_bound_lower_ok=lo_ok, vacuous=vacuous)


# ---------------------------------------------------------------------------
# bounded-variation cancellation at return times


def koksma_check(phi: Union[AnalyticCircleMap, Callable], alpha: float,
                 n: int, pairs: Sequence[tuple], var: Optional[float] = None
                 ) -> float:
    """Max over sampled pairs (x, y) of
    |sum_{j<q_n} phi(x + j alpha) - sum_{j<q_n} phi(y + j alpha)| - Var(phi),
    where q_n is the n-th convergent denominator of alpha.  Nonpositive up to
    round-off for any phi of bounded variation."""
    cf = cf_expand(alpha, n + 1)
    q = convergents(cf, n)[-1].q
    if isinstance(phi, AnalyticCircleMap):
        fn = lambda t: np.log(derivative(phi, t, 1))  # noqa: E731
        var = log_derivative_variation(phi) if var is None else var
    else:
        fn = phi
        if var is None:
            raise ValueError("a callable phi needs an explicit variation")
    j = np.arange(q)
    worst = -math.inf
    for x, y in pairs:
        sx = float(np.sum(fn((x + j * alpha) % 1.0)))
        sy = float(np.sum(fn((y + j * alpha) % 1.0)))
        worst = max(worst, abs(sx - sy) - var)
    return worst


# ---------------------------------------------------------------------------
# regularity bootstrap


def bootstrap_schedule(r: float, sigma: float, gamma0: float,
                       steps: int) -> list[float]:
    """Midpoint iteration gamma_{k+1} = (gamma_k + g(gamma_k))/2 with
    g(gamma) = ((r - 2 - sigma) + gamma (1 + sigma)) / (2 + sigma);
    strictly increasing toward the fixed point r - 2 - sigma."""
    fix = r - 2.0 - sigma
    if fix <= 0.0:
        raise EmptyWindow(f"no bootstrap window: r - 2 - sigma = {fix:g}")
    if not 0.0 <= gamma0 <= fix:
        raise ValueError("gamma0 must lie in [0, r - 2 - sigma]")
    out = [gamma0]
    g = gamma0
    for _ in range(steps):
        g_next = ((r - 2.0 - sigma) + g * (1.0 + sigma)) / (2.0 + sigma)
        g = 0.5 * (g + g_next)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# the full report


@dataclass
class GeometryReport:
    levels: list = field(default_factory=list)
    denjoy: list = field(default_factory=list)
    growth: list = field(default_factory=list)
    beta_rec: list = field(default_factory=list)
    rho: float = math.nan
    ratios: list = field(default_factory=list)
    trend: str = ""
    smoothness: int = 3

    CSV_HEADER = ("n,q_n,q_n1,alpha_n,M_n,m_n,ratio,denjoy_residual,"
                  "improved_denjoy_C,estimate_C_r1,beta_recursion_C")

    def to_csv(self) -> str:
        rows = [self.CSV_HEADER]
        beta_by_n = {b.n: b for b in self.beta_rec}
        for lev, dj, gr in zip(self.levels, self.denjoy, self.growth):
            br = beta_by_n.get(lev.n)
            cells = (lev.n, lev.q, lev.q_next, lev.qn_distance, lev.M, lev.m,
                     lev.ratio, dj.classical_residual, dj.improved_constant,
                     gr.c_estimate)
            rows.append(",".join([*map(_fmt, cells),
                                  _fmt(br.c_estimate) if br else ""]))
        return "\n".join(rows) + "\n"

    def to_json_summary(self) -> dict:
        return {
            "rho": self.rho,
            "levels": [lev.n for lev in self.levels],
            "ratios": self.ratios,
            "trend": self.trend,
            "sandwich_ok": all(
                lev.m - TILING_TOL <= lev.qn_distance <= lev.M + TILING_TOL
                for lev in self.levels),
            "tiling_ok": all(abs(lev.tiling_total - 1.0) <= TILING_TOL
                             for lev in self.levels),
            "classical_denjoy_ok": all(d.classical_residual <= 1e-8
                                       for d in self.denjoy),
            "beta_recursion_bounds_ok": all(
                b.ratio_bound_upper_ok and b.ratio_bound_lower_ok
                for b in self.beta_rec),
            "smoothness": self.smoothness,
            "uncertified_levels": [lev.n for lev in self.levels
                                   if not lev.certified],
        }


def ratio_trend(ratios: Sequence[float]) -> str:
    """bounded_trend: the last three ratios within 1.5x of their median;
    growing_trend: >= 1.5x growth per level across the last three."""
    if len(ratios) < 3:
        return "inconclusive"
    last = list(ratios[-3:])
    med = sorted(last)[1]
    if all(med / 1.5 <= r <= 1.5 * med for r in last):
        return "bounded_trend"
    if last[1] >= 1.5 * last[0] and last[2] >= 1.5 * last[1]:
        return "growing_trend"
    return "inconclusive"


def c1_criterion(f: AnalyticCircleMap, n_max: int) -> tuple[list[float], str]:
    """Extrema ratios M_n/m_n per level and their trend verdict; a bounded
    trend is the observable face of smooth linearizability."""
    report = geometry_report(f, n_max, checks=False)
    return report.ratios, report.trend


def geometry_report(f: AnalyticCircleMap, n_max: int, smoothness: int = 3,
                    grid: int = 4096, *, checks: bool = True) -> GeometryReport:
    """Build levels 1..n_max and run every per-level check; rho and the
    tiling come from the orbit of x0 = 0.

    The grid is walked once, to q_{n_max+1} (to q_{n_max} with
    checks=False, at order 0 and so outside the blow-up guard), and the
    report reads that walk directly: every level, its Denjoy grid and its
    growth record come off the one orbit as it passes their marks, and one
    orbit of 0 serves every tiling.  The results are those of
    `build_partition`, `denjoy_checks` and `derivative_growth_check`
    (order 1), each of which walks its own orbit when called alone."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rho = rho_interval(f, 1e-10).value
    chain = pq_chain(rho, n_max + 1)
    var = log_derivative_variation(f)
    ns = range(1, n_max + 1)
    walk = _LevelWalk(f, chain, rho, var, grid, ns, 1 if checks else 0)
    levels = [walk.levels[n] for n in ns]
    ratios = [lev.ratio for lev in levels]
    rep = GeometryReport(levels=levels, rho=rho, ratios=ratios,
                         trend=ratio_trend(ratios), smoothness=smoothness)
    if checks:
        rep.denjoy = [_denjoy_record(lev.n, lev, var) for lev in levels]
        rep.growth = [walk.growth[n] for n in ns]
        rep.beta_rec = [beta_recursion_check(f, lev_n.n, lev_n, lev_n1,
                                             smoothness)
                        for lev_n, lev_n1 in zip(levels, levels[1:])]
    return rep
