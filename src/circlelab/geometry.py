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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .circlemap import (AnalyticCircleMap, _eval_modes, derivative, iterate,
                        log_derivative_variation, orbit_lift,
                        orbit_log_derivative)
from .contfrac import cf_expand, convergents
from .errors import EmptyWindow, PeriodicOrbitDetected, TilingFailure
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
    m: float                       # min of beta (certified when flagged)
    M: float                       # max of beta
    tiling_total: float
    max_overlap: float
    certified: bool = True         # Lipschitz margin small enough to certify

    @property
    def ratio(self) -> float:
        return self.M / self.m


def build_partition(f: AnalyticCircleMap, n: int,
                    chain: Optional[Sequence[tuple]] = None,
                    rho: Optional[float] = None, grid: int = 4096,
                    x0: float = 0.0, var: Optional[float] = None
                    ) -> PartitionLevel:
    """Level-n partition data: return-interval lengths over a grid with
    certified extrema, plus the tiling checks (total length 1 within 1e-9,
    pairwise-disjoint interiors)."""
    if rho is None:
        rho = rho_interval(f, 1e-10, x0=x0, stall_factor=64).value
    if chain is None:
        chain = pq_chain(rho, n + 1)
    if len(chain) < n + 2:
        raise ValueError(f"need the convergent chain through level {n + 1}, "
                         f"have {len(chain) - 1}")
    q, p = chain[n]
    q1, p1 = chain[n + 1]
    sign = math.copysign(1.0, q * rho - p)
    var = log_derivative_variation(f) if var is None else var
    lip = math.exp(var) - 1.0
    # refine the grid until the Lipschitz margin certifies the extrema; on
    # wildly distorted maps fall back to uncertified grid extrema
    g = grid
    certified = True
    while True:
        gx = np.arange(g) / g
        beta = sign * (iterate(f, gx, q) - gx - p)
        if float(beta.min()) <= 0.0:
            raise PeriodicOrbitDetected(q, p, float(beta.min()))
        margin = lip / (2.0 * g)
        if margin <= 0.5 * float(beta.min()):
            break
        if g >= 16 * grid or g >= 65536:
            certified = False
            margin = 0.0
            break
        g *= 4
    m = float(beta.min()) - margin
    M = float(beta.max()) + margin
    # tiling by the orbit of x0: q_{n+1} copies of the level-n interval and
    # q_n copies of the level-(n+1) interval
    orb = orbit_lift(f, x0, q + q1)
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
    return PartitionLevel(n=n, q=q, p=p, q_next=q1, p_next=p1, sign=sign,
                          qn_distance=abs(q * rho - p), beta=beta, grid=gx,
                          m=m, M=M, tiling_total=total,
                          max_overlap=max_overlap, certified=certified)


# ---------------------------------------------------------------------------
# per-level inequality checks


def _refined_abs_max(fn: Callable[[np.ndarray], np.ndarray],
                     grid_vals: np.ndarray, grid_x: np.ndarray,
                     spread: float) -> tuple[float, float]:
    """Grid max of |fn| sharpened by local golden-section searches around
    the three top grid candidates, run side by side: each iteration
    evaluates fn once on both probe points of every candidate.  A refined
    value replaces the running max only when strictly larger, candidates
    taken from the smallest grid value up.  Returns (max value, witness x)."""
    idx = np.argsort(np.abs(grid_vals))[-3:]
    best = float(np.max(np.abs(grid_vals)))
    wit = float(grid_x[np.argmax(np.abs(grid_vals))])
    lo, hi = grid_x[idx] - spread, grid_x[idx] + spread
    for _ in range(12):
        m1 = lo + 0.382 * (hi - lo)
        m2 = lo + 0.618 * (hi - lo)
        v1, v2 = np.split(np.abs(fn(np.concatenate([m1, m2]))), 2)
        left = v1 < v2
        lo = np.where(left, m1, lo)
        hi = np.where(left, hi, m2)
    xs = 0.5 * (lo + hi)
    for x, v in zip(xs, np.abs(fn(xs))):
        if v > best:
            best, wit = float(v), float(x)
    return best, wit


@dataclass(frozen=True)
class DenjoyChecks:
    n: int
    classical_residual: float   # max |ln Df^{q_n}| - Var(ln Df)
    improved_constant: float    # max |ln Df^{q_n}| / sqrt(M_n)
    witness: float
    var: float


def denjoy_checks(f: AnalyticCircleMap, n: int, level: PartitionLevel,
                  var: Optional[float] = None) -> DenjoyChecks:
    """Classical distortion bound (must hold up to round-off) and the
    empirical constant of its partition-refined sharpening."""
    var = log_derivative_variation(f) if var is None else var
    g = orbit_log_derivative(f, level.grid, level.q, 0)
    mx, wit = _refined_abs_max(
        lambda t: orbit_log_derivative(f, t, level.q, 0),
        g, level.grid, 1.0 / level.grid.size)
    return DenjoyChecks(n=n, classical_residual=mx - var,
                        improved_constant=mx / math.sqrt(level.M),
                        witness=wit, var=var)


@dataclass(frozen=True)
class GrowthCheck:
    n: int
    order: int
    c_estimate: float                  # smallest C for the derivative bound
    witness: tuple                     # (j, x) attaining it
    c_power_sums: dict                 # l -> smallest C for the sum bound
    j_samples: tuple


def derivative_growth_check(f: AnalyticCircleMap, n: int,
                            level: PartitionLevel, order: int = 1,
                            j_samples: Optional[Sequence[int]] = None
                            ) -> GrowthCheck:
    """Empirical constants for the orbit-derivative growth bound
    |D^r ln Df^j| <= C (sqrt(M_n)/beta_n)^r over sampled j <= q_{n+1}, and
    for the disjoint-interval power sums sum_i (Df^i)^l <= C M^(l-1)/beta^l
    at l = 1, 2."""
    if not 1 <= order <= 3:
        raise ValueError("order must be 1..3")
    q1 = level.q_next
    if j_samples is None:
        j_samples = sorted({1, max(1, q1 // 3), max(1, (2 * q1) // 3), q1})
    if any(j < 1 or j > q1 for j in j_samples):
        raise ValueError("j samples must sit in [1, q_{n+1}]")
    scale = (level.beta / math.sqrt(level.M)) ** order
    c_best, witness = 0.0, (0, 0.0)
    for j in j_samples:
        d = orbit_log_derivative(f, level.grid, j, order)
        vals = np.abs(d) * scale
        i = int(np.argmax(vals))
        if vals[i] > c_best:
            c_best = float(vals[i])
            witness = (j, float(level.grid[i]))
    # power sums along the orbit, all grid points at once
    a = np.ones_like(level.grid)
    s1 = np.ones_like(level.grid)
    s2 = np.ones_like(level.grid)
    x = level.grid
    for _ in range(q1 - 1):
        x, df = _eval_modes(f, x, (0, 1))
        a = a * df
        s1 += a
        s2 += a * a
    c_sums = {
        1: float(np.max(s1 * level.beta)),
        2: float(np.max(s2 * level.beta ** 2 / level.M)),
    }
    return GrowthCheck(n=n, order=order, c_estimate=c_best, witness=witness,
                       c_power_sums=c_sums, j_samples=tuple(j_samples))


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
            rows.append(",".join([
                str(lev.n), str(lev.q), str(lev.q_next),
                format(lev.qn_distance, ".17g"), format(lev.M, ".17g"),
                format(lev.m, ".17g"), format(lev.ratio, ".17g"),
                format(dj.classical_residual, ".17g"),
                format(dj.improved_constant, ".17g"),
                format(gr.c_estimate, ".17g"),
                format(br.c_estimate, ".17g") if br else "",
            ]))
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


def c1_criterion(f: AnalyticCircleMap, n_max: int, grid: int = 4096,
                 x0: float = 0.0) -> tuple[list[float], str]:
    """Extrema ratios M_n/m_n per level and their trend verdict; a bounded
    trend is the observable face of smooth linearizability."""
    report = geometry_report(f, n_max, grid=grid, x0=x0, checks=False)
    return report.ratios, report.trend


def geometry_report(f: AnalyticCircleMap, n_max: int, smoothness: int = 3,
                    grid: int = 4096, x0: float = 0.0,
                    checks: bool = True) -> GeometryReport:
    """Build levels 1..n_max and run every per-level check."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rho_est = rho_interval(f, 1e-10, x0=x0, stall_factor=64)
    rho = rho_est.value
    chain = pq_chain(rho, n_max + 1)
    var = log_derivative_variation(f)
    rep = GeometryReport(rho=rho, smoothness=smoothness)
    for n in range(1, n_max + 1):
        lev = build_partition(f, n, chain=chain, rho=rho, grid=grid,
                              x0=x0, var=var)
        rep.levels.append(lev)
        rep.ratios.append(lev.ratio)
        if checks:
            rep.denjoy.append(denjoy_checks(f, n, lev, var=var))
            rep.growth.append(derivative_growth_check(f, n, lev, order=1))
    if checks:
        for lev_n, lev_n1 in zip(rep.levels, rep.levels[1:]):
            rep.beta_rec.append(beta_recursion_check(
                f, lev_n.n, lev_n, lev_n1, smoothness))
    rep.trend = ratio_trend(rep.ratios)
    return rep
