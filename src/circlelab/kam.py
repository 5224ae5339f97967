"""Local linearization machinery.

The Newton scheme solves the conjugacy equation f_a(K(t)) = K(t + alpha)
directly, in the parameterization form of de la Llave, Gonzalez, Jorba and
Villanueva (Nonlinearity 2005): K = id + u is sampled on an N-point grid and
the family parameter of f_a = f + (a - c) is the counterterm.  One step takes
the error E = f_a o K - K(. + alpha), solves the homological equation
W - W(. + alpha) = -(E + da) / K'(. + alpha) mode by mode (dividing by
e^(2 pi i k alpha) - 1, the small divisors), and sets K += K' W, a += da,
keeping the modes below N/4.  No inverse and no composition is taken along
the way; the grid doubles while K's modes in [N/8, N/4) are not negligible.
The trace records per step the grid, sup |E|, sup |dK|, |da|, the energy cut
off above N/4 and the smallest divisor, so a failed run explains itself.

An independent estimator is the orbit-averaged conjugacy h_n = (id + f + ...
+ f^{n-1})/n.  Both are checked forward, by the grid sup of |h(f(x)) - h(x)
- alpha|: neither defect inverts; only building h = K^{-1} does, once.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .circlemap import (AffineShiftFamily, AnalyticCircleMap, evaluate,
                        inverse, orbit_lift, rotation)
from .contfrac import ContinuedFraction
from .errors import (CircleLabError, ConjugacyNotDiffeo, NotDiffeomorphism,
                     NotMonotone, Resonance, SmallDivisor)
from .rotation import _certified_rho, rho_interval

_RHO_TOL = 1e-5  # largest |rho(f) - alpha| kam_iterate accepts
_GRID_MAX = 8192  # the grid doubles up to this many points
_TAIL = 1e-14  # largest mode of K in [N/8, N/4) that keeps the grid at N


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class KamConfig:
    """Parameters of the iteration.

    The grid starts at N = 4 max(8, 2 deg f) points and doubles up to 8192;
    a run ends `linearized` once sup |E| over the grid and the counterterm
    a - c are both below threshold.
    """

    alpha_cf: ContinuedFraction
    max_steps: int = 14
    divisor_floor: float = 1e-8
    threshold: float = 1e-11

    def violations(self) -> list[str]:
        """Range checks; empty when the parameters are admissible."""
        out = []
        if self.max_steps < 1:
            out.append("max_steps must be >= 1")
        if self.divisor_floor <= 0:
            out.append("divisor_floor must be positive")
        return out


@dataclass(frozen=True)
class StepRecord:
    step: int
    grid: int            # grid points N
    error: float         # sup |E| over the grid before the step
    delta_k: float       # sup |dK| over the grid
    delta_a: float       # |da|, the counterterm's step
    tail_energy: float   # spectral energy of dK cut off above N/4
    min_divisor: float   # smallest divisor magnitude below N/4


@dataclass
class KamTrace:
    steps: list = field(default_factory=list)
    verdict: str = ""
    note: str = ""
    defect: float = math.nan
    decay_exponent: float = math.nan
    quad_constant: float = math.nan  # max error_{n+1} / error_n^1.5
    grid: int = 0                    # the final grid N
    counterterm: float = math.nan    # a - c, the parameter's total shift

    CSV_HEADER = ",".join(f.name for f in fields(StepRecord))

    def to_csv(self) -> str:
        """One row per step, then a `# ` JSON footer of every other field."""
        lines = [self.CSV_HEADER]
        lines += [",".join(map(_fmt, astuple(s))) for s in self.steps]
        footer = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "steps"}
        lines.append("# " + json.dumps(footer))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    """A CSV cell: an int (a bool as 0 or 1), else a float to 17 digits."""
    return str(int(v)) if isinstance(v, int) else format(float(v), ".17g")


# ---------------------------------------------------------------------------
# the homological solve and one Newton step


def solve_homological(coeffs: np.ndarray, alpha: float, trunc: int,
                      divisor_floor: float = 1e-8) -> np.ndarray:
    """Mode-wise solve of w(x+alpha) - w(x) = -(v(x) - mean v):
    w_hat(k) = -v_hat(k) / (e^(2 pi i k alpha) - 1) for 1 <= k <= trunc
    (the minus is what makes the residual vanish mode by mode).

    Raises Resonance on an exactly vanishing divisor carrying a live mode,
    SmallDivisor when a live mode's divisor is below the floor.
    """
    arr = np.asarray(coeffs, dtype=complex).reshape(-1)
    kmax = min(trunc, arr.size)
    out = np.zeros(kmax, complex)
    for k in range(1, kmax + 1):
        vk = arr[k - 1]
        if vk == 0:
            continue
        div = np.exp(2j * math.pi * k * alpha) - 1.0
        mag = abs(div)
        if mag < 1e-14:  # zero at working precision: rational alpha
            raise Resonance(k)
        if mag < divisor_floor:
            raise SmallDivisor(k, mag)
        out[k - 1] = -vk / div
    return out


@dataclass(frozen=True)
class KamStep:
    K: AnalyticCircleMap
    delta_a: float
    record: StepRecord


def _samples(c: np.ndarray, grid: int) -> np.ndarray:
    """The real trig polynomial with modes c (c[0] its mean) at j / grid."""
    return np.fft.irfft(c, grid) * grid


def kam_step(f: AnalyticCircleMap, alpha: float, trunc: int, grid: int,
             divisor_floor: float = 1e-8,
             K: Optional[AnalyticCircleMap] = None,
             threshold: float = 0.0) -> KamStep:
    """One Newton step for f(K(t)) = K(t + alpha) on the grid t_j = j / grid,
    from K (the identity when None): the counterterm
    da = -mean(E / K'(. + alpha)) / mean(1 / K'(. + alpha)) makes the
    right-hand side of W - W(. + alpha) = -(E + da) / K'(. + alpha) of mean
    zero, its modes below trunc are solved, and K + K' W keeps the modes
    below trunc.  With trunc <= grid / 4 the product K' W is exact on the
    grid.  f's mean shift plays the parameter: the caller adds da to it.
    When sup |E| is already below threshold, K is returned as it is, with
    da = 0 and no correction built."""
    K = rotation(0.0) if K is None else K
    c = np.zeros(grid // 2 + 1, complex)
    c[0], c[1:K.degree + 1] = K.mean_shift, K.coeffs
    ik = 2j * math.pi * np.arange(c.size)
    phase = np.exp(ik * alpha)  # e^(2 pi i k alpha), the divisors' phases
    shifted = c * phase
    t = np.arange(grid) / grid
    err = evaluate(f, t + _samples(c, grid)) - t - alpha - _samples(shifted, grid)
    error = float(np.max(np.abs(err)))
    min_divisor = float(np.min(np.abs(phase[1:trunc] - 1.0)))
    if error < threshold:
        return KamStep(K=K, delta_a=0.0, record=StepRecord(
            step=0, grid=grid, error=error, delta_k=0.0, delta_a=0.0,
            tail_energy=0.0, min_divisor=min_divisor))
    dk_shifted = 1.0 + _samples(ik * shifted, grid)
    da = float(-np.mean(err / dk_shifted) / np.mean(1.0 / dk_shifted))
    v = np.fft.rfft((err + da) / dk_shifted) / grid
    w = np.zeros_like(c)
    w[1:trunc] = solve_homological(-v[1:trunc], alpha, trunc, divisor_floor)
    d = np.fft.rfft((1.0 + _samples(ik * c, grid)) * _samples(w, grid)) / grid
    tail = 2.0 * float(np.sum(np.abs(d[trunc:]) ** 2))
    d[trunc:] = 0.0
    c += d
    try:
        K_next = AnalyticCircleMap(c[0].real, c[1:trunc])
    except NotDiffeomorphism as e:
        raise ConjugacyNotDiffeo(f"correction too large for a step: {e}") from e
    rec = StepRecord(
        step=0, grid=grid, error=error,
        delta_k=float(np.max(np.abs(_samples(d, grid)))),
        delta_a=abs(da), tail_energy=tail, min_divisor=min_divisor)
    return KamStep(K=K_next, delta_a=da, record=rec)


# ---------------------------------------------------------------------------
# the full iteration


@dataclass(frozen=True)
class KamResult:
    h: Optional[AnalyticCircleMap]  # None unless the run linearized
    trace: KamTrace
    verdict: str  # "linearized" | "diverged" | "resonance_stop"


def kam_iterate(f: AnalyticCircleMap, config: KamConfig) -> KamResult:
    """Newton steps on f_a(K(t)) = K(t + alpha) until sup |E| over the grid
    falls below the threshold, a step's K is no diffeomorphism or the step
    budget runs out (diverged), or a divisor dies (resonance_stop).  A run
    whose sup |E| falls below the threshold ends linearized only when the
    counterterm a - c is below it too: otherwise K conjugates f_a, not f,
    and the run ends diverged.  A linearized run returns h = K^{-1}, from
    the run's one `inverse` on the final grid, and its forward defect; where
    h fails validation (its modes below N/2 do not resolve it, as near
    b = 1) the run ends diverged after all.  Any other run returns no h, as
    an unconverged K^{-1} need not project to a diffeomorphism.  The trace
    records the final grid and the counterterm a - c.

    The caller is expected to have tuned rho(f) to the target: a map whose
    rho(f) is more than _RHO_TOL off raises ValueError, decided on a bracket
    of width _RHO_TOL / 2, whose error bound keeps the threshold at _RHO_TOL.
    """
    bad = config.violations()
    if bad:
        raise ValueError("; ".join(bad))
    alo, ahi = config.alpha_cf.value_interval()
    alpha = 0.5 * (alo + ahi)
    if f.degree > 0:
        est = rho_interval(f, _RHO_TOL / 2)
        if abs(est.value - alpha) > max(_RHO_TOL, 2 * est.error_bound):
            raise ValueError(
                f"rotation number {est.value:.6f} (± {est.error_bound:.1e}) "
                f"does not match the target {alpha:.9f}; tune the map first")
    family = AffineShiftFamily(f)
    trace = KamTrace()
    c0 = f.mean_shift
    K, a, grid = rotation(0.0), c0, 4 * max(8, 2 * f.degree)
    verdict, note = None, ""
    for n in range(config.max_steps):
        try:
            step = kam_step(family.map_at(a), alpha, grid // 4, grid,
                            config.divisor_floor, K, config.threshold)
        except (SmallDivisor, Resonance) as e:
            verdict = "resonance_stop"
            note = str(e)
            break
        except ConjugacyNotDiffeo as e:
            verdict = "diverged"
            note = str(e)
            break
        if step.record.error < config.threshold:
            verdict = "linearized"
            break
        trace.steps.append(replace(step.record, step=n))
        K, a = step.K, a + step.delta_a
        if grid < _GRID_MAX and np.max(np.abs(K.coeffs[grid // 8 - 1:]),
                                       initial=0.0) > _TAIL:
            grid *= 2
    if verdict is None:
        verdict = "diverged"
        note = "step budget exhausted before reaching the threshold"
    elif verdict == "linearized" and not abs(a - c0) < config.threshold:
        verdict = "diverged"
        note = (f"the equation holds for f + (a - c) with counterterm a - c = "
                f"{a - c0:.3e}, not below the threshold: rho(f) is not the "
                f"target")
    h = None
    if verdict == "linearized":
        t = np.arange(grid) / grid
        c = np.fft.rfft(inverse(K, t) - t) / grid
        try:
            h = AnalyticCircleMap(c[0].real, c[1:grid // 2])
            trace.defect = linearization_defect(h, f, alpha)
        except NotDiffeomorphism as e:
            h, verdict = None, "diverged"
            note = f"K^-1 on {grid} points failed validation: {e}"
    trace.verdict = verdict
    trace.note = note
    trace.grid = grid
    trace.counterterm = a - c0
    _fit_trace_constants(trace)
    return KamResult(h=h, trace=trace, verdict=verdict)


def linearization_defect(h: AnalyticCircleMap, f: AnalyticCircleMap,
                         alpha: float, grid: int = 4096) -> float:
    """Grid sup of |h(f(x)) - h(x) - alpha| on x = j / grid, the forward form
    Herman's defect uses.  It is |h(f(h^{-1}(y))) - y - alpha| at y = h(x),
    and h is a bijection: both have one supremum, and no inverse is taken."""
    x = np.arange(grid) / grid
    hx, hfx = evaluate(h, x), evaluate(h, evaluate(f, x))
    return float(np.max(np.abs(hfx - hx - alpha)))


def _fit_trace_constants(trace: KamTrace):
    errors = [s.error for s in trace.steps]
    pairs = [(a, b) for a, b in zip(errors, errors[1:])
             if a > 1e-13 and b > 1e-13 and a < 1.0]
    if pairs:
        xs = np.log([a for a, _ in pairs])
        ys = np.log([b for _, b in pairs])
        if len(pairs) >= 2:
            slope = np.polyfit(xs, ys, 1)[0]
        else:
            slope = ys[0] / xs[0]
        trace.decay_exponent = float(slope)
        trace.quad_constant = float(max(b / a**1.5 for a, b in pairs))


def epsilon_threshold_scan(family, config: KamConfig, lo: float = 0.0,
                           hi: float = 0.5, steps: int = 12) -> float:
    """Bisect the largest family scale at which the iteration still
    linearizes: the observed smallness threshold for this target and
    schedule (nothing is predicted, only measured).

    `family` maps a scale s to an AnalyticCircleMap already tuned to the
    config's target rotation number; a scale counts as passing only when
    the run ends in the linearized verdict; a scale whose map fails to
    build, or that the iteration rejects, counts as failing.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        try:
            ok = kam_iterate(family(mid), config).verdict == "linearized"
        except (CircleLabError, ValueError):
            ok = False
        if ok:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# averaged conjugacies


@dataclass(frozen=True)
class HermanResult:
    h: AnalyticCircleMap
    defect: float
    identity_residual: float
    n: int


def herman_average(f: AnalyticCircleMap, n: int, rho: Optional[float] = None,
                   grid: int = 1024) -> HermanResult:
    """Orbit-averaged conjugacy h_n = (id + f + ... + f^{n-1})/n.

    defect: grid sup of |h_n(f(x)) - h_n(x) - rho|, evaluated through the
    inversion-free form |(f^n(x) - x)/n - rho|.

    identity_residual: grid sup of
    |h_n(f(x)) - h_n(x) - (f^n(x) - x)/n| with the left side going through
    the spectral projection of h_n at fresh argument points, a nontrivial
    consistency check of the averaging and projection pipeline.

    Dh_n = (1 + Df + ... + Df^{n-1})/n >= 1/n, so h_n is monotone; raises
    NotMonotone when its spectral projection fails validation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.arange(grid) / grid
    # h_n as a running sum along one walk of the orbit's positions
    y, h_vals = x, x.copy()
    for _ in range(1, n):
        y = evaluate(f, y)
        h_vals += y
    h_vals /= n
    if rho is None:
        rho = _certified_rho(f)
    defect = float(np.max(np.abs((evaluate(f, y) - x) / n - rho)))
    deg = min(grid // 3, 256)
    c = np.fft.rfft(h_vals - x) / grid
    try:
        h_map = AnalyticCircleMap(float(c[0].real), c[1:deg + 1])
    except NotDiffeomorphism as e:
        raise NotMonotone(f"averaged conjugacy failed validation: {e}") from e
    # identity check at fresh points
    z = (np.arange(grid) + 0.5) / grid
    orbz = orbit_lift(f, z, n)
    rhs = orbz[:n].sum(axis=0) / n + (orbz[n] - orbz[0]) / n
    lhs = evaluate(h_map, orbz[1])
    identity_residual = float(np.max(np.abs(lhs - rhs)))
    return HermanResult(h=h_map, defect=defect,
                        identity_residual=identity_residual, n=n)
