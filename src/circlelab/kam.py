"""Local linearization machinery.

One step solves the additive conjugacy equation w(x + alpha) - w(x) = -v(x)
mode by mode (dividing by e^(2 pi i k alpha) - 1, the small divisors), forms
h = id + w, and replaces f by h o f o h^{-1}, recentred and spectrally
projected.  Iterating drives the nonlinearity down quadratically while the
truncation order grows and the analyticity strip shrinks geometrically toward
half its initial width; the trace records norms, mean shifts, tail energies,
and divisor minima per step so a failed run explains itself.

An independent estimator is also provided: the orbit-averaged conjugacy
h_n = (id + f + ... + f^{n-1})/n, whose defect is measurable without any
inversion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circlemap import (AnalyticCircleMap, _eval_modes, compose_project,
                        conjugate_project, evaluate, inverse, orbit_lift,
                        rotation, strip_norm)
from .contfrac import ContinuedFraction
from .errors import (ConjugacyNotDiffeo, NotDiffeomorphism, NotMonotone,
                     Resonance, SmallDivisor)
from .rotation import rho_interval

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class KamConfig:
    """Parameters of the iteration.

    Defaults: truncation N_n = N0 * 2^n with N0 = max(8, 2 deg f), strip
    nu_n = nu0 (1/2 + 2^{-n-1}) so the widths decrease strictly toward
    nu0 / 2.  Explicit schedules may override both.
    """

    alpha_cf: ContinuedFraction
    nu0: float = 0.02
    base_truncation: Optional[int] = None
    truncations: Optional[tuple] = None
    strips: Optional[tuple] = None
    max_steps: int = 14
    divisor_floor: float = 1e-8
    threshold: float = 1e-11
    safety_norm: float = 0.25
    alias_tol: float = 1e-4

    def nu_at(self, n: int) -> float:
        if self.strips is not None:
            return self.strips[min(n, len(self.strips) - 1)]
        return self.nu0 * (0.5 + 2.0 ** (-n - 1))

    def trunc_at(self, n: int, n0: int) -> int:
        if self.truncations is not None:
            return self.truncations[min(n, len(self.truncations) - 1)]
        return n0 * 2 ** n

    def violations(self) -> list[str]:
        """Cross-field checks; empty when the schedules are admissible."""
        out = []
        if self.nu0 <= 0:
            out.append("nu0 must be positive")
        if self.max_steps < 1:
            out.append("max_steps must be >= 1")
        if self.divisor_floor <= 0:
            out.append("divisor_floor must be positive")
        if self.strips is not None and len(self.strips) == 0:
            out.append("strip schedule must not be empty")
        else:
            nus = [self.nu_at(n) for n in range(self.max_steps + 1)]
            if any(b >= a for a, b in zip(nus, nus[1:])):
                out.append("strip schedule must be strictly decreasing")
            if nus[-1] < self.nu0 / 2 - 1e-15:
                out.append("strip schedule must stay at or above nu0/2")
        if self.truncations is not None:
            ts = list(self.truncations)
            if not ts:
                out.append("truncation schedule must not be empty")
            if any(b < a for a, b in zip(ts, ts[1:])):
                out.append("truncation schedule must be nondecreasing")
        return out


@dataclass(frozen=True)
class StepRecord:
    step: int
    norm_v: float        # strip norm of f - T_alpha at nu_n
    norm_w: float        # strip norm of the solved correction at nu_n
    mean_shift: float    # |v_hat(0)| before recentring
    tail_energy: float   # spectral energy discarded by the projection
    min_divisor: float   # smallest divisor magnitude used this step

    def as_row(self) -> list:
        return [self.step, self.norm_v, self.norm_w, self.mean_shift,
                self.tail_energy, self.min_divisor]


@dataclass
class KamTrace:
    steps: list = field(default_factory=list)
    verdict: str = ""
    note: str = ""
    defect: float = math.nan
    decay_exponent: float = math.nan
    quad_constant: float = math.nan       # max norm_{n+1} / norm_n^1.5
    mean_shift_constant: float = math.nan  # max |v_hat(0)| / norm_v^2

    CSV_HEADER = "step,norm_v,norm_w,mean_shift,tail_energy,min_divisor"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for s in self.steps:
            lines.append(",".join(_fmt17(v) for v in s.as_row()))
        footer = {"verdict": self.verdict, "note": self.note,
                  "defect": self.defect, "decay_exponent": self.decay_exponent,
                  "quad_constant": self.quad_constant,
                  "mean_shift_constant": self.mean_shift_constant}
        lines.append("# " + json.dumps(footer))
        return "\n".join(lines) + "\n"


def _fmt17(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# the homological solve and one conjugation step


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


def min_divisor(degree: int, alpha: float) -> float:
    if degree < 1:
        return math.inf
    k = np.arange(1, degree + 1)
    return float(np.min(np.abs(np.exp(2j * math.pi * k * alpha) - 1.0)))


@dataclass(frozen=True)
class KamStep:
    h: AnalyticCircleMap
    f_next: AnalyticCircleMap
    record: StepRecord


def kam_step(f: AnalyticCircleMap, alpha: float, trunc: int, out_degree: int,
             nu: float, step_index: int = 0, divisor_floor: float = 1e-8,
             alias_tol: float = 1e-4) -> KamStep:
    """One conjugation step: solve for w from the nonlinearity of f (with the
    mean recentred away), build h = id + w, and return h o f o h^{-1}
    projected to out_degree."""
    mean_shift = float(f.mean_shift - alpha)
    w_hat = solve_homological(f.coeffs, alpha, trunc, divisor_floor)
    try:
        h = AnalyticCircleMap(0.0, w_hat)
    except NotDiffeomorphism as e:
        raise ConjugacyNotDiffeo(f"correction too large for a step: {e}") from e
    try:
        conj = conjugate_project(h, f, out_degree, alias_tol)
    except NotDiffeomorphism as e:
        raise ConjugacyNotDiffeo(f"conjugated map failed validation: {e}") from e
    rec = StepRecord(
        step=step_index,
        norm_v=strip_norm(f, rotation(alpha), nu),
        norm_w=strip_norm(h, rotation(0.0), nu),
        mean_shift=abs(mean_shift),
        tail_energy=conj.tail_energy,
        min_divisor=min_divisor(min(trunc, f.degree), alpha),
    )
    return KamStep(h=h, f_next=conj.map, record=rec)


# ---------------------------------------------------------------------------
# the full iteration


@dataclass(frozen=True)
class KamResult:
    h: AnalyticCircleMap
    trace: KamTrace
    verdict: str  # "linearized" | "diverged" | "resonance_stop"


def kam_iterate(f: AnalyticCircleMap, config: KamConfig,
                check_rotation: bool = True) -> KamResult:
    """Iterate conjugation steps until the nonlinearity norm falls below the
    threshold (linearized), grows twice in a row or a step degenerates
    (diverged), or a divisor dies (resonance_stop).

    The caller is expected to have tuned rho(f) to the target; a cheap
    closest-return check guards against gross mismatch.
    """
    bad = config.violations()
    if bad:
        raise ValueError("; ".join(bad))
    alo, ahi = config.alpha_cf.value_interval()
    alpha = 0.5 * (alo + ahi)
    if check_rotation and f.degree > 0:
        est = rho_interval(f, 1e-7, stall_factor=32, n_cap=400000)
        if abs(est.value - alpha) > max(1e-5, 2 * est.error_bound):
            raise ValueError(
                f"rotation number {est.value:.9f} does not match the target "
                f"{alpha:.9f}; tune the map first")
    n0 = config.base_truncation or max(8, 2 * f.degree)
    trace = KamTrace()
    h_total = rotation(0.0)
    f_n = f
    prev = math.inf
    grow = 0
    verdict = None
    note = ""
    for n in range(config.max_steps):
        nu_n = config.nu_at(n)
        norm = strip_norm(f_n, rotation(alpha), nu_n)
        if norm < config.threshold:
            verdict = "linearized"
            break
        if norm > prev:
            grow += 1
            if grow >= 2:
                verdict = "diverged"
                note = "nonlinearity grew on two consecutive steps"
                break
        else:
            grow = 0
        prev = norm
        try:
            step = kam_step(f_n, alpha, config.trunc_at(n, n0),
                            config.trunc_at(n + 1, n0), nu_n, n,
                            config.divisor_floor, config.alias_tol)
        except (SmallDivisor, Resonance) as e:
            verdict = "resonance_stop"
            note = str(e)
            break
        except ConjugacyNotDiffeo as e:
            verdict = "diverged"
            note = str(e)
            break
        trace.steps.append(step.record)
        comp = compose_project(step.h, h_total,
                               max(step.h.degree + h_total.degree, 8),
                               config.alias_tol)
        h_total = comp.map
        f_n = step.f_next
    if verdict is None:
        verdict = "diverged"
        note = "step budget exhausted before reaching the threshold"
    trace.verdict = verdict
    trace.note = note
    trace.defect = linearization_defect(h_total, f, alpha)
    _fit_trace_constants(trace)
    return KamResult(h=h_total, trace=trace, verdict=verdict)


def linearization_defect(h: AnalyticCircleMap, f: AnalyticCircleMap,
                         alpha: float, grid: int = 4096) -> float:
    """Pointwise grid sup of |h(f(h^{-1}(x))) - x - alpha| on the real axis."""
    x = np.arange(grid) / grid
    y = evaluate(h, evaluate(f, inverse(h, x)))
    return float(np.max(np.abs(y - x - alpha)))


def _fit_trace_constants(trace: KamTrace):
    norms = [s.norm_v for s in trace.steps]
    pairs = [(a, b) for a, b in zip(norms, norms[1:])
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
    shifts = [(s.mean_shift, s.norm_v) for s in trace.steps
              if s.norm_v > 1e-13]
    if shifts:
        trace.mean_shift_constant = float(max(m / v**2 for m, v in shifts))


def epsilon_threshold_scan(family, config: KamConfig, lo: float = 0.0,
                           hi: float = 0.5, steps: int = 12) -> float:
    """Bisect the largest family scale at which the iteration still
    linearizes: the observed smallness threshold for this target and
    schedule (nothing is predicted, only measured).

    `family` maps a scale s to an AnalyticCircleMap already tuned to the
    config's target rotation number; a scale counts as passing only when
    the run ends in the linearized verdict.
    """
    from .errors import CircleLabError
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
                   grid: int = 1024, degree: Optional[int] = None
                   ) -> HermanResult:
    """Orbit-averaged conjugacy h_n = (id + f + ... + f^{n-1})/n.

    defect: grid sup of |h_n(f(x)) - h_n(x) - rho|, evaluated through the
    inversion-free form |(f^n(x) - x)/n - rho|.

    identity_residual: grid sup of
    |h_n(f(x)) - h_n(x) - (f^n(x) - x)/n| with the left side going through
    the spectral projection of h_n at fresh argument points, a nontrivial
    consistency check of the averaging and projection pipeline.

    Raises NotMonotone when Dh_n is not strictly positive on the grid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.arange(grid) / grid
    # the orbit and the slope of the average along it: Dh_n = sum_i Df^i / n,
    # with f and Df at each orbit point sharing one evaluation
    orb = np.empty((n + 1, grid))
    orb[0] = x
    dh = np.ones_like(x)
    a = np.ones_like(x)
    for i in range(1, n + 1):
        orb[i], df = _eval_modes(f, orb[i - 1], (0, 1))
        if i < n:
            a = a * df
            dh += a
    dh /= n
    h_vals = orb[:n].sum(axis=0) / n
    if rho is None:
        eps = 1e-12 if f.degree == 0 else 1e-10
        rho = rho_interval(f, eps, stall_factor=64).value
    defect = float(np.max(np.abs((orb[n] - orb[0]) / n - rho)))
    if float(dh.min()) <= 1e-12:
        raise NotMonotone(f"averaged conjugacy has min slope {dh.min():.3e}")
    deg = degree if degree is not None else min(grid // 3, 256)
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
