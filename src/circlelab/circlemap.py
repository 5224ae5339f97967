"""Analytic circle-map lifts as finite trigonometric polynomials.

A map is f(x) = x + c + v(x) with v a real trig polynomial of degree K given
by Hermitian coefficients v_hat(1..K); the lift relation f(x+1) = f(x)+1 is
forced by the form.  Keeping the class finite makes the calculus exact
(derivatives, strip bounds, spectral projection) and truncation explicit:
composition is sampling plus projection with reported tail energy.

Every pointwise value goes through one evaluator, `_eval_modes`: it takes a
single complex exponential z = e^(2 pi i (x mod 1)) per point and sums the
modes by Horner's rule in z, so a call costs O(K m) flops and O(m) memory for
K modes at m points, and several derivative orders at the same points share
that z.

Every constructed map is certified orientation-preserving: Df > 0 on a
2048-point grid with a Lipschitz safety margin from the coefficient bound on
|D2f|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DerivativeBlowup, NoConvergence, NotDiffeomorphism

TWO_PI = 2.0 * math.pi
CERT_GRID = 2048
MAX_DERIV_ORDER = 4
_BLOWUP_GUARD = 1e12

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True, eq=False)
class AnalyticCircleMap:
    """Lift x -> x + c + sum_{0<|k|<=K} v_hat(k) e^(2 pi i k x), with
    v_hat(-k) = conj(v_hat(k)) implied by storing only k >= 1."""

    mean_shift: float
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))

    def __post_init__(self):
        object.__setattr__(self, "mean_shift", float(self.mean_shift))
        arr = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1).copy()
        while arr.size and arr[-1] == 0:
            arr = arr[:-1]
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        k = np.arange(1, arr.size + 1, dtype=float)
        object.__setattr__(self, "_k", k)
        scalar_modes = tuple(
            (TWO_PI * kk, 2.0 * c.real, -2.0 * c.imag)
            for kk, c in zip(k, arr))
        object.__setattr__(self, "_scalar_modes", scalar_modes)
        self._certify()

    @property
    def degree(self) -> int:
        return self.coeffs.size

    def _certify(self):
        if self.degree == 0:
            object.__setattr__(self, "df_min", 1.0)
            return
        x = np.arange(CERT_GRID) / CERT_GRID
        df = derivative(self, x, 1)
        lip2 = float(np.sum(2.0 * (TWO_PI * self._k) ** 2 * np.abs(self.coeffs)))
        margin = lip2 / (2.0 * CERT_GRID)
        df_min = float(df.min()) - margin
        if df_min <= 0.0:
            raise NotDiffeomorphism(
                f"certified min Df = {df_min:.3e} (grid min {df.min():.3e}, "
                f"Lipschitz margin {margin:.3e})")
        object.__setattr__(self, "df_min", df_min)

    def displacement_bound(self) -> float:
        """sup |f(x) - x - c| <= sum of coefficient magnitudes."""
        return float(2.0 * np.sum(np.abs(self.coeffs)))

    def step_scalar(self, x: float) -> float:
        """Fast scalar lift evaluation for long orbits."""
        xm = x - math.floor(x)
        s = self.mean_shift
        for k2p, ca, cb in self._scalar_modes:
            t = k2p * xm
            s += ca * math.cos(t) + cb * math.sin(t)
        return x + s

    def to_json(self) -> dict:
        return {"c": self.mean_shift,
                "modes": [{"k": i + 1, "re": c.real, "im": c.imag}
                          for i, c in enumerate(self.coeffs) if c != 0],
                "family": None}

    def __repr__(self):
        return f"AnalyticCircleMap(c={self.mean_shift:.6g}, degree={self.degree})"


def rotation(alpha: float) -> AnalyticCircleMap:
    return AnalyticCircleMap(alpha)


def family_from_json(fam: dict) -> "ArnoldFamily":
    """The family a JSON config names; the Arnold family is the only kind."""
    if fam.get("kind") != "arnold":
        raise ValueError(f"unknown family kind {fam.get('kind')!r}")
    return ArnoldFamily(float(fam["b"]))


def map_from_json(obj: dict) -> AnalyticCircleMap:
    fam = obj.get("family")
    if fam is not None:
        return family_from_json(fam).map_at(float(fam["a"]))
    modes = obj.get("modes", [])
    deg = max((int(m["k"]) for m in modes), default=0)
    coeffs = np.zeros(deg, complex)
    for m in modes:
        coeffs[int(m["k"]) - 1] = complex(float(m["re"]), float(m["im"]))
    return AnalyticCircleMap(float(obj.get("c", 0.0)), coeffs)


# ---------------------------------------------------------------------------
# pointwise calculus


def _eval_modes(f: AnalyticCircleMap, x: np.ndarray, orders) -> list:
    """[D^r f(x) for r in orders] at an array of points.

    With z = e^(2 pi i (x mod 1)) and w_k = (2 pi i k)^r v_hat(k), the mode
    sum sum_k w_k z^k is evaluated by Horner's rule, z (w_1 + z (w_2 + ...)),
    and the k < 0 half of the lift is its complex conjugate, so the modes
    contribute twice its real part.  Every order reuses the same z; a
    degree-0 map is exact (x + c, then 1, then 0)."""
    if f.degree == 0:
        return [x + f.mean_shift if r == 0 else np.full_like(x, float(r == 1))
                for r in orders]
    z = np.exp((2j * math.pi) * (x - np.floor(x)))
    ik = 2j * math.pi * f._k
    out = []
    for r in orders:
        w = (ik ** r * f.coeffs).tolist()
        acc = w[-1] * z
        for c in w[-2::-1]:
            acc += c
            acc *= z
        part = 2.0 * acc.real
        out.append(x + f.mean_shift + part if r == 0
                   else 1.0 + part if r == 1 else part)
    return out


def derivative(f: AnalyticCircleMap, x: ArrayLike, order: int = 1) -> ArrayLike:
    """Exact derivative of the lift; order 0 returns f(x) itself.

    Evaluated by `_eval_modes`: one complex exponential per point and a
    Horner sweep over the K modes, with no (m x K) phase matrix."""
    if not 0 <= order <= MAX_DERIV_ORDER:
        raise ValueError(f"derivative order must be in 0..{MAX_DERIV_ORDER}")
    out = _eval_modes(f, np.asarray(x, dtype=float), (order,))[0]
    return float(out) if np.ndim(x) == 0 else out


def evaluate(f: AnalyticCircleMap, x: ArrayLike) -> ArrayLike:
    return derivative(f, x, 0)


def iterate(f: AnalyticCircleMap, x: ArrayLike, n: int) -> ArrayLike:
    """n-fold lift composition f^n(x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    y = x
    if np.ndim(x) == 0:
        y = float(x)
        for _ in range(n):
            y = f.step_scalar(y)
        return y
    for _ in range(n):
        y = evaluate(f, y)
    return y


def orbit_lift(f: AnalyticCircleMap, x: ArrayLike, n: int) -> np.ndarray:
    """Stacked lift orbit [x, f(x), ..., f^n(x)], shape (n+1, ...)."""
    xa = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + xa.shape, dtype=float)
    out[0] = xa
    y = xa
    for i in range(1, n + 1):
        y = evaluate(f, y)
        out[i] = y
    return out


def orbit_log_derivative(f: AnalyticCircleMap, x: ArrayLike, n: int,
                         order: int = 0) -> ArrayLike:
    """D^order ln Df^n(x) for order 0..3, by forward accumulation along the
    orbit (chain rule through the iterates; derivative products of the
    iterate are carried alongside)."""
    if order < 0 or order > 3:
        raise ValueError("order must be in 0..3")
    if n < 0:
        raise ValueError("n must be >= 0")
    scalar = np.ndim(x) == 0
    cur = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    s = np.zeros_like(cur)
    a = np.ones_like(cur)   # Df^i
    b = np.zeros_like(cur)  # D2f^i
    c = np.zeros_like(cur)  # D3f^i
    for _ in range(n):
        # f and D1f..D^{order+1}f at the current points, from one z
        fx, f1, *hi = _eval_modes(f, cur, range(order + 2))
        if order == 0:
            s += np.log(f1)
        else:
            f2 = hi[0]
            g1 = f2 / f1
            if order == 1:
                s += g1 * a
            else:
                f3 = hi[1]
                g2 = f3 / f1 - g1 * g1
                if order == 2:
                    s += g2 * a * a + g1 * b
                else:
                    f4 = hi[2]
                    g3 = f4 / f1 - 3.0 * f3 * f2 / f1**2 + 2.0 * g1**3
                    s += g3 * a**3 + 3.0 * g2 * a * b + g1 * c
            if order >= 3:
                c = f3 * a**3 + 3.0 * f2 * a * b + f1 * c
            if order >= 2:
                b = f2 * a * a + f1 * b
            a = f1 * a
        if order == 0:
            pass
        elif np.max(np.abs(a)) > _BLOWUP_GUARD:
            raise DerivativeBlowup(
                f"orbit derivative product exceeded {_BLOWUP_GUARD:g}")
        cur = fx
    return float(s[0]) if scalar else s.reshape(np.shape(x))


def inverse(f: AnalyticCircleMap, y: ArrayLike) -> ArrayLike:
    """Monotone inverse of the lift: the unique x with f(x) = y."""
    scalar = np.ndim(y) == 0
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    amp = f.displacement_bound()
    lo = ya - f.mean_shift - amp
    hi = ya - f.mean_shift + amp
    x = 0.5 * (lo + hi)
    for _ in range(100):
        err = evaluate(f, x) - ya
        if np.max(np.abs(err)) < 1e-14:
            break
        hi = np.where(err > 0, x, hi)
        lo = np.where(err > 0, lo, x)
        step = err / derivative(f, x, 1)
        cand = x - step
        inside = (cand > lo) & (cand < hi)
        x = np.where(inside, cand, 0.5 * (lo + hi))
    else:
        raise NoConvergence("lift inversion did not reach 1e-14")
    return float(x[0]) if scalar else x.reshape(np.shape(y))


# ---------------------------------------------------------------------------
# spectral composition and norms


@dataclass(frozen=True)
class CompositionResult:
    map: AnalyticCircleMap
    tail_energy: float
    retained_energy: float
    alias_warning: bool


def _project(samples_fn, degrees: list[int], out_degree: int,
             alias_tol: float) -> CompositionResult:
    m = 4 * max([out_degree, 1] + degrees)
    x = np.arange(m) / m
    y = samples_fn(x) - x
    c = np.fft.rfft(y) / m
    mean = float(c[0].real)
    out = c[1:out_degree + 1]
    if out.size < out_degree:
        out = np.pad(out, (0, out_degree - out.size))
    tail = 2.0 * float(np.sum(np.abs(c[out_degree + 1:m // 2]) ** 2))
    tail += float(np.abs(c[m // 2]) ** 2) if m // 2 > out_degree else 0.0
    retained = 2.0 * float(np.sum(np.abs(c[1:out_degree + 1]) ** 2))
    alias = tail > alias_tol * max(retained, 1e-300)
    return CompositionResult(AnalyticCircleMap(mean, out), tail, retained, alias)


def compose_project(g: AnalyticCircleMap, f: AnalyticCircleMap,
                    out_degree: int, alias_tol: float = 1e-9) -> CompositionResult:
    """g o f sampled on an oversampled grid and projected onto modes up to
    out_degree; the discarded spectral energy is reported, and the alias flag
    is raised when it exceeds alias_tol times the retained energy."""
    if out_degree < max(g.degree, f.degree):
        raise ValueError("out_degree must cover both input degrees")
    return _project(lambda x: evaluate(g, evaluate(f, x)),
                    [g.degree, f.degree], out_degree, alias_tol)


def conjugate_project(h: AnalyticCircleMap, f: AnalyticCircleMap,
                      out_degree: int, alias_tol: float = 1e-9) -> CompositionResult:
    """h o f o h^{-1} sampled pointwise (the inverse via the monotone root
    find) and spectrally projected."""
    return _project(lambda x: evaluate(h, evaluate(f, inverse(h, x))),
                    [h.degree, f.degree], out_degree, alias_tol)


def strip_norm(f: AnalyticCircleMap, g: AnalyticCircleMap, nu: float) -> float:
    """Certified upper bound for sup over the width-nu strip of |f - g|: the
    coefficient sum |dc| + sum 2 |dv_hat(k)| e^(2 pi k nu)."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    kmax = max(f.degree, g.degree)
    dc = f.mean_shift - g.mean_shift
    dco = np.zeros(kmax, complex)
    dco[:f.degree] += f.coeffs
    dco[:g.degree] -= g.coeffs
    k = np.arange(1, kmax + 1, dtype=float)
    return abs(dc) + float(np.sum(2.0 * np.abs(dco) * np.exp(TWO_PI * k * nu)))


def log_derivative_variation(f: AnalyticCircleMap, grid: int = 8192) -> float:
    """Total variation of ln Df over one period.

    Critical points of Df are located as unit-circle roots of the trig
    polynomial D2f (companion-matrix roots, Newton-polished); the variation
    sum over the union of those points with a fine grid equals the true
    variation once all extrema are present, and never exceeds it.
    """
    if f.degree == 0:
        return 0.0
    kk = np.arange(1, f.degree + 1)
    w = (2j * math.pi * kk) ** 2 * f.coeffs
    b = np.zeros(2 * f.degree + 1, complex)
    b[f.degree + kk] = w
    b[f.degree - kk] = np.conj(w)
    poly = b[::-1]
    nz = np.nonzero(np.abs(poly) > 0)[0]
    xs = np.zeros(0)
    if nz.size:
        roots = np.roots(poly[nz[0]:])
        unit = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
        xs = np.sort(np.angle(unit) / TWO_PI % 1.0)
        for _ in range(3):  # polish on D2f with D3f, all roots at once
            d2, d3 = _eval_modes(f, xs, (2, 3))
            flat = np.abs(d3) <= 1e-9
            xs = np.where(flat, xs, xs - d2 / np.where(flat, 1.0, d3))
    pts = np.unique(np.concatenate([xs % 1.0, np.arange(grid) / grid]))
    vals = np.log(derivative(f, pts, 1))
    return float(np.sum(np.abs(np.diff(vals))) + abs(vals[0] - vals[-1]))


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class ArnoldFamily:
    """x + a + (b / 2 pi) sin(2 pi x); a valid diffeomorphism for |b| < 1."""

    b: float

    def __post_init__(self):
        if not abs(self.b) < 1.0:
            raise NotDiffeomorphism(f"|b| = {abs(self.b)} >= 1: Df vanishes")

    def map_at(self, a: float) -> AnalyticCircleMap:
        if self.b == 0.0:
            return AnalyticCircleMap(a)
        return AnalyticCircleMap(a, np.array([-1j * self.b / (4.0 * math.pi)]))

    def displacement_bound(self) -> float:
        return abs(self.b) / TWO_PI

    def to_json(self, a: float) -> dict:
        return {"family": {"kind": "arnold", "a": a, "b": self.b}}


@dataclass(frozen=True)
class AffineShiftFamily:
    """A fixed nonlinearity with a tunable additive constant."""

    base: AnalyticCircleMap

    def map_at(self, a: float) -> AnalyticCircleMap:
        return AnalyticCircleMap(a, self.base.coeffs)

    def displacement_bound(self) -> float:
        return self.base.displacement_bound()
