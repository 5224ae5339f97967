"""Analytic circle-map lifts as finite trigonometric polynomials.

A map is f(x) = x + c + v(x) with v a real trig polynomial of degree K given
by Hermitian coefficients v_hat(1..K); the lift relation f(x+1) = f(x)+1 is
forced by the form.  Keeping the class finite makes the calculus exact
(derivatives, coefficient bounds) and truncation explicit: a map built from
samples, as `kam` builds its conjugacies, keeps the modes an FFT of the
samples resolves.

Every pointwise value goes through one evaluator, `_eval_modes`: it takes a
single complex exponential z = e^(2 pi i (x mod 1)) per point and sums the
modes by Horner's rule in z, so a call costs O(K m) flops and O(m) memory for
K modes at m points, and several derivative orders at the same points share
that z.  Every array orbit that carries Df is stepped by one walker,
`_Orbit`: the log-derivative chain rule and the partition-geometry grid
walks read it.  Orbits of positions alone (`orbit_lift`, `iterate` on an
array, Herman's averaged conjugacy) are plain `evaluate` loops.

Every constructed map is certified orientation-preserving, with a true lower
bound df_min > 0 on Df.  The coefficient bound Df >= 1 - sum 4 pi k |v_hat(k)|
is tried first; it is exact for the Arnold family (min Df = 1 - |b|) up to
b -> 1.  Where it is not positive, Df is sampled on a 2048-point grid with a
Lipschitz safety margin from the coefficient bound on |D2f|; while the
margin, not the sampled minimum, is what fails, the grid is refined
fourfold, up to 32768 points.
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
        # plain Python floats: numpy scalars would make every scalar orbit
        # step run numpy-scalar arithmetic
        scalar_modes = tuple(
            (TWO_PI * kk, 2.0 * c.real, -2.0 * c.imag)
            for kk, c in enumerate(arr.tolist(), 1))
        object.__setattr__(self, "_scalar_modes", scalar_modes)
        self._certify()

    @property
    def degree(self) -> int:
        return self.coeffs.size

    def _certify(self):
        if self.degree == 0:
            object.__setattr__(self, "df_min", 1.0)
            return
        # |Df - 1| <= sum 4 pi k |v_hat(k)|; the allowance covers the
        # rounding of that sum (< degree + 6 half-ulps relative) and of the
        # subtraction, so df_min is a true lower bound
        s = float(np.sum(2.0 * TWO_PI * self._k * np.abs(self.coeffs)))
        df_min = 1.0 - s * (1.0 + (self.degree + 8) * 2.0 ** -52) - 2.0 ** -52
        if df_min > 0.0:
            object.__setattr__(self, "df_min", df_min)
            return
        lip2 = float(np.sum(2.0 * (TWO_PI * self._k) ** 2 * np.abs(self.coeffs)))
        for m in (CERT_GRID, 4 * CERT_GRID, 16 * CERT_GRID):
            df = derivative(self, np.arange(m) / m, 1)
            margin = lip2 / (2.0 * m)
            df_min = float(df.min()) - margin
            if df_min > 0.0 or df.min() <= 0.0:
                break
        if df_min <= 0.0:
            raise NotDiffeomorphism(
                f"certified min Df = {df_min:.3e} (grid min {df.min():.3e}, "
                f"Lipschitz margin {margin:.3e})")
        object.__setattr__(self, "df_min", df_min)

    def displacement_bound(self) -> float:
        """sup |f(x) - x - c| <= sum of coefficient magnitudes."""
        return float(2.0 * np.sum(np.abs(self.coeffs)))

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
    """n-fold lift composition f^n(x).  A float walks the return scan's
    reduced orbit and adds its displacement to x; an array (returned as a
    float array, n = 0 included) steps the lift through `evaluate`, as
    `orbit_lift` does: a walk of positions only, with no Df to carry."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if np.ndim(x) == 0:
        from .rotation import _walk  # rotation imports this module
        return float(x) + _walk(f, x, n).disp
    y = np.asarray(x, dtype=float)
    for _ in range(n):
        y = evaluate(f, y)
    return y


def orbit_lift(f: AnalyticCircleMap, x: ArrayLike, n: int) -> np.ndarray:
    """Stacked lift orbit [x, f(x), ..., f^n(x)], shape (n+1, ...)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    xa = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + xa.shape, dtype=float)
    out[0] = xa
    y = xa
    for i in range(1, n + 1):
        y = evaluate(f, y)
        out[i] = y
    return out


class _Orbit:
    """The orbit of an array of points `x0` with its derivatives, stepped
    forward on request: the one walk of an array orbit that carries Df.

    After `advance(j)` it holds f^j (`x`), Df^j (`a`), ln Df^j (`ln`) and
    D^order ln Df^j (`d`; `ln` itself at order 0), carried by the chain rule
    from f and D1f..D^{order+1}f at each orbit point, which one
    `_eval_modes` call per step reads.  From order 1 up it also holds the
    power sums 1 + sum_{0<i<j} (Df^i)^l for l = 1, 2 (`s1`, `s2`), and a
    Df^j above `_BLOWUP_GUARD`, read at each step, raises DerivativeBlowup.
    `ln`, `d`, `s1` and `s2` are updated in place; an orbit read at j
    equals a fresh one advanced to j bit for bit."""

    def __init__(self, f: AnalyticCircleMap, x: np.ndarray, order: int = 0):
        self.f, self.order, self.j = f, order, 0
        self.x0 = self.x = x
        self.a = np.ones_like(x)
        self.ln = np.zeros_like(x)
        self.d = np.zeros_like(x) if order else self.ln
        self._b = np.zeros_like(x)  # D2f^j
        self._c = np.zeros_like(x)  # D3f^j
        if order:
            self.s1, self.s2 = np.ones_like(x), np.ones_like(x)

    def advance(self, j: int) -> "_Orbit":
        order, a, b, c = self.order, self.a, self._b, self._c
        for self.j in range(self.j + 1, j + 1):
            if order and self.j > 1:
                self.s1 += a
                self.s2 += a * a
            fx, f1, *hi = _eval_modes(self.f, self.x, range(order + 2))
            self.ln += np.log(f1)
            if order:
                f2 = hi[0]
                g1 = f2 / f1
                if order == 1:
                    self.d += g1 * a
                else:
                    f3 = hi[1]
                    g2 = f3 / f1 - g1 * g1
                    if order == 2:
                        self.d += g2 * a * a + g1 * b
                    else:
                        f4 = hi[2]
                        g3 = f4 / f1 - 3.0 * f3 * f2 / f1**2 + 2.0 * g1**3
                        self.d += g3 * a**3 + 3.0 * g2 * a * b + g1 * c
                        c = f3 * a**3 + 3.0 * f2 * a * b + f1 * c
                    b = f2 * a * a + f1 * b
            a = f1 * a
            if order and np.max(np.abs(a)) > _BLOWUP_GUARD:
                raise DerivativeBlowup(
                    f"orbit derivative product exceeded {_BLOWUP_GUARD:g}")
            self.x = fx
        self.a, self._b, self._c = a, b, c
        return self


def orbit_log_derivative(f: AnalyticCircleMap, x: ArrayLike, n: int,
                         order: int = 0) -> ArrayLike:
    """D^order ln Df^n(x) for order 0..3: `_Orbit`'s forward accumulation
    of the chain rule over n steps."""
    if order < 0 or order > 3:
        raise ValueError("order must be in 0..3")
    if n < 0:
        raise ValueError("n must be >= 0")
    d = _Orbit(f, np.atleast_1d(np.asarray(x, dtype=float)), order).advance(n).d
    return float(d[0]) if np.ndim(x) == 0 else d.reshape(np.shape(x))


def inverse(f: AnalyticCircleMap, y: ArrayLike) -> ArrayLike:
    """Monotone inverse of the lift: the unique x with f(x) = y, by Newton
    safeguarded on a monotone bracket (a step that leaves it bisects).  A
    step that rounds to zero means x has converged, and is kept; f and Df
    share one `_eval_modes` call.  Stops when every |f(x) - y| is below
    1e-14 max(1, |y|), a bound above an ulp of y; in practice at an ulp."""
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    amp = f.displacement_bound()
    lo, hi = ya - f.mean_shift - amp, ya - f.mean_shift + amp
    x = 0.5 * (lo + hi)
    tol = 1e-14 * np.maximum(1.0, np.abs(ya))
    for _ in range(100):
        fx, df = _eval_modes(f, x, (0, 1))
        err = fx - ya
        if np.all(np.abs(err) < tol):
            break
        lo, hi = np.where(err > 0, lo, x), np.where(err > 0, x, hi)
        cand = x - err / df
        inside = (cand > lo) & (cand < hi) | (cand == x)
        x = np.where(inside, cand, 0.5 * (lo + hi))
    else:
        raise NoConvergence("lift inversion did not reach 1e-14 max(1, |y|)")
    return float(x[0]) if np.ndim(y) == 0 else x.reshape(np.shape(y))


# ---------------------------------------------------------------------------
# variation


def log_derivative_variation(f: AnalyticCircleMap) -> float:
    """Total variation of ln Df over one period.

    Critical points of Df are located as unit-circle roots of the trig
    polynomial D2f (companion-matrix roots, Newton-polished); the variation
    sum over the union of those points with an 8192-point grid equals the true
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
    pts = np.unique(np.concatenate([xs % 1.0, np.arange(8192) / 8192]))
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
        return AnalyticCircleMap(a, np.array([-1j * self.b / (4.0 * math.pi)]))


@dataclass(frozen=True)
class AffineShiftFamily:
    """A fixed nonlinearity with a tunable additive constant."""

    base: AnalyticCircleMap

    def map_at(self, a: float) -> AnalyticCircleMap:
        return AnalyticCircleMap(a, self.base.coeffs)
