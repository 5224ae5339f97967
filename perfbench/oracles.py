"""Independent checkers for the benchmark's outputs.

Nothing here calls circlelab for the value it checks.  The references are
a 40-digit mpmath orbit of the Arnold map, a numpy evaluator for
trigonometric-polynomial lifts and Arnold orbits, exact convergent
recurrences, and closed forms.  Every checker takes the program's output
(duck-typed: any object with the named attributes) and returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi
MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# exact arithmetic of periodic continued fractions


def periodic_quotients(period, n: int) -> list[int]:
    """The first n quotients of the purely periodic fraction [period...]."""
    return [period[i % len(period)] for i in range(n)]


def convergents_of(quotients) -> list[tuple[int, int]]:
    """(p_k, q_k) for k = 1..len(quotients), by the three-term recurrence."""
    p0, q0, p1, q1 = 1, 0, 0, 1
    out = []
    for a in quotients:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return out


def periodic_value(period, dps: int = 50) -> mpmath.mpf:
    """Value of the purely periodic fraction [period...] in (0, 1), from the
    fixed point x = [period, x], a quadratic equation solved at dps digits."""
    with mpmath.workdps(dps + 10):
        p, q = 0, 1  # the fraction [period, t] is (p_k + p_{k-1} t) / (q_k + q_{k-1} t)
        p_prev, q_prev = 1, 0
        for a in period:
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        # x = (p + p_prev x) / (q + q_prev x)  <=>  q_prev x^2 + (q - p_prev) x - p = 0
        A, B, C = q_prev, q - p_prev, -p
        if A == 0:
            return +mpmath.mpf(-C) / B
        return (-B + mpmath.sqrt(B * B - 4 * A * C)) / (2 * A)


# ---------------------------------------------------------------------------
# maps


def trig_lift(c: float, coeffs, x: np.ndarray) -> np.ndarray:
    """x + c + sum_k 2 Re(v_k e^{2 pi i k x}), summed mode by mode in real
    arithmetic."""
    x = np.asarray(x, dtype=float)
    out = x + c
    for k, v in enumerate(np.asarray(coeffs, dtype=complex).reshape(-1), 1):
        t = TWO_PI * k * x
        out = out + 2.0 * (v.real * np.cos(t) - v.imag * np.sin(t))
    return out


def arnold_orbit(a, b, x: np.ndarray, n: int) -> np.ndarray:
    """f^n(x) for f(x) = x + a + (b / 2 pi) sin(2 pi x), elementwise in a, b, x."""
    x = np.array(x, dtype=float)
    for _ in range(n):
        x = x + a + b / TWO_PI * np.sin(TWO_PI * x)
    return x


def splitmix01(seed: int, idx: int) -> float:
    """The tongue scan's per-cell base point, from its published recipe."""
    x = (seed * 0x9E3779B97F4A7C15 + idx * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 30
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return (x & ((1 << 53) - 1)) / float(1 << 53)


# ---------------------------------------------------------------------------
# tune


def mp_arnold_return_errors(a: float, b: float, chain, dps: int = 40):
    """f^{q_k}(0) - p_k at dps digits along the convergents (p_k, q_k)."""
    out = []
    with mpmath.workdps(dps):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b) / (2 * mpmath.pi)
        two_pi = 2 * mpmath.pi
        x = mpmath.mpf(0)
        done = 0
        for p, q in chain:
            for _ in range(q - done):
                x = x + a_ + b_ * mpmath.sin(two_pi * x)
            done = q
            out.append(x - p)
    return out


def check_tune(b: float, a: float, bracket, tol: float, period,
               q_limit: int = 10_000) -> list[str]:
    """The certified bracket holds the target value and is no wider than
    tol; the 40-digit orbit of the tuned map returns on alternating sides of
    p_k at the target's convergent times q_k <= q_limit."""
    problems = []
    value = periodic_value(period)
    lo, hi = bracket
    if not (mpmath.mpf(lo) <= value <= mpmath.mpf(hi)):
        problems.append(f"bracket {bracket} misses the target value {value}")
    if not hi - lo <= tol:
        problems.append(f"bracket width {hi - lo:.3e} exceeds tol {tol:.1e}")
    chain = [c for c in convergents_of(periodic_quotients(period, 60))
             if c[1] <= q_limit]
    errs = mp_arnold_return_errors(a, b, chain)
    for k in range(1, len(errs)):
        if mpmath.sign(errs[k]) == mpmath.sign(errs[k - 1]) or errs[k] == 0:
            problems.append(f"return signs do not alternate at q = {chain[k][1]}")
            break
    return problems


# ---------------------------------------------------------------------------
# tongue scan


def parse_tongue_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def check_tongue(csv_text: str, grid: dict, seed: int) -> list[str]:
    """Shape, the b = 0 row, monotonicity along each b row within the error
    bounds, and every locked cell's p/q confirmed by a numpy Arnold orbit."""
    rows = parse_tongue_csv(csv_text)
    na, nb = grid["na"], grid["nb"]
    problems = []
    if len(rows) != na * nb:
        return [f"grid has {len(rows)} rows, expected {na * nb}"]
    cells = {}
    for r in rows:
        ia, ib = int(r["ia"]), int(r["ib"])
        cells[(ia, ib)] = (float(r["a"]), float(r["b"]), float(r["rho"]),
                           r["locked"] == "1", float(r["err_bound"]))
    if len(cells) != na * nb:
        return ["grid cells are not distinct"]
    # rotation number of the lift, from the reduced value: the Arnold lift
    # moves every point by a + O(b / 2 pi), so take the branch nearest a
    lift = {}
    for key, (a, b, rho, _, _) in cells.items():
        lift[key] = rho + round(a - rho)
    for ia in range(na):
        a, b, rho, locked, err = cells[(ia, 0)]
        if b == 0.0 and abs(lift[(ia, 0)] - a) > err + 1e-12:
            problems.append(f"b = 0, a = {a!r}: rho {rho!r} is off by more "
                            f"than its bound {err:g}")
    for ib in range(nb):
        for ia in range(na - 1):
            r0, r1 = lift[(ia, ib)], lift[(ia + 1, ib)]
            slack = cells[(ia, ib)][4] + cells[(ia + 1, ib)][4] + 1e-12
            if r1 < r0 - slack:
                problems.append(f"rho decreases along b row {ib} at ia = {ia}")
    locked = [(k, v) for k, v in cells.items() if v[3]]
    if locked:
        a = np.array([v[0] for _, v in locked])
        b = np.array([v[1] for _, v in locked])
        fr = [Fraction(v[2]).limit_denominator(grid["n_max"]) for _, v in locked]
        q = np.array([f.denominator for f in fr])
        x = np.array([splitmix01(seed, ia * nb + ib) for (ia, ib), _ in locked])
        # settle onto the cycle well past the scan's own burn-in
        x = arnold_orbit(a, b, x, grid["burn_in"] + 2000)
        x = x - np.floor(x)
        y = x.copy()
        back = np.full(x.shape, np.nan)
        for j in range(1, int(q.max()) + 1):
            y = y + a + b / TWO_PI * np.sin(TWO_PI * y)
            back = np.where(q == j, y - x, back)
        for (key, v), f, d, qq in zip(locked, fr, back, q):
            p_lift = round(d)
            if abs(d - p_lift) > 1e-9 or (p_lift - f.numerator) % qq:
                problems.append(f"cell {key}: no period-{qq} return with "
                                f"rotation {f} (displacement {d!r})")
    return problems


# ---------------------------------------------------------------------------
# linearization


def check_linearize(f_map, alpha: float, kam, herman, report, expect_q,
                    offset: float) -> list[str]:
    """The KAM run ends 'linearized' and its conjugacy h satisfies
    sup |h(f(x)) - h(x) - alpha| < 1e-8 on a grid offset by `offset`, with
    no inversion; the Herman results (at increasing denominator times) have
    identity residuals below 1e-10 and decreasing defects; the geometry
    levels tile within 1e-9, satisfy the sandwich and the classical
    distortion bound, and return at the target's q_1..q_n (expect_q)."""
    problems = []
    if kam.verdict != "linearized":
        problems.append(f"KAM verdict {kam.verdict!r}, expected 'linearized'")
    x = (np.arange(4096) + offset) / 4096
    h = kam.h
    fx = trig_lift(f_map.mean_shift, f_map.coeffs, x)
    resid = (trig_lift(h.mean_shift, h.coeffs, fx)
             - trig_lift(h.mean_shift, h.coeffs, x) - alpha)
    sup = float(np.max(np.abs(resid)))
    if not sup < 1e-8:
        problems.append(f"sup |h(f(x)) - h(x) - alpha| = {sup:.3e} >= 1e-8")
    for hr in herman:
        if not hr.identity_residual < 1e-10:
            problems.append(f"Herman identity residual {hr.identity_residual:.3e} "
                            f"at n = {hr.n}")
    for h0, h1 in zip(herman, herman[1:]):
        if not h1.defect < h0.defect:
            problems.append(f"Herman defect does not decrease from n = {h0.n} "
                            f"to n = {h1.n}")
    levels = report.levels
    for lev, dj, q in zip(levels, report.denjoy, expect_q):
        if abs(lev.tiling_total - 1.0) > 1e-9 or lev.max_overlap > 1e-9:
            problems.append(f"level {lev.n} does not tile within 1e-9")
        if not lev.m - 1e-9 <= lev.qn_distance <= lev.M + 1e-9:
            problems.append(f"level {lev.n} breaks the sandwich m <= |q rho - p| <= M")
        if not dj.classical_residual <= 1e-8:
            problems.append(f"level {lev.n} breaks the classical distortion bound")
        if lev.q != q:
            problems.append(f"level {lev.n} has q_n = {lev.q}, the target's is {q}")
    if len(levels) != len(expect_q):
        problems.append(f"{len(levels)} levels, expected {len(expect_q)}")
    return problems


# ---------------------------------------------------------------------------
# arithmetic


BOUNDED = ("periodic", "bounded_prng")


def check_verdict(kind: str, verdict) -> list[str]:
    """Verdict properties each kind of number must have."""
    h = verdict.condition_h
    hk = None if h is None else h.kind
    problems = []
    if kind in BOUNDED or kind == "golden":
        if verdict.brjuno.diverging:
            problems.append(f"{kind}: bounded-type number got a diverging sum")
        if hk == "fail_at":
            problems.append(f"{kind}: bounded-type number got fail_at")
    if kind in ("exp_round", "exp_sqrt_ceil") and hk == "pass_to_depth":
        problems.append(f"{kind}: got pass_to_depth")
    if kind == "exp_qn_round" and not verdict.brjuno.diverging:
        problems.append(f"{kind}: Brjuno sum not flagged diverging")
    if verdict.diophantine.certified and hk == "fail_at":
        problems.append(f"{kind}: certified Diophantine pass paired with fail_at")
    return problems


def golden_dioph_values(depth: int, dps: int = 50) -> list[mpmath.mpf]:
    """q_k^2 |phi - p_k / q_k| for k = 1..depth at dps digits."""
    with mpmath.workdps(dps):
        phi = (mpmath.sqrt(5) - 1) / 2
        return [q * q * abs(phi - mpmath.mpf(p) / q)
                for p, q in convergents_of([1] * depth)]


def golden_brjuno() -> float:
    """B(g) = sum_j g^j ln(1/g) = ln(1/g) / (1 - g) for the golden mean g."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    return math.log(1.0 / g) / (1.0 - g)


def check_golden(dioph_values, b_lo: float, b_hi: float, tail: float) -> list[str]:
    """Diophantine values are lower bounds agreeing with the 50-digit
    reference to 1e-6 relative; the Brjuno closed form lies in the bracket
    widened by its tail allowance.

    The program measures |phi - p_k/q_k| against a rational bracket of phi
    built from 48 quotients, about 1e-20 wide, so its value at k = 30 sits
    up to ~6e-8 (relative) below the exact one."""
    problems = []
    ref = golden_dioph_values(len(dioph_values))
    for k, (v, r) in enumerate(zip(dioph_values, ref), 1):
        if v > r * (1 + 1e-15) or v < r * (1 - 1e-6):
            problems.append(f"golden Diophantine value at k = {k}: {v!r} vs "
                            f"{mpmath.nstr(r, 20)}")
    bg = golden_brjuno()
    if not b_lo - 1e-12 <= bg <= b_hi + tail + 1e-12:
        problems.append(f"golden Brjuno value {bg!r} outside [{b_lo!r}, "
                        f"{b_hi!r} + {tail!r}]")
    return problems
