"""Arithmetic on iterated-exponential magnitudes.

Quotient rules like a_{n+1} = round(e^{a_n}) drive the derived quantities of
arithmetic classification (log-denominators, truncated Brjuno values, the
linearization-threshold recursion) past IEEE double range within a handful of
steps, while the comparisons that decide a verdict still happen between
numbers of comparable size.  A value here is a nonnegative real stored as

    X = exp^level(m)        (level-fold iterated exponential of a float)

with a canonical band for the mantissa, so towers of any height cost O(1) and
order comparisons reduce to lexicographic (level, m).  Only the small set of
monotone operations the classification recursions need is provided.  Mantissa
round-off stays at float scale on every level; callers absorb it with guard
bands rather than directed rounding.
"""

from __future__ import annotations

import math

CAP = 512.0
_LOG_CAP = math.log(CAP)
_SAT = 1e308  # saturation value for differences beyond float range


class LevelReal:
    """Nonnegative real exp^level(m), canonical: m in [0, CAP) at level 0,
    m in [log CAP, CAP) at level >= 1 (modulo one-ulp boundary fuzz)."""

    __slots__ = ("level", "m")

    def __init__(self, level: int, m: float):
        # trusted constructor; use from_float / the arithmetic ops otherwise
        self.level = level
        self.m = m

    @staticmethod
    def _canonical(level: int, m: float) -> "LevelReal":
        """exp^level(m) canonical, for an m >= log CAP at level >= 1."""
        while m >= CAP:
            m = math.log(m)
            level += 1
        return LevelReal(level, m)

    @classmethod
    def from_float(cls, x: float) -> "LevelReal":
        if x != x:
            raise ValueError("nan is not representable")
        if x < 0.0:
            if x < -1e-9:
                raise ValueError(f"negative value {x!r} is not representable")
            x = 0.0
        if math.isinf(x):
            x = _SAT
        return cls._canonical(0, x)

    def to_float(self) -> float:
        v = self.m
        for _ in range(self.level):
            if v > 709.0:
                return math.inf
            v = math.exp(v)
        return v

    # -- order ------------------------------------------------------------

    def _key(self):
        return (self.level, self.m)

    def __eq__(self, other):
        return isinstance(other, LevelReal) and self._key() == other._key()

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.level == 0:
            return f"LevelReal({self.m:.6g})"
        return f"LevelReal(exp^{self.level}({self.m:.6g}))"

    def is_zero(self) -> bool:
        return self.level == 0 and self.m == 0.0

    # -- exact structural ops ----------------------------------------------

    def exp(self) -> "LevelReal":
        if self.level == 0:
            if self.m < _LOG_CAP:
                return LevelReal(0, math.exp(self.m))
            return LevelReal(1, self.m)
        return LevelReal(self.level + 1, self.m)

    def log(self) -> "LevelReal":
        """Natural log; defined for values >= 1."""
        if self.level == 0:
            if self.m < 1.0:
                raise ValueError(f"log of {self.m!r} < 1 leaves the domain")
            return LevelReal(0, math.log(self.m))
        return LevelReal(self.level - 1, self.m)

    # -- monotone arithmetic -----------------------------------------------

    def add(self, other: "LevelReal") -> "LevelReal":
        if self.level == 0 and other.level == 0:
            return LevelReal._canonical(0, self.m + other.m)
        big, small = (self, other) if self >= other else (other, self)
        r = small.ratio_to(big)
        return big.log().add_float(math.log1p(r)).exp()

    def add_float(self, c: float) -> "LevelReal":
        """self + c for a float |c| <= ~1e308; result clamped at 0."""
        if self.level == 0:
            return LevelReal._canonical(0, max(0.0, self.m + c))
        f = self.to_float()
        if math.isfinite(f):
            return LevelReal.from_float(max(0.0, f + c))
        ln = self.log()
        lnf = ln.to_float()
        if lnf > 745.0:
            # |c| / value < 1e308 * e^-745: below mantissa resolution
            return self
        t = c * math.exp(-lnf)
        if t <= -1.0:
            return ZERO
        return ln.add_float(math.log1p(t)).exp()

    def diff(self, other: "LevelReal") -> "LevelReal":
        """self - other, requiring self >= other.  Differences below the
        mantissa resolution of huge operands collapse to 0."""
        if self < other:
            raise ValueError("diff requires self >= other")
        if self.level == 0:
            return LevelReal._canonical(0, max(0.0, self.m - other.m))
        r = other.ratio_to(self)
        if r >= 1.0 - 1e-15:
            return ZERO
        return self._mul_exp(math.log1p(-r))

    def scale(self, c: float) -> "LevelReal":
        """self * c for a float c > 0."""
        if c <= 0.0:
            raise ValueError("scale factor must be positive")
        if self.level == 0:
            return LevelReal.from_float(self.m * c)
        return self._mul_exp(math.log(c))

    def _mul_exp(self, t: float) -> "LevelReal":
        """self * e^t at level >= 1.  A result below 1 has a negative log,
        which `add_float` would clamp at 0; ln(self) + t < 0 needs a finite
        ln(self), so the result is exp(ln(self) + t) itself."""
        ln = self.log()
        if ln.to_float() + t < 0.0:
            return LevelReal.from_float(math.exp(ln.to_float() + t))
        return ln.add_float(t).exp()

    def mul_exp_neg(self, L: "LevelReal") -> "LevelReal":
        """self * e^{-L} for L >= 0."""
        if self.is_zero():
            return ZERO
        if self.level == 0 and self.m < 1.0:
            lf = L.to_float()
            if not math.isfinite(lf) or lf > 745.0:
                return ZERO
            return LevelReal.from_float(self.m * math.exp(-lf))
        lnself = self.log()
        if lnself >= L:
            return lnself.diff(L).exp()
        t = L.diff(lnself).to_float()
        if not math.isfinite(t) or t > 745.0:
            return ZERO
        return LevelReal.from_float(math.exp(-t))

    def ratio_to(self, big: "LevelReal") -> float:
        """self / big as a float, for 0 <= self <= big, big > 0."""
        d = _log_ratio(self, big)
        if d < -745.0:
            return 0.0
        return min(1.0, math.exp(d))

    def nudge_up(self, eps: float = 1e-9) -> "LevelReal":
        """Slightly larger value: guard band for one-sided comparisons.
        At level >= 1 the bump acts on the top mantissa, which dominates any
        accumulated float round-off there."""
        if self.level == 0:
            return LevelReal._canonical(0, self.m * (1.0 + eps) + eps)
        return LevelReal._canonical(self.level, self.m + eps)


def _log_ratio(s: LevelReal, b: LevelReal) -> float:
    """ln(s/b) as a saturating float, for 0 <= s <= b, b > 0."""
    if s.level == 0 and s.m == 0.0:
        return -_SAT
    if s.level == 0 and b.level == 0:
        return math.log(s.m / b.m)
    if s.level == 0:
        # b >= CAP, s < CAP: both logs are plain floats unless b is enormous
        lbf = b.log().to_float()
        if math.isinf(lbf):
            return -_SAT
        return math.log(s.m) - lbf
    return _float_diff(s.log(), b.log())


def _float_diff(p: LevelReal, q: LevelReal) -> float:
    """p - q as a saturating float.  When both operands exceed float range
    the sign is still exact; the magnitude saturates, which is harmless
    because such differences only feed relative corrections that fall below
    the operands' mantissa resolution."""
    pf, qf = p.to_float(), q.to_float()
    if math.isfinite(pf) and math.isfinite(qf):
        return pf - qf
    if p == q:
        return 0.0
    return _SAT if p > q else -_SAT


ZERO = LevelReal(0, 0.0)
ONE = LevelReal(0, 1.0)
