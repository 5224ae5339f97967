"""Exact continued fractions with finite, periodic, and rule-generated tails.

The quotients are the source of truth for every arithmetic classification;
real values are derived from them, never the other way around.  Convergents
are exact big integers while they fit; past the point where a generated
quotient itself stops being materializable (rules like a_{n+1} = round(e^{a_n})
leave the integer world within a few steps) the chain continues with certified
two-sided bounds on ln(a_n) and ln(q_n) carried as LevelReal pairs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DepthExhausted, ExactnessExhausted, RationalDetected
from .levelindex import LevelReal, ZERO

# A generated quotient stays an exact int while its defining exponent is
# below this bound (the int then has at most ~305 digits).
_EXACT_EXP_BOUND = 700.0
_REL = 1e-14  # relative widening when an exact integer enters float data
_CF_RESOLVED = 1 << 48  # cf_expand: largest q^2 whose quotient a double fixes


def _ln_int(n: int) -> float:
    """ln of a positive int, accurate to ~1e-15 relative at any size."""
    if n < (1 << 52):
        return math.log(n)
    bl = n.bit_length()
    top = n >> (bl - 53)
    return math.log(top) + (bl - 53) * math.log(2.0)


def _int_log_pair(n: int) -> tuple[LevelReal, LevelReal]:
    v = _ln_int(n)
    if v == 0.0:
        return (ZERO, LevelReal.from_float(1e-300))
    return (LevelReal.from_float(v * (1.0 - _REL)),
            LevelReal.from_float(v * (1.0 + _REL)))


# ---------------------------------------------------------------------------
# tails


@dataclass(frozen=True)
class FiniteTail:
    kind = "finite"


@dataclass(frozen=True)
class PeriodicTail:
    start: int
    period: int
    kind = "periodic"


@dataclass(frozen=True)
class RuleTail:
    """Programmatic quotient rule; `name` selects the growth law."""
    name: str
    params: tuple = ()
    kind = "rule"

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


RULE_NAMES = ("exp_round", "exp_sqrt_ceil", "exp_qn_round", "log_power",
              "bounded_prng")


# ---------------------------------------------------------------------------


class ContinuedFraction:
    """Positive-quotient continued fraction [a_1, a_2, ...] of a number in
    (0, 1), with lazily extended, immutable-once-computed quotient data.

    Retrieval of quotient n never mutates earlier entries; all accessors are
    safe to call from multiple threads.  The brackets of the Gauss iterates
    (`shifted_value_bracket`, `log_inverse_interval`) are fixed functions of
    their index, so each is computed once per index and kept; every later
    call returns the kept objects.
    """

    def __init__(self, quotients: Sequence[int] = (), tail=None):
        tail = FiniteTail() if tail is None else tail
        qs = [int(a) for a in quotients]
        if any(a < 1 for a in qs):
            raise ValueError("all quotients must be >= 1")
        if isinstance(tail, PeriodicTail):
            if tail.start < 1 or tail.period < 1:
                raise ValueError("periodic tail needs start >= 1, period >= 1")
            if len(qs) < tail.start - 1 + tail.period:
                raise ValueError("periodic tail reaches past the given quotients")
        if isinstance(tail, RuleTail):
            if tail.name not in RULE_NAMES:
                raise ValueError(f"unknown rule {tail.name!r}")
            if not qs:
                a1 = tail.param("a1")
                if a1 is None:
                    raise ValueError("rule tail without quotients needs an a1 seed")
                qs = [int(a1)]
        self.tail = tail
        self._lock = threading.RLock()
        self._aq: list[Optional[int]] = list(qs)
        self._alog: list[tuple[LevelReal, LevelReal]] = [_int_log_pair(a) for a in qs]
        # convergent chains, index n >= 0; virtual (p_-1, q_-1) = (1, 0)
        self._p: list[Optional[int]] = [0]
        self._q: list[Optional[int]] = [1]
        self._lnq: list[tuple[LevelReal, LevelReal]] = [(ZERO, ZERO)]
        self._extend_chains()
        # kept brackets by index; a call that raises keeps nothing
        self._brackets: dict[int, tuple[Fraction, Fraction]] = {}
        self._log_inverses: dict[int, tuple[LevelReal, LevelReal]] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def periodic(cls, quotients: Sequence[int], start: int = 1,
                 period: Optional[int] = None) -> "ContinuedFraction":
        period = len(quotients) - start + 1 if period is None else period
        return cls(quotients, PeriodicTail(start=start, period=period))

    @classmethod
    def golden(cls) -> "ContinuedFraction":
        return cls.periodic([1])

    @classmethod
    def rule(cls, name: str, **params) -> "ContinuedFraction":
        return cls((), RuleTail(name, tuple(sorted(params.items()))))

    # -- quotient generation ---------------------------------------------------

    def _tail_quotient(self, n: int) -> tuple[Optional[int], Optional[tuple]]:
        """Quotient a_n for n past the explicit prefix."""
        t = self.tail
        if isinstance(t, FiniteTail):
            raise DepthExhausted(f"finite fraction has {len(self._aq)} quotients, "
                                 f"asked for a_{n}")
        if isinstance(t, PeriodicTail):
            i = t.start - 1 + (n - t.start) % t.period
            return self._aq[i], None
        return self._rule_quotient(t, n)

    def _rule_quotient(self, t: RuleTail, n: int):
        prev = self._aq[n - 2]
        plog = self._alog[n - 2]
        if t.name == "exp_round":
            if prev is not None and prev <= _EXACT_EXP_BOUND:
                return int(round(math.exp(prev))), None
            lo = plog[0].exp() if prev is None else LevelReal.from_float(prev * (1 - _REL))
            hi = plog[1].exp() if prev is None else LevelReal.from_float(prev * (1 + _REL))
            return None, (lo, hi)
        if t.name == "exp_sqrt_ceil":
            if prev is not None and prev <= _EXACT_EXP_BOUND ** 2:
                return int(math.ceil(math.exp(math.sqrt(prev)))), None
            if prev is not None:
                r = math.sqrt(prev)
                return None, (LevelReal.from_float(r * (1 - _REL)),
                              LevelReal.from_float(r * (1 + _REL)))
            return None, (plog[0].scale(0.5).exp(), plog[1].scale(0.5).exp())
        if t.name == "exp_qn_round":
            qprev = self._q[n - 1]
            lnq = self._lnq[n - 1]
            if qprev is not None and qprev * (n - 1) <= _EXACT_EXP_BOUND:
                return int(round(math.exp(qprev * (n - 1)))), None
            if qprev is not None:
                e = float(qprev) * (n - 1)
                return None, (LevelReal.from_float(e * (1 - _REL)),
                              LevelReal.from_float(e * (1 + _REL)))
            return None, (lnq[0].exp().scale(n - 1), lnq[1].exp().scale(n - 1))
        if t.name == "log_power":
            c = float(t.param("c", 2.0))
            lo, hi = self._lnq[n - 1]
            if self._q[n - 1] is not None:
                u = _ln_int(self._q[n - 1])
                e = u ** c - u
                if e <= _EXACT_EXP_BOUND:
                    return max(1, int(round(math.exp(e)))), None
                return None, (LevelReal.from_float(e * (1 - _REL)),
                              LevelReal.from_float(e * (1 + _REL)))
            # u^c - u for huge u: monotone increasing in u on u > 1
            def f(u: LevelReal) -> LevelReal:
                return u.log().scale(c).exp().diff(u)
            return None, (f(lo), f(hi))
        if t.name == "bounded_prng":
            seed = int(t.param("seed", 0))
            width = int(t.param("hi", 9)) - int(t.param("lo", 1)) + 1
            return int(t.param("lo", 1)) + _splitmix64(seed * 0x1000 + n) % width, None
        raise ValueError(f"unknown rule {t.name!r}")

    def _extend_chains(self):
        """Advance the convergent / log chains to cover all cached quotients."""
        while len(self._q) <= len(self._aq):
            n = len(self._q)  # convergent index being produced
            a = self._aq[n - 1]
            alog = self._alog[n - 1]
            p1 = self._p[n - 1]
            q1 = self._q[n - 1]
            p0 = self._p[n - 2] if n >= 2 else 1
            q0 = self._q[n - 2] if n >= 2 else 0
            if a is not None and p1 is not None and q1 is not None:
                self._p.append(a * p1 + p0)
                self._q.append(a * q1 + q0)
                self._lnq.append(_int_log_pair(self._q[-1]))
            else:
                self._p.append(None)
                self._q.append(None)
                lnq1 = self._lnq[n - 1]
                lnq0 = self._lnq[n - 2] if n >= 2 else None
                lo = alog[0].add(lnq1[0])
                hi = alog[1].add(lnq1[1])
                if q0 != 0 and lnq0 is not None:
                    # q_n = a_n q_{n-1} (1 + q_{n-2} / (a_n q_{n-1}))
                    r_hi = lnq0[1].exp().ratio_to(alog[0].add(lnq1[0]).exp())
                    hi = hi.add_float(math.log1p(min(1.0, r_hi)))
                self._lnq.append((lo, hi))

    def _ensure(self, n: int):
        with self._lock:
            while len(self._aq) < n:
                k = len(self._aq) + 1
                a, logpair = self._tail_quotient(k)
                self._aq.append(a)
                self._alog.append(_int_log_pair(a) if a is not None else logpair)
                self._extend_chains()

    # -- accessors ----------------------------------------------------------

    def quotient(self, n: int) -> Optional[int]:
        """a_n (1-indexed); None when only log data exists at this depth."""
        if n < 1:
            raise ValueError("quotient index starts at 1")
        self._ensure(n)
        return self._aq[n - 1]

    def quotient_log(self, n: int) -> tuple[LevelReal, LevelReal]:
        """Two-sided bounds on ln(a_n)."""
        self._ensure(n)
        return self._alog[n - 1]

    def convergent(self, n: int) -> tuple[int, int]:
        """Exact (p_n, q_n); n = 0 gives (0, 1)."""
        if n < 0:
            raise ValueError("convergent index starts at 0")
        self._ensure(n)
        p, q = self._p[n], self._q[n]
        if p is None or q is None:
            raise ExactnessExhausted(f"convergent {n} exceeds exact-integer range")
        return p, q

    def lnq_interval(self, n: int) -> tuple[LevelReal, LevelReal]:
        """Two-sided bounds on ln(q_n)."""
        self._ensure(max(n, 1))
        return self._lnq[n]

    # -- derived values -------------------------------------------------------

    def shifted_value_bracket(self, n: int = 0) -> tuple[Fraction, Fraction]:
        """Exact rational bracket for the value of [a_{n+1}, a_{n+2}, ...]
        (the n-th Gauss iterate of the value of this fraction), computed once
        per n and kept."""
        b = self._brackets.get(n)
        if b is None:
            # setdefault is atomic: racing threads all return the first kept
            # bracket, and every computation of it is equal
            b = self._brackets.setdefault(n, self._bracket(n))
        return b

    def _bracket(self, n: int) -> tuple[Fraction, Fraction]:
        p1, q1 = 0, 1
        p0, q0 = 1, 0
        k = 0
        t_hi = Fraction(1)
        while True:
            k += 1
            try:
                a = self.quotient(n + k)
            except DepthExhausted:
                if k == 1:
                    raise RationalDetected("empty tail: the shifted value is 0")
                return (Fraction(p1, q1), Fraction(p1, q1))
            if a is None:
                lo_log = self._alog[n + k - 1][0].to_float()
                t_hi = Fraction(math.exp(-min(lo_log, 700.0))) if lo_log < 700.0 \
                    else Fraction(1, 10 ** 280)
                break
            p1, p0 = a * p1 + p0, p1
            q1, q0 = a * q1 + q0, q1
            if k >= 48 or q1 * q1 > 10 ** 36:
                break
        # value = (p1 + p0 t) / (q1 + q0 t) for the true tail t in (0, t_hi]
        end0 = Fraction(p1, q1)
        end1 = (p1 + p0 * t_hi) / (q1 + q0 * t_hi)
        return (min(end0, end1), max(end0, end1))

    def value_interval(self) -> tuple[float, float]:
        """Directed float bracket for the value of the fraction."""
        lo, hi = self.shifted_value_bracket(0)
        return (math.nextafter(float(lo), -math.inf),
                math.nextafter(float(hi), math.inf))

    def value(self) -> float:
        lo, hi = self.value_interval()
        return 0.5 * (lo + hi)

    def gauss_iterate_interval(self, n: int) -> tuple[float, float]:
        """Directed float bracket for G^n(value), the n-th Gauss iterate."""
        lo, hi = self.shifted_value_bracket(n)
        return (max(0.0, math.nextafter(float(lo), -math.inf)),
                min(1.0, math.nextafter(float(hi), math.inf)))

    def log_inverse_interval(self, n: int) -> tuple[LevelReal, LevelReal]:
        """Two-sided bounds on ln(1 / G^n(value)) as LevelReal, computed once
        per n and kept."""
        b = self._log_inverses.get(n)
        if b is None:
            b = self._log_inverses.setdefault(n, self._log_inverse(n))
        return b

    def _log_inverse(self, n: int) -> tuple[LevelReal, LevelReal]:
        a1 = self.quotient(n + 1)
        if a1 is not None:
            tlo, thi = self.gauss_iterate_interval(n + 1)
            lo = math.log(float(a1) + tlo)
            hi = math.log(float(a1) + thi)
            return (LevelReal.from_float(max(0.0, lo * (1 - _REL) - 1e-300)),
                    LevelReal.from_float(hi * (1 + _REL) + 1e-300))
        lo, hi = self.quotient_log(n + 1)
        # ln(a) <= ln(1/alpha) <= ln(a + 1); the upper slack is e^-Lambda,
        # far below the mantissa guard bands used by callers
        return (lo, hi.nudge_up(1e-12))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        t = self.tail
        if isinstance(t, FiniteTail):
            tail = {"kind": "finite"}
        elif isinstance(t, PeriodicTail):
            tail = {"kind": "periodic", "start": t.start, "period": t.period}
        else:
            tail = {"kind": "rule", "name": t.name, **dict(t.params)}
        n_explicit = len(self._aq) if isinstance(t, FiniteTail) else (
            t.start - 1 + t.period if isinstance(t, PeriodicTail) else 1)
        return {"quotients": [a for a in self._aq[:n_explicit]], "tail": tail}

    @classmethod
    def from_json(cls, obj: dict) -> "ContinuedFraction":
        tail_obj = obj.get("tail", {"kind": "finite"})
        kind = tail_obj.get("kind", "finite")
        qs = obj.get("quotients", [])
        if kind == "finite":
            return cls(qs, FiniteTail())
        if kind == "periodic":
            return cls(qs, PeriodicTail(start=int(tail_obj["start"]),
                                        period=int(tail_obj["period"])))
        if kind == "rule":
            params = {k: v for k, v in tail_obj.items() if k not in ("kind", "name")}
            return cls(qs, RuleTail(tail_obj["name"], tuple(sorted(params.items()))))
        raise ValueError(f"unknown tail kind {kind!r}")

    def __repr__(self):
        head = ",".join(str(a) for a in self._aq[:6] if a is not None)
        return f"ContinuedFraction([{head},...], tail={self.tail.kind})"


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Convergent:
    n: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def cf_expand(x: float, depth: int) -> ContinuedFraction:
    """Expand x in (0, 1) into its first `depth` quotients via the Gauss map.

    Raises RationalDetected once x, a double, no longer determines the next
    quotient: an iterate hits 0 to working precision, or the next convergent
    denominator q has q^2 > 2^48.  The depth-k cylinder of x is ~1/q_k^2
    wide and k Gauss steps amplify rounding by ~q_k^2, so past that point
    (32 ulps of the cylinder) every rational close enough to x to be the
    same double is a possible expansion.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("cf_expand needs x strictly inside (0, 1)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    qs = []
    q_prev, q = 0, 1
    y = x
    for _ in range(depth):
        inv = 1.0 / y
        a = int(math.floor(inv))
        q_prev, q = q, a * q + q_prev
        if q * q > _CF_RESOLVED:
            raise RationalDetected(
                f"x does not determine quotient {len(qs) + 1} at double "
                f"precision (q = {q})")
        qs.append(a)
        y = inv - a
        if y < 1e-12:
            raise RationalDetected(
                f"Gauss iterate vanished after {len(qs)} quotients")
    return ContinuedFraction(qs, FiniteTail())


def convergents(cf: ContinuedFraction, n: int) -> list[Convergent]:
    """The first n convergents p_k/q_k, exact integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for k in range(1, n + 1):
        p, q = cf.convergent(k)
        out.append(Convergent(k, p, q))
    return out
