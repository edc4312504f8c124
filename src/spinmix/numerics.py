"""Exact Gaussian-rational scalars, truncated power series, polynomials, roots.

Every value this package compares or reports is an :class:`ExactComplex`,
a Gaussian rational (a + b*i)/d held as three arbitrary-precision integers
in lowest terms, so equalities are bit-exact. The tree pass, the enumeration
folds and ``series_div`` run on Gaussian-integer numerators over one
denominator instead, and reduce each value once, when it is read.
Floating point appears only in root finding and decay fitting.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import RootConvergenceError, SeriesDivisionError


def _rational_parts(x) -> tuple[int, int]:
    """Numerator and denominator of an exact rational (int, Fraction or str)."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


class ExactComplex:
    """A complex number (a + b*i)/d with integers a, b and d.

    The triple is kept canonical, d > 0 and gcd(a, b, d) == 1, so equal
    values have equal triples. Each field operation ends in one gcd
    normalisation. Floats are rejected by the constructor so inexactness
    cannot sneak into an identity check.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        if isinstance(re, ExactComplex):
            if im != 0:
                raise TypeError("cannot combine an ExactComplex with an imaginary part")
            _set(self, "_abd", re._abd)
            return
        a, d = _rational_parts(re)
        b, e = _rational_parts(im)
        # both parts are in lowest terms, so over lcm(d, e) the triple is canonical
        if d != e:
            g = gcd(d, e)
            a, b, d = a * (e // g), b * (d // g), d // g * e
        _set(self, "_abd", (a, b, d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        return ExactComplex(x)

    def __add__(self, other):
        if not isinstance(other, ExactComplex):
            other = ExactComplex(other)
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ExactComplex):
            other = ExactComplex(other)
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, ExactComplex):
            # an int, such as a configuration count, is already canonical
            other = _exact(other, 0, 1) if type(other) is int else ExactComplex(other)
        a, b, d = self._abd
        c, e, f = other._abd
        if not b and not e:
            n, m = a * c, d * f
            g = gcd(n, m)
            return _exact(n // g, 0, m // g)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ExactComplex):
            other = ExactComplex(other)
        a, b, d = self._abd
        c, e, f = other._abd
        if not e:
            if not c:
                raise ZeroDivisionError("division by exact zero")
            if c < 0:
                c, f = -c, -f
            return _reduced(a * f, b * f, d * c)
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        a, b, d = self._abd
        return _exact(-a, -b, d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are exact")
        if k < 0:
            return (ExactComplex(1) / self) ** (-k)
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and conversions -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactComplex):
            try:
                other = ExactComplex(other)
            except TypeError:
                return NotImplemented
        return self._abd == other._abd

    def __hash__(self):
        return hash(self._abd)

    def __bool__(self):
        a, b, _ = self._abd
        return bool(a or b)

    def is_zero(self) -> bool:
        return not self

    def conjugate(self) -> "ExactComplex":
        a, b, d = self._abd
        return _exact(a, -b, d)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def is_real(self) -> bool:
        return not self._abd[1]

    def to_complex(self) -> complex:
        # int / int rounds correctly, so this equals float(self.re)
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __complex__(self):
        return self.to_complex()

    def __repr__(self):
        if self.is_real():
            return f"ExactComplex({str(self.re)!r})"
        return f"ExactComplex({str(self.re)!r}, {str(self.im)!r})"

    def __str__(self):
        if self.is_real():
            return str(self.re)
        im = self.im
        return f"{self.re}{'+' if im > 0 else ''}{im}i"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, doc) -> "ExactComplex":
        """Parse 'p/q', a bare int, or {'re': 'p/q', 'im': 'p/q'}."""
        if isinstance(doc, dict):
            return cls(Fraction(str(doc.get("re", 0))), Fraction(str(doc.get("im", 0))))
        if isinstance(doc, (int, str, Fraction)):
            return cls(doc)
        raise TypeError(f"cannot parse complex rational from {doc!r}")


_new = object.__new__
_set = object.__setattr__


def _exact(a: int, b: int, d: int) -> ExactComplex:
    """The ExactComplex (a + b*i)/d of a triple already in canonical form."""
    x = _new(ExactComplex)
    _set(x, "_abd", (a, b, d))
    return x


def _reduced(a: int, b: int, d: int) -> ExactComplex:
    """The ExactComplex (a + b*i)/d for any d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _exact(a // g, b // g, d // g)
    return _exact(a, b, d)


def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


ZERO = ExactComplex(0)
ONE = ExactComplex(1)


def parse_scalar(text: str) -> ExactComplex:
    """Parse a CLI scalar literal: 'p/q' or 'p/q,p/q' (real,imaginary).
    Raises ValueError on a malformed literal, a zero denominator included."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"bad rational literal: {text!r}")
    try:
        return ExactComplex(*map(Fraction, parts))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class PowerSeries:
    """Dense truncated power series with ExactComplex coefficients.

    ``coefficients[i]`` is the coefficient of x^i; ``order`` (= len) is the
    exclusive truncation order. Binary operations truncate to the shorter
    operand.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable):
        self.coefficients = tuple(ExactComplex._coerce(c) for c in coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"PowerSeries([{', '.join(str(c) for c in self.coefficients)}])"

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            return PowerSeries(c * other for c in self.coefficients)
        n = min(self.order, other.order)
        out = [ZERO] * n
        for i, a in enumerate(self.coefficients[:n]):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coefficients[: n - i]):
                out[i + j] = out[i + j] + a * b
        return PowerSeries(out)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all zero."""
        for i, c in enumerate(self.coefficients):
            if not c.is_zero():
                return i
        return None

    def shifted_down(self, k: int) -> "PowerSeries":
        """Divide by x^k; the first k coefficients must be zero."""
        if any(not c.is_zero() for c in self.coefficients[:k]):
            raise SeriesDivisionError("cannot shift down across nonzero coefficients")
        return PowerSeries(self.coefficients[k:])

    def evaluate(self, x: ExactComplex) -> ExactComplex:
        out = ZERO
        for c in reversed(self.coefficients):
            out = out * x + c
        return out


def series_invert(s: PowerSeries) -> PowerSeries:
    """Multiplicative inverse of a series with nonzero constant term."""
    return series_div(PowerSeries((ONE,) + (ZERO,) * (s.order - 1)), s)


def series_div(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """Formal quotient num/den, cancelling a shared leading x^k factor first.

    The result order shrinks by the cancelled valuation. Raises
    SeriesDivisionError when den vanishes through its order or when num has
    a smaller valuation than den (the quotient would not be a power series).
    Fraction-free: R_i = q_i d_0^(i+1) on Gaussian-integer numerators (their
    common denominator cancels); q_i = R_i conj(d_0)^(i+1) / |d_0|^(2(i+1)).
    """
    k = den.valuation()
    if k is None:
        raise SeriesDivisionError("denominator is zero through the truncation order")
    if k > 0:
        vn = num.valuation()
        if vn is not None and vn < k:
            raise SeriesDivisionError(
                f"valuation mismatch: numerator x^{vn} vs denominator x^{k}")
        num = num.shifted_down(k) if vn is not None else PowerSeries(num.coefficients[k:])
        den = den.shifted_down(k)
    size = min(num.order, den.order)
    # over the lcm of all denominators; den's constant term even when num is empty
    coeffs = [c._abd for c in num.coefficients[:size] + den.coefficients[:max(size, 1)]]
    common = math.lcm(*[d for _, _, d in coeffs])
    ns = [(a * (common // d), b * (common // d)) for a, b, d in coeffs]
    ns, ds = ns[:size], ns[size:]
    # d_0^i, and e_j = d_j d_0^(j-1): R_i = n_i d_0^i - sum_{j>=1} e_j R_{i-j}
    pw = list(itertools.accumulate([ds[0]] * size, _gmul, initial=(1, 0)))
    es = list(map(_gmul, ds[1:], pw))
    norm = ds[0][0] ** 2 + ds[0][1] ** 2
    rs, out = [], []
    for i in range(size):
        re, im = _gmul(ns[i], pw[i])
        for (er, ei), (xr, xi) in zip(es, reversed(rs)):
            re, im = re - er * xr + ei * xi, im - er * xi - ei * xr
        rs.append((re, im))
        pr, pi = pw[i + 1]
        out.append(_reduced(re * pr + im * pi, im * pr - re * pi, norm ** (i + 1)))
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Exact polynomial in one variable; trailing zero coefficients trimmed."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable):
        coeffs = [ExactComplex._coerce(c) for c in coefficients]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coefficients)}])"

    def evaluate(self, x: ExactComplex) -> ExactComplex:
        out = ZERO
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def evaluate_complex(self, x: complex) -> complex:
        out = 0j
        for c in reversed(self.coefficients):
            out = out * x + c.to_complex()
        return out

    def valuation(self) -> int | None:
        for i, c in enumerate(self.coefficients):
            if not c.is_zero():
                return i
        return None

    def shifted_down(self, k: int) -> "Polynomial":
        return Polynomial(self.coefficients[k:])

    def to_series(self, order: int) -> PowerSeries:
        coeffs = list(self.coefficients[:order])
        coeffs += [ZERO] * (order - len(coeffs))
        return PowerSeries(coeffs)

    def one_norm(self) -> float:
        return sum(math.sqrt(float(c.abs2())) for c in self.coefficients)


# ---------------------------------------------------------------------------
# Exact polynomial algebra for the square-free step
# ---------------------------------------------------------------------------


def _poly_trim(c: list[ExactComplex]) -> list[ExactComplex]:
    while c and c[-1].is_zero():
        c.pop()
    return c


def _poly_divmod(a: list[ExactComplex], b: list[ExactComplex]
                 ) -> tuple[list[ExactComplex], list[ExactComplex]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return [], _poly_trim(rem)
    quot = [ZERO] * (dq + 1)
    lead = b[-1]
    for k in range(dq, -1, -1):
        coef = rem[k + len(b) - 1] / lead
        quot[k] = coef
        if not coef.is_zero():
            for i in range(len(b)):
                rem[k + i] = rem[k + i] - coef * b[i]
    return _poly_trim(quot), _poly_trim(rem[: len(b) - 1])


def _poly_gcd(a: list[ExactComplex], b: list[ExactComplex]) -> list[ExactComplex]:
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_derivative(a: list[ExactComplex]) -> list[ExactComplex]:
    return _poly_trim([ExactComplex(i) * c for i, c in enumerate(a)][1:])


def _poly_sub(a: list[ExactComplex], b: list[ExactComplex]) -> list[ExactComplex]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else ZERO) - (b[i] if i < len(b) else ZERO)
           for i in range(n)]
    return _poly_trim(out)


def square_free_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition p = prod f_i^i with each monic f_i square-free.

    Exact over the Gaussian rationals, so multiplicities are certain.
    """
    coeffs = list(p.coefficients)
    if len(coeffs) <= 1:
        return []
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    deriv = _poly_derivative(coeffs)
    g = _poly_gcd(coeffs, deriv)
    if len(g) <= 1:
        return [(Polynomial(coeffs), 1)]
    w, _ = _poly_divmod(coeffs, g)
    y, _ = _poly_divmod(deriv, g)
    z = _poly_sub(y, _poly_derivative(w))
    out = []
    i = 1
    while len(w) > 1:
        f = _poly_gcd(w, z)
        if len(f) > 1:
            out.append((Polynomial(f), i))
        w, _ = _poly_divmod(w, f)
        y, _ = _poly_divmod(z, f)
        z = _poly_sub(y, _poly_derivative(w))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

# Fixed irrational angular offset for the initial root configuration; breaks
# the symmetry that would otherwise stall polynomials like x^n - c.
_START_ANGLE = 1.0 / math.sqrt(2.0)

_MAX_SWEEPS = 1000


def _re_im(z: complex) -> tuple[float, float]:
    return z.real, z.imag


def _horner_with_derivative(coeffs: Sequence[complex], x: complex) -> tuple[complex, complex]:
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def poly_roots(p: Polynomial, tol: float = 1e-12) -> list[complex]:
    """All complex roots (with multiplicity) by simultaneous Aberth iteration.

    The polynomial is first split into exact square-free factors, so the
    iteration only ever chases simple roots; multiplicities come from the
    exact decomposition, never from float clustering. Each factor starts
    from a deterministic circle of radius 1 + max|c_i|/|lead| and refines
    until every residual |p(z)| / (1 + |lead| |z|^deg) drops below ``tol``.
    Raises RootConvergenceError after the sweep cap instead of silently
    returning unconverged values. Output is sorted by (re, im).
    """
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not all(cmath.isfinite(c.to_complex()) for c in p.coefficients):
        raise ValueError("coefficients overflow double precision")
    roots: list[complex] = []
    for factor, multiplicity in square_free_factors(p):
        roots.extend(_aberth_simple(factor, tol) * multiplicity)
    return sorted(roots, key=_re_im)


def _aberth_simple(p: Polynomial, tol: float) -> list[complex]:
    """Aberth iteration on a polynomial known to have simple roots.

    Coefficients are rescaled by their largest magnitude first (roots are
    unchanged), so the residual criterion is relative to the coefficient
    norm and stays reachable for ill-scaled inputs.
    """
    coeffs = [c.to_complex() for c in p.coefficients]
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    if lead == 0 or not all(cmath.isfinite(c) for c in coeffs):
        raise ValueError("coefficients overflow double precision")
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]

    radius = 1.0 + max(abs(c) for c in coeffs) / abs(lead)
    biggest = max(abs(c) for c in coeffs)
    coeffs = [c / biggest for c in coeffs]
    lead = coeffs[-1]
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / deg + _START_ANGLE))
         for k in range(deg)]
    alead = abs(lead)

    def residual(zi: complex, pz: complex) -> float:
        return abs(pz) / (1.0 + alead * abs(zi) ** deg)

    polish_left = 25
    converged = False
    for _ in range(_MAX_SWEEPS + polish_left):
        done = True
        max_step = 0.0
        for i in range(deg):
            pz, dpz = _horner_with_derivative(coeffs, z[i])
            if residual(z[i], pz) >= tol:
                done = False
            if pz == 0:
                continue
            if dpz == 0:
                # nudge off the critical point, deterministically
                z[i] *= 1.0 + 1e-8
                pz, dpz = _horner_with_derivative(coeffs, z[i])
                if dpz == 0:
                    z[i] += 1e-8
                    continue
            newton = pz / dpz
            s = 0j
            for j in range(deg):
                if j != i:
                    d = z[i] - z[j]
                    if d == 0:
                        d = 1e-14
                    s += 1.0 / d
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            z[i] -= step
            rel = abs(step) / (1.0 + abs(z[i]))
            if rel > max_step:
                max_step = rel
        if done:
            converged = True
            # a few extra sweeps polish simple roots toward machine
            # precision; the residual criterion alone can leave larger
            # position error where the derivative is small
            if max_step < 1e-14 or polish_left == 0:
                return z
            polish_left -= 1
    if converged:
        return z
    worst = max(residual(zi, _horner_with_derivative(coeffs, zi)[0]) for zi in z)
    raise RootConvergenceError(
        f"root iteration did not reach tol={tol} after {_MAX_SWEEPS} sweeps "
        f"(worst residual {worst:.3e})")


def match_roots(found: Sequence[complex], expected: Sequence[complex]) -> float:
    """Minimum over pairings of the largest |found_i - expected_sigma(i)|.

    Two multisets that are equal once sorted by (re, im) match at 0.0
    without a search; otherwise the assignment is exact, by bitmask DP,
    intended for the small root multisets produced here (degree <= ~20).
    """
    n = len(expected)
    if len(found) != n:
        raise ValueError("root multisets differ in size")
    if sorted(found, key=_re_im) == sorted(expected, key=_re_im):
        return 0.0
    dist = [[abs(f - e) for e in expected] for f in found]
    full = (1 << n) - 1
    best = {0: 0.0}
    for i in range(n):
        nxt: dict[int, float] = {}
        for mask, cost in best.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                m2 = mask | bit
                c2 = max(cost, dist[i][j])
                if c2 < nxt.get(m2, math.inf):
                    nxt[m2] = c2
        best = nxt
    return best[full]
