"""Exact Gaussian-rational scalars, truncated power series, polynomials, roots.

Every value this package compares or reports is an :class:`ExactComplex`,
a Gaussian rational (a + b*i)/d held as three arbitrary-precision integers
in lowest terms, so equalities are bit-exact. Its operators are the plain
field formulas, each reduced once; canonical triples make any correct formula
give the same bits. The tree pass, the enumeration folds and the square-free
split run on Gaussian-integer numerators over one denominator instead, and
reduce each value once, when it is read.
Floating point appears only in root finding and decay fitting.
"""

from __future__ import annotations

import cmath
import functools
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
        a, b, d = self._abd
        c, e, f = self._coerce(other)._abd
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._abd
        c, e, f = self._coerce(other)._abd
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        a, b, d = self._abd
        c, e, f = self._coerce(other)._abd
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._abd
        c, e, f = self._coerce(other)._abd
        if not (c or e):
            raise ZeroDivisionError("division by exact zero")
        # (a + bi)/d over (c + ei)/f: f (a + bi)(c - ei) / (d (c^2 + e^2))
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
            return ONE / self ** -k
        out, x = ONE, self
        while k:
            if k & 1:
                out = out * x
            k >>= 1
            if k:
                x = x * x
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
        a, b, d = self._abd
        if not b:
            return _ratio_text(a, d)
        return f"{_ratio_text(a, d)}{'+' if b > 0 else ''}{_ratio_text(b, d)}i"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        a, b, d = self._abd
        return {"re": _ratio_text(a, d), "im": _ratio_text(b, d)}

    @classmethod
    def from_json(cls, doc) -> "ExactComplex":
        """Parse 'p/q', a bare int, or {'re': 'p/q', 'im': 'p/q'}."""
        if isinstance(doc, dict):
            return cls(Fraction(str(doc.get("re", 0))), Fraction(str(doc.get("im", 0))))
        if isinstance(doc, (int, str, Fraction)):
            return cls(doc)
        raise TypeError(f"cannot parse complex rational from {doc!r}")


def _ratio_text(a: int, d: int) -> str:
    """str(Fraction(a, d)) for d > 0, with one gcd and no Fraction."""
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


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


def _common_numerators(coeffs: Sequence[ExactComplex]) -> tuple[list[tuple[int, int]], int]:
    """The coefficients as Gaussian integers over den, the lcm of their
    denominators, and den."""
    den = math.lcm(*[c._abd[2] for c in coeffs])
    return [(a * k, b * k) for a, b, d in (c._abd for c in coeffs) for k in [den // d]], den


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


def series_div(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """Formal quotient num/den, cancelling a shared leading x^k factor first.

    The result order shrinks by the cancelled valuation. Raises
    SeriesDivisionError when den vanishes through its order or when num has
    a smaller valuation than den (the quotient would not be a power series).
    Each coefficient comes from the recurrence
    q_i = (n_i - sum_{j>=1} d_j q_{i-j}) / d_0.
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
    ns, ds = num.coefficients, den.coefficients
    out: list[ExactComplex] = []
    for i in range(min(len(ns), len(ds))):
        acc = ns[i]
        for j in range(1, i + 1):
            acc = acc - ds[j] * out[i - j]
        out.append(acc / ds[0])
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Exact polynomial in one variable: Gaussian-integer numerators (re, im)
    over one positive denominator.

    The pair is kept canonical, trailing zero numerators trimmed and
    gcd(all numerators, den) == 1, so equal polynomials have equal pairs.
    ``coefficients`` reduces each numerator over den when it is read.
    """

    __slots__ = ("numerators", "den")

    def __init__(self, coefficients: Iterable):
        self._store(*_common_numerators([ExactComplex._coerce(c) for c in coefficients]))

    @classmethod
    def over(cls, numerators: list[tuple[int, int]], den: int) -> "Polynomial":
        """The polynomial sum_k numerators[k] x^k / den, for any den > 0."""
        p = _new(cls)
        p._store(list(numerators), den)
        return p

    def _store(self, nums: list[tuple[int, int]], den: int):
        while nums and nums[-1] == (0, 0):
            nums.pop()
        g = gcd(den, *itertools.chain.from_iterable(nums))
        if g != 1:
            nums = [(a // g, b // g) for a, b in nums]
        self.numerators, self.den = tuple(nums), den // g

    @property
    def coefficients(self) -> tuple[ExactComplex, ...]:
        return tuple(_reduced(a, b, self.den) for a, b in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.den == other.den
                and self.numerators == other.numerators)

    def __hash__(self):
        return hash((self.numerators, self.den))

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coefficients)}])"

    def evaluate(self, x: ExactComplex) -> ExactComplex:
        out = ZERO
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def evaluate_complex(self, x: complex) -> complex:
        # int / int rounds correctly, so each term is its coefficient's to_complex
        d = self.den
        out = 0j
        for a, b in reversed(self.numerators):
            out = out * x + complex(a / d, b / d)
        return out

    def valuation(self) -> int | None:
        for i, c in enumerate(self.numerators):
            if c != (0, 0):
                return i
        return None

    def shifted_down(self, k: int) -> "Polynomial":
        return Polynomial.over(self.numerators[k:], self.den)


# ---------------------------------------------------------------------------
# Square-free split on Gaussian-integer coefficient vectors
# ---------------------------------------------------------------------------


def _gdiv(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x / y for Gaussian integers with y | x."""
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) // n, (b * c - a * d) // n


def _gcd(a: list, b: list) -> list:
    """A Gaussian-integer multiple of gcd(a, b), a != 0, by the subresultant
    remainder sequence (Collins 1967; Brown and Traub 1971): each step's
    pseudo-remainder, delta + 1 rounds r = lc(b) r - t x^k b with t the top of
    r, divides exactly by g h^delta, and h becomes h^(1-delta) g^delta."""
    if len(a) < len(b):
        a, b = b, a
    g = h = (1, 0)
    while b:
        delta = len(a) - len(b)
        (lr, li), low, r = b[-1], b[:-1], a
        for k in range(delta, -1, -1):
            tr, ti = r[-1]
            r = [(lr * xr - li * xi - tr * br + ti * bi, lr * xi + li * xr - tr * bi - ti * br)
                 for (xr, xi), (br, bi) in zip(r[:-1], [(0, 0)] * k + low)]
        while r and r[-1] == (0, 0):
            r.pop()
        if len(r) <= 1:
            return r or b
        hd = functools.reduce(_gmul, [h] * delta, (1, 0))
        dr, di = d = _gmul(g, hd)
        if d != (1, 0):
            n = dr * dr + di * di
            r = [((x * dr + y * di) // n, (y * dr - x * di) // n) for x, y in r]
        a, b, g = b, r, b[-1]
        h = g if delta == 1 else _gdiv(functools.reduce(_gmul, [g] * delta, h), hd)
    return a


def _quo(a: list, b: list, s: int) -> list:
    """s a / b, for b with a positive integer lead and s with b | s a."""
    r, q, lead = [(s * x, s * y) for x, y in a], [], b[-1][0]
    for k in range(len(a) - len(b), -1, -1):
        xr, xi = r.pop()
        tr, ti = t = xr // lead, xi // lead
        q.append(t)
        for j, (br, bi) in enumerate(b[:-1], k):
            xr, xi = r[j]
            r[j] = (xr - tr * br + ti * bi, xi - tr * bi - ti * br)
    return q[::-1]


def _primitive(a: list) -> list:
    """a over its integer content, times conj(lc(a)): a positive integer lead."""
    lr, li = a[-1]
    a = [(x * lr + y * li, y * lr - x * li) for x, y in a]
    c = gcd(*itertools.chain.from_iterable(a))
    return [(x // c, y // c) for x, y in a]


def _derivative(a: list) -> list:
    return [(k * x, k * y) for k, (x, y) in enumerate(a)][1:]


def _monic(a: list) -> Polynomial:
    """a / lc(a) for an a with a positive integer lead."""
    return Polynomial.over(a, a[-1][0])


# A prime p = 1 (mod 4) below 2^30, so that its residues are one-digit ints,
# and a square root of -1 modulo it: 3 generates the units mod p, so
# 3^((p - 1)/4) has order 4.
_PRIME = 998244353
_I_MOD = pow(3, (_PRIME - 1) // 4, _PRIME)


def _coprime_mod_prime(w: list) -> bool:
    """Whether w and w' have a constant gcd modulo _PRIME, i sent to _I_MOD,
    with neither lead vanishing there: a certificate that gcd(w, w') is
    constant over Q(i) (the one-prime test of Brown 1971)."""
    p = _PRIME
    a = [(x + y * _I_MOD) % p for x, y in w]
    b = [k * c % p for k, c in enumerate(a)][1:]
    if not a[-1] or not b[-1]:
        return False
    # Euclid over Z/p: a mod b by the monic b, until b is a constant or zero
    while len(b) > 1:
        t = pow(b[-1], -1, p)
        low = [c * t % p for c in b[:-1]]
        r = a[:]
        for k in range(len(a) - len(b), -1, -1):
            q = r.pop()
            if q:
                for j, c in enumerate(low, k):
                    r[j] = (r[j] - q * c) % p
        while r and not r[-1]:
            r.pop()
        if not r:
            return False
        a, b = b, r
    return True


def square_free_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition p = c prod f_i^i with each monic f_i square-free.

    Exact: it runs on p's Gaussian-integer numerators over one denominator,
    with subresultant gcds and exact divisions, so multiplicities are
    certain. Each gcd a gets a positive integer lead L, and Yun's pair (w, z)
    is divided by it at once, both times L^k to keep the quotients integral
    and then over their joint integer content, so the ratio stays the same.

    Most field polynomials are square-free, and a gcd modulo one prime
    proves it first. Reduction modulo p = _PRIME = 998244353 (p = 1 mod 4),
    with i sent to a square root of -1 mod p, is a ring map from Z[i] onto
    Z/p. If g is the primitive gcd of w and w' in Z[i][x], it divides both
    there, and so its image divides both images. When w's lead survives the
    map, g's lead does too, so the image has g's degree. A constant gcd of
    the images (with both leads surviving) thus makes g constant, and w is
    returned as the one factor at once. In every other case, including a
    lead divisible by p, the subresultant route below decides.
    """
    if p.degree < 1:
        return []
    w = _primitive(list(p.numerators))
    if _coprime_mod_prime(w):
        return [(_monic(w), 1)]
    z = _derivative(w)
    a = _primitive(_gcd(w, z))
    out, i = [], 0
    while True:
        s = a[-1][0] ** (len(w) - len(a) + 1)
        w, y = _quo(w, a, s), _quo(z, a, s)
        c = gcd(*itertools.chain.from_iterable(w + y))
        w = [(x // c, v // c) for x, v in w]
        i += 1
        if len(w) == 1:
            return out
        z = [(x // c - u, v // c - t) for (x, v), (u, t)
             in itertools.zip_longest(y, _derivative(w), fillvalue=(0, 0))]
        while z and z[-1] == (0, 0):
            z.pop()
        a = _primitive(_gcd(w, z))
        if len(a) > 1:
            out.append((_monic(a), i))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

# Fixed irrational angular offset for the initial root configuration; breaks
# the symmetry that would otherwise stall polynomials like x^n - c.
_START_ANGLE = 1.0 / math.sqrt(2.0)

_MAX_SWEEPS = 1000
_ROOT_TOL = 1e-12


def _re_im(z: complex) -> tuple[float, float]:
    return z.real, z.imag


def _horner_with_derivative(coeffs: Sequence[complex], x: complex) -> tuple[complex, complex]:
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def poly_roots(p: Polynomial) -> list[complex]:
    """All complex roots (with multiplicity) by simultaneous Aberth iteration.

    The polynomial is first split into exact square-free factors, so the
    iteration only ever chases simple roots; multiplicities come from the
    exact decomposition, never from float clustering. Each factor starts
    from a deterministic circle of radius 1 + max|c_i|/|lead| and refines
    until every residual |p(z)| / (1 + |lead| |z|^deg) drops below _ROOT_TOL.
    Raises ValueError when a monic factor's coefficient overflows a double,
    and RootConvergenceError after the sweep cap instead of silently
    returning unconverged values. Output is sorted by (re, im).
    """
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    roots: list[complex] = []
    for factor, multiplicity in square_free_factors(p):
        roots.extend(_aberth_simple(factor) * multiplicity)
    return sorted(roots, key=_re_im)


def _aberth_simple(p: Polynomial) -> list[complex]:
    """Aberth iteration on a monic polynomial known to have simple roots.

    Each float coefficient is a numerator over p.den: int / int rounds
    correctly, so it is the reduced coefficient's to_complex. Coefficients
    are rescaled by their largest magnitude first (roots are unchanged), so
    the residual criterion is relative to the coefficient norm and stays
    reachable for ill-scaled inputs.
    """
    den = p.den
    try:
        coeffs = [complex(a / den, b / den) for a, b in p.numerators]
    except OverflowError:
        raise ValueError("coefficients overflow double precision") from None
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]

    biggest = max(abs(c) for c in coeffs)
    radius = 1.0 + biggest / abs(lead)
    coeffs = [c / biggest for c in coeffs]
    rev = coeffs[::-1]
    alead = abs(coeffs[-1])
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / deg + _START_ANGLE))
         for k in range(deg)]

    polish_left = 25
    converged = False
    for _ in range(_MAX_SWEEPS + polish_left):
        done = True
        max_step = 0.0
        for i in range(deg):
            zi = z[i]
            pz = dpz = 0j
            for c in rev:
                dpz = dpz * zi + pz
                pz = pz * zi + c
            # the residual and the step size only matter in a sweep whose
            # roots have all passed the residual test so far
            if done and abs(pz) / (1.0 + alead * abs(zi) ** deg) >= _ROOT_TOL:
                done = False
            if pz == 0:
                continue
            if dpz == 0:
                # nudge off the critical point, deterministically
                z[i] = zi = zi * (1.0 + 1e-8)
                pz, dpz = _horner_with_derivative(coeffs, zi)
                if dpz == 0:
                    z[i] = zi + 1e-8
                    continue
            newton = pz / dpz
            s = 0j
            for j in range(deg):
                if j != i:
                    d = zi - z[j]
                    if d == 0:
                        d = 1e-14
                    s += 1.0 / d
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            z[i] = zi = zi - step
            if done:
                rel = abs(step) / (1.0 + abs(zi))
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
    worst = max(abs(_horner_with_derivative(coeffs, zi)[0]) / (1.0 + alead * abs(zi) ** deg)
                for zi in z)
    raise RootConvergenceError(
        f"root iteration did not reach tol={_ROOT_TOL} after {_MAX_SWEEPS} sweeps "
        f"(worst residual {worst:.3e})")


def match_roots(found: Sequence[complex], expected: Sequence[complex]) -> float:
    """Minimum over pairings of the largest |found_i - expected_sigma(i)|.

    The assignment is exact, by bitmask DP, intended for small root
    multisets (degree <= ~20).
    """
    n = len(expected)
    if len(found) != n:
        raise ValueError("root multisets differ in size")
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
