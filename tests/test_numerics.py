import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import series_div_naive
from spinmix.errors import SeriesDivisionError
from spinmix.numerics import (ExactComplex, Polynomial, PowerSeries,
                              match_roots, parse_scalar, poly_roots,
                              series_div, series_invert, square_free_factors)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10)
exacts = st.builds(ExactComplex, rationals, rationals)
nonzero_exacts = exacts.filter(lambda x: not x.is_zero())


@st.composite
def series_pairs(draw):
    """(num, den) with valuations 0-2 and a complex, non-unit leading
    coefficient of den; a series may be zero through its order."""
    def series(lead):
        order = draw(st.integers(0, 6))
        coeffs = [0] * draw(st.integers(0, 2)) + [lead] + draw(st.lists(exacts, max_size=6))
        return PowerSeries(coeffs[:order] + [0] * (order - len(coeffs)))
    d0 = draw(exacts.filter(lambda x: not x.is_real() and x.abs2() != 1))
    return series(draw(st.one_of(nonzero_exacts, st.just(0)))), series(d0)


class TestExactComplex:
    @given(exacts, exacts, exacts)
    @settings(max_examples=80)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_exacts)
    @settings(max_examples=80)
    def test_inverse_round_trip(self, a):
        assert (ExactComplex(1) / a) * a == ExactComplex(1)
        assert a ** -2 * a ** 2 == ExactComplex(1)

    def test_pow_zero_convention(self):
        assert ExactComplex(0) ** 0 == ExactComplex(1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ExactComplex(0.5)

    def test_division_exact(self):
        a = ExactComplex(Fraction(1, 3), Fraction(2, 7))
        b = ExactComplex(Fraction(-4, 5), Fraction(1, 2))
        assert (a / b) * b == a

    def test_parse_and_serialize(self):
        x = parse_scalar("3/2,-1/4")
        assert x == ExactComplex(Fraction(3, 2), Fraction(-1, 4))
        assert ExactComplex.from_json(x.to_json()) == x
        assert parse_scalar("7") == ExactComplex(7)

    def test_parse_zero_denominator(self):
        # a ValueError, so argparse turns it into a usage error
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    def test_abs2(self):
        assert ExactComplex(3, 4).abs2() == 25


# Independent reference for ExactComplex: a complex rational as a
# (re, im) pair of Fractions, with the textbook field operations.

def ref_mul(x, y):
    (a, b), (c, e) = x, y
    return a * c - b * e, a * e + b * c


def ref_div(x, y):
    (a, b), (c, e) = x, y
    n = c * c + e * e
    return (a * c + b * e) / n, (b * c - a * e) / n


def ref_pow(x, k):
    if k < 0:
        x, k = ref_div((Fraction(1), Fraction(0)), x), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    return f"{re}{'+' if im >= 0 else ''}{im}i"


def pair(x: ExactComplex):
    return x.re, x.im


# small denominators share values and denominators often (the equal-
# denominator and real paths); wide ones force gcd reductions
ref_rationals = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
ref_pairs = st.tuples(ref_rationals, ref_rationals | st.just(Fraction(0)))
ref_operands = st.one_of(ref_pairs, st.integers(-50, 50), ref_rationals)


def as_pair(x):
    return x if isinstance(x, tuple) else (Fraction(x), Fraction(0))


def as_exact(x):
    return ExactComplex(*x) if isinstance(x, tuple) else x


class TestExactComplexAgainstFractionPairs:
    @given(ref_pairs, ref_operands)
    @settings(max_examples=150)
    def test_ring_operations(self, x, y):
        ex, ey, py = ExactComplex(*x), as_exact(y), as_pair(y)
        assert pair(ex + ey) == pair(ey + ex) == (x[0] + py[0], x[1] + py[1])
        assert pair(ex - ey) == (x[0] - py[0], x[1] - py[1])
        assert pair(ey - ex) == (py[0] - x[0], py[1] - x[1])
        assert pair(ex * ey) == pair(ey * ex) == ref_mul(x, py)

    @given(ref_pairs, ref_operands)
    @settings(max_examples=150)
    def test_division(self, x, y):
        ex, ey, py = ExactComplex(*x), as_exact(y), as_pair(y)
        if py == (0, 0):
            with pytest.raises(ZeroDivisionError, match="division by exact zero"):
                ex / ey
        else:
            assert pair(ex / ey) == ref_div(x, py)
        if x == (0, 0):
            with pytest.raises(ZeroDivisionError, match="division by exact zero"):
                ey / ex
        else:
            assert pair(ey / ex) == ref_div(py, x)

    @given(ref_pairs, st.integers(-4, 6))
    @settings(max_examples=100)
    def test_unary_and_powers(self, x, k):
        ex = ExactComplex(*x)
        assert pair(-ex) == (-x[0], -x[1])
        assert pair(ex.conjugate()) == (x[0], -x[1])
        assert ex.abs2() == x[0] * x[0] + x[1] * x[1]
        assert isinstance(ex.abs2(), Fraction)
        assert ex.is_real() == (x[1] == 0)
        assert ex.to_complex() == complex(float(x[0]), float(x[1]))
        if k >= 0 or x != (0, 0):
            assert pair(ex ** k) == ref_pow(x, k)

    @given(ref_pairs, ref_pairs)
    @settings(max_examples=150)
    def test_equality_hash_and_text(self, x, y):
        ex, ey = ExactComplex(*x), ExactComplex(*y)
        assert (ex == ey) == (x == y)
        if x == y:
            assert hash(ex) == hash(ey)
        if x[1] == 0:
            assert ex == x[0]
        assert str(ex) == ref_str(x)
        assert ex.to_json() == {"re": str(x[0]), "im": str(x[1])}
        assert ExactComplex.from_json(ex.to_json()) == ex

    @given(ref_pairs, ref_operands, st.sampled_from(["+", "-", "*", "/", "neg"]))
    @settings(max_examples=150)
    def test_results_are_canonical(self, x, y, op):
        ex, ey = ExactComplex(*x), as_exact(y)
        if op == "/" and as_pair(y) == (0, 0):
            return
        result = {"+": lambda: ex + ey, "-": lambda: ex - ey, "*": lambda: ex * ey,
                  "/": lambda: ex / ey, "neg": lambda: -ex}[op]()
        for value in (ex, result):
            a, b, d = value._abd
            assert d > 0 and math.gcd(a, b, d) == 1

    def test_immutable(self):
        x = ExactComplex(1, 2)
        with pytest.raises(AttributeError):
            x.re = Fraction(3)
        with pytest.raises(AttributeError):
            x._abd = (3, 0, 1)


class TestPowerSeries:
    def test_invert_geometric(self):
        # 1/(1+x) = 1 - x + x^2 - x^3
        s = PowerSeries([1, 1, 0, 0])
        assert series_invert(s) == PowerSeries([1, -1, 1, -1])

    def test_invert_constant(self):
        assert series_invert(PowerSeries([2])) == PowerSeries([Fraction(1, 2)])

    def test_invert_squared_binomial(self):
        # oracle: multiply the reported inverse back and compare with 1
        s = PowerSeries([1, 2, 1])
        inv = series_invert(s)
        assert s * inv == PowerSeries([1, 0, 0])
        assert inv == PowerSeries([1, -2, 3])

    def test_invert_needs_unit(self):
        with pytest.raises(SeriesDivisionError):
            series_invert(PowerSeries([0, 1]))

    def test_div_marginal_example(self):
        # x / (1+x) = x - x^2 + x^3
        q = series_div(PowerSeries([0, 1, 0, 0]), PowerSeries([1, 1, 0, 0]))
        assert q == PowerSeries([0, 1, -1, 1])

    def test_div_valuation_cancellation(self):
        q = series_div(PowerSeries([0, 0, 1, 0]), PowerSeries([0, 1, 0, 0]))
        assert q == PowerSeries([0, 1, 0])

    def test_div_remultiplication_oracle(self):
        num = PowerSeries([0, 1, 2, 0])
        den = PowerSeries([1, 2, 0, 0])
        q = series_div(num, den)
        assert den * q == num

    def test_div_valuation_mismatch(self):
        with pytest.raises(SeriesDivisionError):
            series_div(PowerSeries([1, 0, 0]), PowerSeries([0, 1, 0]))

    def test_div_zero_denominator(self):
        with pytest.raises(SeriesDivisionError):
            series_div(PowerSeries([0, 1]), PowerSeries([0, 0]))

    @given(st.lists(rationals, min_size=1, max_size=6),
           st.lists(rationals, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_product_division_round_trip(self, a, b):
        b = [Fraction(1)] + b[1:]  # unit constant term
        n = min(len(a), len(b))
        sa, sb = PowerSeries(a[:n]), PowerSeries(b[:n])
        assert series_div(sa * sb, sb) == sa

    @given(series_pairs())
    @settings(max_examples=100)
    def test_div_matches_naive_reference(self, pair):
        num, den = pair
        try:
            want = series_div_naive(num, den)
        except SeriesDivisionError:
            with pytest.raises(SeriesDivisionError):
                series_div(num, den)
        else:
            assert series_div(num, den) == want

    def test_evaluate(self):
        s = PowerSeries([1, 2, 3])
        x = ExactComplex(Fraction(1, 2))
        assert s.evaluate(x) == ExactComplex(Fraction(11, 4))


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1

    def test_evaluate_matches_coefficients(self):
        p = Polynomial([2, -1, 3])
        x = ExactComplex(Fraction(2, 3))
        expected = (ExactComplex(2) - x + ExactComplex(3) * x * x)
        assert p.evaluate(x) == expected

    def test_square_free_factors(self):
        # (x-1)^2 (x+2)
        p = Polynomial([2, -3, 0, 1])
        factors = {m: f for f, m in square_free_factors(p)}
        assert factors[1] == Polynomial([2, 1])
        assert factors[2] == Polynomial([-1, 1])


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots(Polynomial([-1, 0, 1]))
        assert abs(roots[0] + 1) < 1e-12 and abs(roots[1] - 1) < 1e-12

    def test_unit_circle_pair(self):
        # 2x^2 + 2x + 2: roots (-1 +- i sqrt(3))/2, both modulus 1
        roots = poly_roots(Polynomial([2, 2, 2]))
        expected = [complex(-0.5, -3 ** 0.5 / 2), complex(-0.5, 3 ** 0.5 / 2)]
        assert match_roots(roots, expected) < 1e-12
        assert all(abs(abs(r) - 1) < 1e-12 for r in roots)

    def test_triple_root(self):
        roots = poly_roots(Polynomial([0, 0, 0, 1]))
        assert roots == [0j, 0j, 0j] or all(abs(r) < 1e-12 for r in roots)
        assert len(roots) == 3

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial([5]))

    def test_planted_roots_recovered(self):
        # monic degree <= 12, root moduli in [0.1, 10], recovery to 1e-9
        # after matching
        rng = random.Random(20240229)
        for _ in range(10):
            deg = rng.randint(2, 12)
            planted = []
            while len(planted) < deg:
                r = ExactComplex(Fraction(rng.randint(-40, 40), rng.randint(4, 10)),
                                 Fraction(rng.randint(-40, 40), rng.randint(4, 10)))
                m2 = float(r.abs2())
                if 0.1 ** 2 < m2 < 10 ** 2 and all(
                        float((r - s).abs2()) > 1e-4 for s in planted):
                    planted.append(r)
            coeffs = [ExactComplex(1)]
            for r in planted:
                nxt = [ExactComplex(0)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i] = nxt[i] - c * r
                    nxt[i + 1] = nxt[i + 1] + c
                coeffs = nxt
            found = poly_roots(Polynomial(coeffs), 1e-12)
            assert match_roots(found, [r.to_complex() for r in planted]) < 1e-9

    def test_deterministic(self):
        p = Polynomial([3, -2, 0, 5, 1])
        assert poly_roots(p) == poly_roots(p)


def test_match_roots_orders_do_not_matter():
    a = [1 + 1j, -2 + 0j, 0.5j]
    b = [0.5j, 1 + 1j, -2 + 0j]
    assert match_roots(a, b) == 0.0
    with pytest.raises(ValueError):
        match_roots(a, b[:2])


def _match_roots_by_dp(found, expected):
    """Bitmask-DP bottleneck assignment, as match_roots computed it before
    its equal-multiset fast path."""
    n = len(expected)
    if n == 0:
        return 0.0
    dist = [[abs(f - e) for e in expected] for f in found]
    full = (1 << n) - 1
    best = {0: 0.0}
    for i in range(n):
        nxt = {}
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


class TestMatchRoots:
    def test_shuffled_equal_multisets_match_at_zero(self):
        rng = random.Random(41)
        for n in range(0, 12):
            roots = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) / 2
                     for _ in range(n)]
            shuffled = roots[:]
            rng.shuffle(shuffled)
            assert match_roots(shuffled, roots) == 0.0
            assert match_roots(roots, shuffled) == 0.0

    def test_unequal_lists_match_the_dp(self):
        rng = random.Random(42)
        for trial in range(60):
            n = rng.randint(1, 8)
            found = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            if trial % 2:
                expected = [z + complex(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3))
                            for z in found]
                rng.shuffle(expected)
            else:
                expected = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                            for _ in range(n)]
            assert match_roots(found, expected) == _match_roots_by_dp(found, expected)
            assert match_roots(found, expected) > 0.0
