import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (_poly_gcd, aberth_reference, corpus_config, root_bits, series_div_naive,
                      square_free_reference)
from spinmix import cli, numerics
from spinmix.errors import RootConvergenceError, SeriesDivisionError
from spinmix.graphs import Graph, Pinning
from spinmix.numerics import (ExactComplex, Polynomial, PowerSeries, _common_numerators, _gcd,
                              _reduced, match_roots, parse_scalar, poly_roots,
                              series_div, square_free_factors)
from spinmix.partition import eliminate_pins, z_poly_lambda

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


# small denominators share values and denominators often, so results reduce
# a lot or land on zero; wide ones force gcd reductions of large integers
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

    # |k| up to 40 takes every branch of square and multiply over 6 bits of k
    @given(ref_pairs, st.integers(-40, 40))
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
            # the triple comes out canonical
            assert (ex ** k)._abd == ExactComplex(*ref_pow(x, k))._abd
        else:
            with pytest.raises(ZeroDivisionError, match="division by exact zero"):
                ex ** k

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

    def test_text_from_the_triple_matches_fraction_text(self):
        # str and to_json format each part from the triple with one gcd
        rng = random.Random(60)
        for trial in range(3000):
            bits = rng.choice((1, 8, 70))
            a, b = (rng.randint(-2 ** bits, 2 ** bits) for _ in range(2))
            a = 0 if trial % 7 == 0 else a
            b = 0 if trial % 3 == 0 else b
            d = 1 if trial % 4 == 0 else rng.randint(1, 2 ** bits)
            x, re, im = _reduced(a, b, d), Fraction(a, d), Fraction(b, d)
            if im:
                assert str(x) == f"{re}{'+' if im > 0 else ''}{im}i"
                assert repr(x) == f"ExactComplex({str(re)!r}, {str(im)!r})"
            else:
                assert str(x) == str(re) and repr(x) == f"ExactComplex({str(re)!r})"
            assert x.to_json() == {"re": str(re), "im": str(im)}

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
        assert series_div(PowerSeries([1, 0, 0, 0]), s) == PowerSeries([1, -1, 1, -1])

    def test_invert_constant(self):
        assert series_div(PowerSeries([1]), PowerSeries([2])) == PowerSeries([Fraction(1, 2)])

    def test_invert_squared_binomial(self):
        # oracle: multiply the reported inverse back and compare with 1
        s = PowerSeries([1, 2, 1])
        inv = series_div(PowerSeries([1, 0, 0]), s)
        assert s * inv == PowerSeries([1, 0, 0])
        assert inv == PowerSeries([1, -2, 3])

    def test_invert_needs_unit(self):
        with pytest.raises(SeriesDivisionError):
            series_div(PowerSeries([1, 0]), PowerSeries([0, 1]))

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

    def test_square_free_k2_double_root(self):
        # Z of K2 at beta = 2, gamma = 1/2 is 2 (lambda + 1/2)^2
        p = z_poly_lambda(Graph(2, ((0, 1),)), Pinning(), 2, Fraction(1, 2))
        assert p == Polynomial([Fraction(1, 2), 2, 2])
        assert square_free_factors(p) == [(Polynomial([Fraction(1, 2), 1]), 2)]
        assert square_free_factors(p) == square_free_reference(p)

    def test_subresultant_gcd_matches_euclid(self):
        # Knuth's example: a remainder sequence of degrees 8, 6, 4, 2, 1, 0
        a = [-5, 2, 8, -3, -3, 0, 1, 0, 1]
        b = [21, -9, -4, 0, 5, 0, 3]
        assert len(_gcd([(c, 0) for c in a], [(c, 0) for c in b])) == 1
        # sparse Gaussian pairs with a shared factor, of equal degree or with
        # degree gaps in the remainder sequence
        rng = random.Random(7)

        def sparse(degree):
            out = [ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3))
                   if rng.random() < 0.5 else ExactComplex(0) for _ in range(degree)]
            return out + [ExactComplex(rng.randint(1, 3), rng.randint(-3, 3))]

        for _ in range(200):
            shared = sparse(rng.randint(0, 3))
            a = _mul(shared, sparse(rng.randint(0, 6)))
            b = _mul(shared, sparse(rng.randint(0, 6)))
            g = _gcd(_common_numerators(a)[0], _common_numerators(b)[0])
            lead = ExactComplex(*g[-1])
            monic = [ExactComplex(*c) / lead for c in g]
            assert monic == _poly_gcd(a, b)

    def test_square_free_matches_reference(self):
        # the integer split against the ExactComplex Yun it replaced
        repeated = 0
        for p in seeded_polynomials(16, 400):
            factors = square_free_factors(p)
            assert factors == square_free_reference(p), p
            repeated += any(m > 1 for _, m in factors)
        assert repeated >= 150

    def test_proportional_numerators_are_one_polynomial(self):
        a = Polynomial.over([(2, 0), (4, -6), (0, 0)], 6)
        assert (a.numerators, a.den) == (((1, 0), (2, -3)), 3)
        assert a == Polynomial([Fraction(1, 3), ExactComplex(Fraction(2, 3), -1)])
        rng = random.Random(24)
        for _ in range(200):
            den = rng.randint(1, 60)
            nums = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(rng.randint(0, 6))]
            k = rng.choice([2, 3, 10, 7 ** 20])
            p = Polynomial.over(nums, den)
            q = Polynomial.over([(x * k, y * k) for x, y in nums], den * k)
            assert p == q and hash(p) == hash(q)
            assert math.gcd(p.den, *itertools.chain.from_iterable(p.numerators)) == 1

    def test_coefficients_are_the_reduced_values(self):
        rng = random.Random(25)
        for _ in range(200):
            den = rng.randint(1, 60) * rng.choice([1, 1, 6, 10 ** 30])
            nums = [(rng.randint(-50, 50) * rng.choice([1, 6]), rng.randint(-50, 50))
                    for _ in range(rng.randint(0, 6))]
            want = [ExactComplex(Fraction(x, den), Fraction(y, den)) for x, y in nums]
            while want and want[-1].is_zero():
                want.pop()
            p = Polynomial.over(nums, den)
            assert p.coefficients == tuple(want)
            assert p == Polynomial(want) and p.degree == len(want) - 1

    def test_evaluate_complex_is_the_per_coefficient_horner(self):
        rng = random.Random(26)
        for p in seeded_polynomials(27, 200):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            want = 0j
            for c in reversed(p.coefficients):
                want = want * x + c.to_complex()
            assert root_bits([p.evaluate_complex(x)]) == root_bits([want])


def seeded_polynomials(seed: int, count: int):
    """``count`` seeded polynomials of degree <= 12, real or Gaussian
    rational, every other one a product with forced repeated factors."""
    rng = random.Random(seed)

    def coefficient(gaussian):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if gaussian else 0
        return ExactComplex(re, im)

    for trial in range(count):
        gaussian = trial % 4 >= 2
        if trial % 2 == 0:
            coeffs = [coefficient(gaussian) for _ in range(rng.randint(1, 13))]
        else:
            coeffs = [coefficient(gaussian) or ExactComplex(1)]
            while True:
                factor = [coefficient(gaussian) for _ in range(rng.randint(2, 4))]
                factor[-1] = factor[-1] or ExactComplex(1)
                power = rng.randint(2, 4) if len(coeffs) == 1 else rng.randint(1, 4)
                if len(coeffs) + power * (len(factor) - 1) > 13:
                    break
                for _ in range(power):
                    coeffs = _mul(coeffs, factor)
        yield Polynomial(coeffs)


def _mul(a: list[ExactComplex], b: list[ExactComplex]) -> list[ExactComplex]:
    out = [ExactComplex(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def planted_polynomials() -> list[tuple[list[ExactComplex], list[ExactComplex]]]:
    """Ten seeded (roots, monic coefficients) pairs: degree 2 to 12, distinct
    complex rational roots of modulus in (0.1, 10)."""
    rng = random.Random(20240229)
    out = []
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
        out.append((planted, coeffs))
    return out


def annulus_field_polynomials():
    """Every field polynomial of the annulus corpora at seeds 0-5, degree
    bounds 3 and 4: the pinned polynomial and the pin-eliminated one of each
    instance, each over its lowest nonzero power."""
    for seed in range(6):
        for bound in (["--degree-bound", "3"], ["--degree-bound", "4", "--max-vertices", "9"]):
            cfg = corpus_config(["annulus", "--seed", str(seed), *bound])
            rng = random.Random(seed)
            for trial in range(cfg.trials):
                inst = cli._gen_annulus(cfg, rng, trial)
                g, pins, beta = inst["graph"], inst["pins"], inst["beta"]
                reduced, rescaled, _ = eliminate_pins(g, pins, beta, (ExactComplex(1),) * g.n)
                for p in (z_poly_lambda(g, pins, beta, beta),
                          z_poly_lambda(reduced, Pinning(), beta, beta, scale=rescaled)):
                    if p.degree >= 1:
                        yield p.shifted_down(p.valuation())


class TestSquareFreeCertificate:
    """The one-prime coprimality test ahead of the subresultant route."""

    @staticmethod
    def counted_gcd(monkeypatch) -> list:
        calls = []

        def gcd(a, b):
            calls.append(1)
            return _gcd(a, b)

        monkeypatch.setattr(numerics, "_gcd", gcd)
        return calls

    def test_prime_and_square_root_of_minus_one(self):
        p = numerics._PRIME
        assert p % 4 == 1 and p < 2 ** 30
        assert all(p % k for k in range(2, math.isqrt(p) + 1))
        assert numerics._I_MOD ** 2 % p == p - 1

    def test_annulus_field_polynomials(self, monkeypatch):
        calls = self.counted_gcd(monkeypatch)
        certified = total = 0
        for p in annulus_field_polynomials():
            before = len(calls)
            factors = square_free_factors(p)
            assert factors == square_free_reference(p), p
            # the certificate returns without a gcd, and only for square-free p
            if len(calls) == before:
                certified += 1
                assert len(factors) == 1 and factors[0][1] == 1
            total += 1
        assert total >= 1000 and certified >= 0.8 * total

    def test_planted_repeated_factors(self, monkeypatch):
        calls = self.counted_gcd(monkeypatch)
        rng = random.Random(26)

        def poly(degree):
            out = [ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * rng.randint(0, 1))
                   for _ in range(degree)]
            return out + [ExactComplex(rng.randint(1, 9), rng.randint(-9, 9))]

        for _ in range(300):
            f, g = poly(rng.randint(1, 3)), poly(rng.randint(0, 4))
            coeffs = g
            for _ in range(rng.randint(2, 4)):
                coeffs = _mul(coeffs, f)
            p = Polynomial(coeffs)
            before = len(calls)
            factors = square_free_factors(p)
            assert len(calls) > before
            assert any(m > 1 for _, m in factors)
            assert factors == square_free_reference(p), p

    @pytest.mark.parametrize("coeffs", [
        # the lead vanishes modulo the prime P, and so does the derivative's
        [1, 1, numerics._PRIME],
        [(2, 3), (0, -1), (5, 0), (numerics._PRIME, 0)],
        # leads survive, but the roots 0 and P meet modulo P
        [0, -numerics._PRIME, 1],
    ], ids=["real-lead", "gaussian-lead", "roots-meet"])
    def test_fallback_when_the_prime_cannot_decide(self, coeffs, monkeypatch):
        calls = self.counted_gcd(monkeypatch)
        p = Polynomial([ExactComplex(*c) if isinstance(c, tuple) else c for c in coeffs])
        factors = square_free_factors(p)
        assert calls and factors == square_free_reference(p)
        assert len(factors) == 1 and factors[0][1] == 1

    def test_yun_alone_without_the_certificate(self, monkeypatch):
        # a square-free polynomial the certificate would have returned runs
        # the whole Yun loop, which ends with the same one factor
        monkeypatch.setattr(numerics, "_coprime_mod_prime", lambda w: False)
        square_free = 0
        for p in itertools.chain(seeded_polynomials(29, 300),
                                 itertools.islice(annulus_field_polynomials(), 300)):
            factors = square_free_factors(p)
            assert factors == square_free_reference(p), p
            square_free += len(factors) == 1 and factors[0][1] == 1
        assert square_free >= 300


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
        for planted, coeffs in planted_polynomials():
            found = poly_roots(Polynomial(coeffs))
            assert match_roots(found, [r.to_complex() for r in planted]) < 1e-9

    def test_deterministic(self):
        p = Polynomial([3, -2, 0, 5, 1])
        assert poly_roots(p) == poly_roots(p)

    def test_matches_the_reference_route_bit_for_bit(self):
        # the floats of the ExactComplex route, on 400 seeded polynomials,
        # half of them with repeated factors
        solved = 0
        for p in seeded_polynomials(28, 400):
            if p.degree < 1:
                continue
            try:
                want = aberth_reference(p)
            except RootConvergenceError:
                with pytest.raises(RootConvergenceError):
                    poly_roots(p)
                continue
            assert root_bits(poly_roots(p)) == root_bits(want), p
            solved += 1
        assert solved >= 350

    def test_overflowing_coefficients_with_a_representable_factor(self):
        # 10^400 (x - 1): the monic factor x - 1 that Aberth iterates on fits
        assert poly_roots(Polynomial([-10 ** 400, 10 ** 400])) == [1]

    def test_overflowing_monic_factor_rejected(self):
        with pytest.raises(ValueError, match="coefficients overflow double precision"):
            poly_roots(Polynomial([10 ** 400, 1]))


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


def _golden_cases() -> dict[str, list]:
    def x(re, im=0):
        return ExactComplex(Fraction(re), Fraction(im))
    repeated = _mul(_mul([-1, 1], [-1, 1]), [2, 1])
    for _ in range(3):
        repeated = _mul(repeated, [1, 1, 1])
    cases = {
        "degree1": [3, 2],
        "degree1_complex": [x("1/2", 3), x(0, "-2/3")],
        "complex": [x(1, 2), x(-3, "1/2"), 1, x(0, 1)],
        # (x - 1)^2 (x + 2) (x^2 + x + 1)^3
        "repeated": repeated,
        "degree12": [5, -3, 0, 7, 1, -2, 0, 0, 4, -1, 3, 0, 2],
        "quadratic": [-1, 0, 1],
        "unit_circle_pair": [2, 2, 2],
        "triple_root": [0, 0, 0, 1],
        "deterministic": [3, -2, 0, 5, 1],
        # Z of K2 at beta = 2, gamma = 1/2: 2 (lambda + 1/2)^2
        "k2_beta2_gamma_half": [Fraction(1, 2), 2, 2],
    }
    for i, (_, coeffs) in enumerate(planted_polynomials()):
        cases[f"planted{i}"] = coeffs
    return cases


# float.hex of every (re, im) poly_roots returned for the cases above, as the
# Aberth sweep computed them before its loop was inlined; a rewrite of the
# sweep must keep every float operation and its order
GOLDEN_ROOTS = {
    'degree1': [
        ('-0x1.8000000000000p+0', '0x0.0p+0'),
    ],
    'degree1_complex': [
        ('0x1.2000000000000p+2', '-0x1.8000000000000p-1'),
    ],
    'complex': [
        ('-0x1.2e1b781f9c84cp+0', '0x1.8e721eba5058dp+0'),
        ('0x1.47173c07cddd9p-3', '0x1.623b6b555f097p-1'),
        ('0x1.0538909ea2c91p+0', '-0x1.3f8fd464ffdd9p+0'),
    ],
    'repeated': [
        ('-0x1.0000000000000p+1', '0x0.0p+0'),
        ('-0x1.0000000000000p-1', '-0x1.bb67ae8584cabp-1'),
        ('-0x1.0000000000000p-1', '-0x1.bb67ae8584cabp-1'),
        ('-0x1.0000000000000p-1', '-0x1.bb67ae8584cabp-1'),
        ('-0x1.0000000000000p-1', '0x1.bb67ae8584cabp-1'),
        ('-0x1.0000000000000p-1', '0x1.bb67ae8584cabp-1'),
        ('-0x1.0000000000000p-1', '0x1.bb67ae8584cabp-1'),
        ('0x1.0000000000000p+0', '-0x0.0p+0'),
        ('0x1.0000000000000p+0', '-0x0.0p+0'),
    ],
    'degree12': [
        ('-0x1.c88a526e086edp-1', '-0x1.1ca49fcdef063p-2'),
        ('-0x1.c88a526e086edp-1', '0x1.1ca49fcdef063p-2'),
        ('-0x1.898d337517299p-1', '-0x1.eebd4454a28d5p-1'),
        ('-0x1.898d337517299p-1', '0x1.eebd4454a28d4p-1'),
        ('-0x1.6b7c70cced899p-2', '0x1.488c6394d78afp+0'),
        ('-0x1.6b7c70cced898p-2', '-0x1.488c6394d78afp+0'),
        ('0x1.e129144b3cdc8p-2', '0x1.4744c37544badp-1'),
        ('0x1.e129144b3cdc9p-2', '-0x1.4744c37544baep-1'),
        ('0x1.3732276ec31f6p-1', '-0x1.1f573df0e0e5ap+0'),
        ('0x1.3732276ec31f6p-1', '0x1.1f573df0e0e5ap+0'),
        ('0x1.e00f0cb534cf7p-1', '-0x1.92dc8e193628cp-2'),
        ('0x1.e00f0cb534cf7p-1', '0x1.92dc8e193628cp-2'),
    ],
    'quadratic': [
        ('-0x1.0000000000000p+0', '0x0.0p+0'),
        ('0x1.0000000000000p+0', '0x0.0p+0'),
    ],
    'unit_circle_pair': [
        ('-0x1.0000000000000p-1', '-0x1.bb67ae8584cabp-1'),
        ('-0x1.0000000000000p-1', '0x1.bb67ae8584cabp-1'),
    ],
    'triple_root': [
        ('-0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '0x0.0p+0'),
        ('-0x0.0p+0', '0x0.0p+0'),
    ],
    'deterministic': [
        ('-0x1.3901e68a8d004p+2', '-0x1.2713300000000p-158'),
        ('-0x1.19d0a5e778ddcp+0', '0x0.0p+0'),
        ('0x1.fbb0802359bd7p-2', '-0x1.1db7246f2b958p-1'),
        ('0x1.fbb0802359bd7p-2', '0x1.1db7246f2b958p-1'),
    ],
    'k2_beta2_gamma_half': [
        ('-0x1.0000000000000p-1', '0x0.0p+0'),
        ('-0x1.0000000000000p-1', '0x0.0p+0'),
    ],
    'planted0': [
        ('-0x1.3333333333333p+1', '0x1.a000000000000p+0'),
        ('-0x1.9fffffffffffdp+0', '0x1.0ccccccccccccp+1'),
        ('0x1.9ffffffffffe0p+1', '-0x1.38e38e38e3902p+0'),
        ('0x1.aaaaaaaaaaac8p+1', '-0x1.8e38e38e38de7p+0'),
        ('0x1.e38e38e38e38fp+1', '-0x1.ffffffffffff8p+1'),
        ('0x1.0000000000001p+2', '0x1.db6db6db6db69p+0'),
        ('0x1.7fffffffffff7p+2', '-0x1.4924924924921p+2'),
    ],
    'planted1': [
        ('-0x1.b6db6db6db6d0p-1', '-0x1.4000000000002p+2'),
        ('0x1.6666666666666p-1', '-0x1.eaaaaaaaaaaaap+1'),
        ('0x1.999999999999ap+0', '0x1.8000000000000p+2'),
    ],
    'planted2': [
        ('-0x1.3ffffffffffffp+1', '-0x1.6492492492491p+2'),
        ('-0x1.c71c71c71c6f0p-3', '-0x1.a000000000002p+2'),
        ('0x1.b8e38e38e38e4p+1', '0x1.4000000000000p+2'),
    ],
    'planted3': [
        ('-0x1.1555555555555p+2', '0x1.4000000000000p+2'),
        ('-0x1.e666666666666p+0', '-0x1.3555555555556p+2'),
        ('0x1.9999999999987p-2', '-0x1.8000000000001p+1'),
        ('0x1.999999999998cp-1', '-0x1.aaaaaaaaaaaa9p+2'),
        ('0x1.dffffffffffffp+0', '0x1.1000000000000p+3'),
        ('0x1.0000000000000p+1', '0x1.b6db6db6db6dep-2'),
        ('0x1.a666666666667p+2', '-0x1.8000000000000p+1'),
    ],
    'planted4': [
        ('-0x1.e000000000001p+2', '0x1.a000000000002p+1'),
        ('-0x1.199999999999ap+2', '-0x1.4000000000000p+2'),
        ('-0x1.c71c71c71c735p+1', '0x1.1000000000002p+2'),
        ('-0x1.2492492492493p+1', '-0x1.4000000000000p+1'),
        ('-0x1.c71c71c71daa0p-3', '0x1.f333333333118p+1'),
        ('0x1.0000000001138p-2', '0x1.9c71c71c71bd5p+1'),
        ('0x1.7ffffffffef27p-1', '0x1.00000000000e0p+2'),
        ('0x1.cccccccccccb1p-1', '0x1.4924924924a9dp+1'),
        ('0x1.2ffffffffff77p+1', '0x1.b6db6db6db7ecp+0'),
        ('0x1.3fffffffffff6p+1', '0x1.ccccccccccc8fp-1'),
        ('0x1.fffffffffff6dp+1', '0x1.2aaaaaaaaaa79p+2'),
        ('0x1.dfffffffffffep+2', '0x1.400000000001ep+1'),
    ],
    'planted5': [
        ('-0x1.8aaaaaaaaaaabp+2', '0x1.1c71c71c71c70p+0'),
        ('-0x1.f000000000009p+1', '-0x1.3333333333332p+1'),
        ('-0x1.e666666666651p+1', '-0x1.8000000000000p+1'),
        ('-0x1.5b6db6db6db6dp+1', '0x1.999999999998ep-4'),
        ('-0x1.3333333333331p+0', '-0x1.cfffffffffffep+1'),
        ('0x1.9999999999997p+1', '0x1.249249249248fp-1'),
        ('0x1.bfffffffffffep+1', '-0x1.e66666666666cp+0'),
        ('0x1.c000000000000p+1', '0x1.8000000000001p+1'),
        ('0x1.1999999999999p+2', '-0x1.638e38e38e38dp+1'),
        ('0x1.8000000000000p+2', '0x1.8000000000000p+1'),
    ],
    'planted6': [
        ('-0x1.b333333333334p+2', '0x1.6aaaaaaaaaaa8p+1'),
        ('-0x1.5555555555541p-2', '0x1.4000000000000p+2'),
        ('0x1.199999999999bp+2', '0x1.4000000000003p+0'),
        ('0x1.1ffffffffffffp+2', '0x1.17fffffffffffp+3'),
    ],
    'planted7': [
        ('-0x1.2800000000000p+3', '0x1.b6db6db6db6dep-1'),
        ('-0x1.4aaaaaaaaaaabp+2', '-0x1.6000000000000p+2'),
        ('-0x1.0000000000007p+2', '0x1.f000000000000p+2'),
        ('-0x1.6aaaaaaaaaa90p+1', '0x1.3000000000004p+2'),
        ('-0x1.4924924924953p+0', '0x1.6fffffffffff4p+1'),
        ('-0x1.1fffffffffff5p+0', '0x1.8000000000003p+0'),
        ('-0x1.4000000000001p-1', '-0x1.b000000000000p+2'),
        ('0x1.6666666666665p+0', '0x1.0fffffffffffep+2'),
        ('0x1.8000000000000p+0', '0x1.9999999999997p-1'),
        ('0x1.0aaaaaaaaaaaap+2', '0x1.1555555555555p+2'),
        ('0x1.6000000000000p+2', '-0x1.3ffffffffffffp-1'),
    ],
    'planted8': [
        ('-0x1.1249249249249p+2', '-0x1.fffffffffffffp-1'),
        ('-0x1.38e38e38e38e4p+0', '-0x1.0000000000000p-1'),
        ('0x1.0000000000001p-1', '-0x1.4000000000000p+2'),
        ('0x1.c000000000002p-1', '0x1.cccccccccccccp+1'),
        ('0x1.e38e38e38e390p+1', '0x1.3333333333333p+0'),
        ('0x1.1999999999999p+2', '0x1.0000000000003p+2'),
        ('0x1.5b6db6db6db6ep+2', '0x1.cccccccccccbcp-1'),
    ],
    'planted9': [
        ('-0x1.999999999999ap+2', '-0x1.4000000000000p+2'),
        ('-0x1.ccccccccccccap+1', '0x1.c71c71c71c71fp-2'),
        ('-0x1.b6db6db6db6dbp+1', '-0x1.36db6db6db6dcp+1'),
        ('-0x1.2aaaaaaaaaaabp+1', '0x1.2492492492493p+0'),
        ('-0x1.2492492492490p-3', '-0x1.9999999999999p-2'),
        ('0x1.333333333334cp+0', '-0x1.3ffffffffffffp+2'),
        ('0x1.1555555555552p+1', '-0x1.8000000000007p+2'),
        ('0x1.a49249249249dp+1', '-0x1.1555555555559p+2'),
        ('0x1.0800000000005p+2', '0x1.c71c71c71c722p-1'),
        ('0x1.17fffffffffffp+2', '0x1.ffffffffffff0p-1'),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROOTS))
def test_poly_roots_golden_bits(name):
    roots = poly_roots(Polynomial(_golden_cases()[name]))
    assert [(r.real.hex(), r.imag.hex()) for r in roots] == GOLDEN_ROOTS[name]
