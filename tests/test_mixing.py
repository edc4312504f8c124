import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (corpus_config, is_connected, ldc_reference, random_graph, saw_marginal_tree,
                      scalar, series_div_naive, weitz_marginal_tree, z_naive)
from spinmix import cli, mixing, partition
from spinmix.corpus import rand_feasible_pinning, rand_params, rand_pinning_pair
from spinmix.errors import PinningError, SeriesDivisionError, ZeroPartitionError
from spinmix.graphs import (Graph, MINUS, PLUS, Pinning, build_saw_tree, is_proper,
                            saw_shape)
from spinmix.mixing import (DecayInstance, DecayRow, decay_profile, fit_decay,
                            ldc_report, ldc_report_beta, marginal,
                            marginal_series_beta, marginal_series_lambda,
                            path_decay_instances, saw_tree_marginal,
                            verify_saw_marginal, weitz_approx_marginal)
from spinmix.numerics import ExactComplex, Polynomial, PowerSeries
from spinmix.partition import Params, hardcore_params

EDGE = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


class TestMarginal:
    def test_single_vertex(self):
        assert marginal(Graph(1, ()), Pinning(), 0, Params(1, 1, 1)) \
            == ExactComplex(Fraction(1, 2))

    def test_triangle_hardcore(self):
        assert marginal(K3, Pinning(), 0, hardcore_params(1)) \
            == ExactComplex(Fraction(1, 4))

    def test_decoupled_edge(self):
        # beta*gamma = 1 is a product measure: marginal = lambda/(1+lambda)
        assert marginal(EDGE, Pinning(), 0, Params(1, 1, 3)) \
            == ExactComplex(Fraction(3, 4))

    def test_zero_partition_surfaced(self):
        with pytest.raises(ZeroPartitionError):
            marginal(Graph(1, ()), Pinning(), 0, Params(1, 1, -1))

    def test_improper_vertex_surfaced(self):
        with pytest.raises(PinningError):
            marginal(EDGE, Pinning.of({1: PLUS}), 0, hardcore_params(1))

    @pytest.mark.parametrize("v", [99, 3, -1])
    def test_out_of_range_vertex_is_pinning_error(self, v):
        p3 = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(PinningError, match="out of range"):
            marginal(p3, Pinning(), v, hardcore_params(1))


class TestMarginalOneEvaluation:
    """marginal evaluates once: one message pass on a forest, one probed
    enumeration otherwise; either way it equals the oracle's ratio."""

    def test_matches_naive_ratio(self):
        rng = random.Random(4127)
        checked = 0
        for trial in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, connected=trial % 2 == 0)
            params = rand_params(rng, ("generic", "fields", "complex", "beta0")[trial % 4], n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero, params.gamma_is_zero)
            proper = [v for v in range(n)
                      if is_proper(g, pins, v, params.beta_is_zero, params.gamma_is_zero)]
            if not proper:
                continue
            v = rng.choice(proper)
            z = z_naive(g, pins, params)
            if z.is_zero():
                with pytest.raises(ZeroPartitionError):
                    marginal(g, pins, v, params)
                continue
            assert marginal(g, pins, v, params) == \
                z_naive(g, pins.with_pin(v, PLUS), params) / z, (g, pins, v)
            checked += 1
        assert checked >= 40

    def test_forest_zero_elsewhere_surfaced(self):
        # vertex 1 alone has Z = 1 + (-1) = 0, so the total vanishes although
        # the component of vertex 0 does not
        with pytest.raises(ZeroPartitionError):
            marginal(Graph(2, ()), Pinning(), 0, Params(1, 1, (2, -1)))

    def test_forest_takes_one_tree_pass(self, monkeypatch):
        calls = []
        real = mixing.z_tree

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(mixing, "z_tree", counted)
        path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert marginal(path4, Pinning.of({3: MINUS}), 1, Params(2, 3, 1)) == \
            z_naive(path4, Pinning.of({1: PLUS, 3: MINUS}), Params(2, 3, 1)) \
            / z_naive(path4, Pinning.of({3: MINUS}), Params(2, 3, 1))
        assert calls == [path4]

    def test_cyclic_graph_falls_back_to_enumeration(self):
        params = Params(Fraction(1, 2), 3, 2)
        pins = Pinning.of({1: MINUS})
        assert marginal(K3, pins, 0, params) == \
            z_naive(K3, pins.with_pin(0, PLUS), params) / z_naive(K3, pins, params)

    @pytest.mark.parametrize("evaluate", [
        lambda g, p: marginal(g, p, 0, Params(Fraction(1, 2), 3, 2)),
        lambda g, p: marginal_series_lambda(g, p, 0, Fraction(1, 2), 3),
        lambda g, p: marginal_series_beta(g, p, 0, 3, 2, Fraction(1, 3)),
    ], ids=["marginal", "marginal_series_lambda", "marginal_series_beta"])
    def test_cyclic_graph_takes_one_enumeration(self, evaluate, monkeypatch):
        calls = []
        real = partition._monomial_counts

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(partition, "_monomial_counts", counted)
        g = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        evaluate(g, Pinning.of({3: PLUS}))
        assert calls == [g]


class TestSawMarginalEquality:
    def test_triangle(self):
        assert verify_saw_marginal(K3, Pinning(), 0, hardcore_params(1))
        assert saw_tree_marginal(K3, Pinning(), 0, hardcore_params(1)) \
            == ExactComplex(Fraction(1, 4))

    def test_tree_input_trivial(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        params = Params(Fraction(3, 2), Fraction(2, 3), Fraction(1, 5))
        assert verify_saw_marginal(g, Pinning.of({3: MINUS}), 0, params)

    def test_random_corpus(self):
        rng = random.Random(6021)
        done = 0
        while done < 100:
            n = rng.randint(2, 9)
            g = random_graph(rng, n)
            mode = ("generic", "beta0", "gamma0", "complex", "fields")[done % 5]
            params = rand_params(rng, mode, n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            proper = [v for v in range(n)
                      if is_proper(g, pins, v, params.beta_is_zero,
                                   params.gamma_is_zero)]
            if not proper:
                continue
            v = rng.choice(proper)
            try:
                assert verify_saw_marginal(g, pins, v, params)
            except ZeroPartitionError:
                continue
            done += 1


def _connected_graphs(max_n):
    """Every connected labelled graph on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
            if is_connected(g):
                yield g


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


SAW_MODES = ("generic", "beta0", "gamma0", "complex", "fields")


class TestWalkEqualsTree:
    """The walk over g against the explicit route: build the SAW tree (cut at
    the depth bound, cut vertices pinned -), run z_tree on it, read Z+/Z."""

    def test_every_small_graph_root_and_depth(self):
        rng = random.Random(1313)
        count = 0
        for g in _connected_graphs(5):
            for v in range(g.n):
                params = rand_params(rng, SAW_MODES[count % len(SAW_MODES)], g.n)
                count += 1
                pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                             params.gamma_is_zero, exclude=(v,))
                assert _outcome(saw_tree_marginal, g, pins, v, params) \
                    == _outcome(saw_marginal_tree, g, pins, v, params), (g, pins, v)
                for depth in range(1, g.n + 1):
                    assert _outcome(weitz_approx_marginal, g, v, pins, params, depth) \
                        == _outcome(weitz_marginal_tree, g, v, pins, params, depth), \
                        (g, pins, v, depth)
        assert count == 1 + 2 + 3 * 4 + 4 * 38 + 5 * 728

    def test_shape_matches_the_bare_tree(self):
        for g in _connected_graphs(5):
            for v in range(g.n):
                bare = build_saw_tree(g, v, Pinning())
                dist = bare.tree.distances_from(bare.root)
                copies = [min((dist[x] for x in bare.copies_of(w)), default=math.inf)
                          for w in range(g.n)]
                assert saw_shape(g, v) == (bare.tree.max_degree(), copies), (g, v)

    def test_shape_of_a_disconnected_graph(self):
        g = Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
        assert saw_shape(g, 0) == (2, [0, 1, 1, math.inf, math.inf])
        assert saw_shape(Graph(1, ()), 0) == (0, [0])

    @pytest.mark.parametrize("g, pins, v, params", [
        (K3, Pinning.of({0: PLUS}), 0, hardcore_params(1)),   # pinned root
        (K3, Pinning.of({1: PLUS, 2: PLUS}), 0, hardcore_params(1)),   # infeasible
        (Graph(4, ((0, 1), (1, 2), (2, 3))), Pinning.of({2: PLUS, 3: PLUS}), 0,
         hardcore_params(1)),   # infeasible away from a proper root
        (K3, Pinning(), 3, hardcore_params(1)),   # vertex out of range
        (K3, Pinning(), -1, hardcore_params(1)),
        (EDGE, Pinning(), 0, Params(1, 1, -1)),   # Z+ + Z- = 0 at the root
        (K3, Pinning(), 0, Params(1, 1, (1, 2))),   # field vector too short
    ], ids=["pinned-root", "infeasible", "infeasible-far", "out-of-range", "negative",
            "vanishing", "field-length"])
    def test_errors_match(self, g, pins, v, params):
        for depth in range(-1, g.n + 2):
            walk = _outcome(weitz_approx_marginal, g, v, pins, params, depth)
            assert isinstance(walk[0], type)   # raised
            assert walk == _outcome(weitz_marginal_tree, g, v, pins, params, depth)
        walk = _outcome(saw_tree_marginal, g, pins, v, params)
        assert isinstance(walk[0], type)
        assert walk == _outcome(saw_marginal_tree, g, pins, v, params)

    def test_long_path_needs_no_recursion(self):
        n = 3000
        path = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
        params = Params(Fraction(3, 2), Fraction(2, 3), Fraction(1, 5))
        pins = Pinning.of({n - 1: PLUS})
        value, exact = weitz_approx_marginal(path, 0, pins, params, n)
        assert exact and value == marginal(path, pins, 0, params)


class TestMarginalSeriesLambda:
    def test_single_vertex_geometric(self):
        ms = marginal_series_lambda(Graph(1, ()), Pinning(), 0, 1, 1, order=5)
        assert ms.series == PowerSeries([0, 1, -1, 1, -1])

    def test_edge_hardcore_free_neighbor(self):
        ms = marginal_series_lambda(EDGE, Pinning(), 0, 0, 1, order=4)
        assert ms.series == PowerSeries([0, 1, -2, 4])

    def test_edge_hardcore_pinned_neighbor(self):
        ms = marginal_series_lambda(EDGE, Pinning.of({1: MINUS}), 0, 0, 1, order=4)
        assert ms.series == PowerSeries([0, 1, -1, 1])

    def test_constant_term_zero_with_pins(self):
        g = Graph(3, ((0, 1), (1, 2)))
        ms = marginal_series_lambda(g, Pinning.of({2: PLUS}), 0, Fraction(3, 2),
                                    Fraction(5, 7), order=5)
        assert ms.series.coefficients[0] == ExactComplex(0)

    def test_reevaluation_matches_exact_marginal(self):
        # partial sums approximate the exact rational marginal within a
        # geometric tail bound built from the next coefficient
        rng = random.Random(733)
        done = 0
        while done < 25:
            n = rng.randint(1, 7)
            g = random_graph(rng, n, connected=False)
            beta = scalar(rng)
            gamma = scalar(rng, nonzero=True)
            if beta.is_zero() and gamma.is_zero():
                continue
            pins = rand_feasible_pinning(rng, g, beta.is_zero(), gamma.is_zero())
            free = [v for v in range(n) if v not in pins]
            if not free:
                continue
            v = rng.choice(free)
            order = g.diameter() + 2
            ms = marginal_series_lambda(g, pins, v, beta, gamma, order=order + 1)
            coeffs = ms.series.coefficients
            growth = 1.0
            for a, b in zip(coeffs, coeffs[1:]):
                fa, fb = math.sqrt(float(a.abs2())), math.sqrt(float(b.abs2()))
                if fa > 0 and fb > 0:
                    growth = max(growth, fb / fa)
            base = max(4, int(4 * growth) + 1)
            checked = False
            for denom in (base, 2 * base, 3 * base):
                lam0 = ExactComplex(Fraction(1, denom))
                params = Params(beta, gamma, lam0)
                try:
                    exact = marginal(g, pins, v, params)
                except (ZeroPartitionError, PinningError):
                    continue
                partial = PowerSeries(coeffs[:order]).evaluate(lam0)
                err = math.sqrt(float((exact - partial).abs2()))
                scale = max(math.sqrt(float(c.abs2())) for c in coeffs)
                lam_f = math.sqrt(float(lam0.abs2()))
                bound = 2.0 * max(scale, 1.0) * (growth * lam_f) ** order \
                    / (1.0 - growth * lam_f)
                assert err <= bound + 1e-30
                checked = True
            if checked:
                done += 1


class TestLdc:
    def test_point_to_point_example(self):
        # d(v,u) = 1: constant terms agree, first difference at index 1
        rep = ldc_report(EDGE, Pinning.of({1: MINUS}), Pinning.of({1: PLUS}),
                         0, 0, 1, order=4)
        assert rep.first_difference == 1 and rep.satisfied

    def test_domain_difference_example(self):
        rep = ldc_report(EDGE, Pinning(), Pinning.of({1: MINUS}), 0, 0, 1, order=4)
        assert rep.first_difference == 2 and rep.satisfied

    def test_identical_pinnings(self):
        p = Pinning.of({1: MINUS})
        rep = ldc_report(EDGE, p, p, 0, 0, 1, order=4)
        assert rep.first_difference == rep.order

    def test_contract_random_corpus(self):
        rng = random.Random(808)
        for trial in range(100):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            beta = ExactComplex(0) if trial % 4 == 0 else scalar(rng, complex_prob=0.2)
            gamma = scalar(rng, nonzero=True, complex_prob=0.2)
            v = rng.randrange(n)
            s, t = rand_pinning_pair(rng, g, beta.is_zero(), False, exclude=(v,))
            rep = ldc_report(g, s, t, v, beta, gamma)
            assert rep.satisfied, (g, s, t, v, beta, gamma, rep)

    def test_point_to_point_contract(self):
        # pinning one extra vertex u to + or to - preserves coefficients
        # strictly below d(v, u); the observed agreement beyond the contract
        # is logged per pin sign (the + side often gains exactly one order,
        # the - side often more)
        rng = random.Random(909)
        observed = {PLUS: [], MINUS: []}
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            beta = scalar(rng, complex_prob=0.2)
            gamma = scalar(rng, nonzero=True, complex_prob=0.2)
            base_bz = beta.is_zero()
            v = rng.randrange(n)
            pins = rand_feasible_pinning(rng, g, base_bz, False, exclude=(v,))
            free = [u for u in range(n) if u not in pins and u != v]
            if not free:
                continue
            u = rng.choice(free)
            for spin in (PLUS, MINUS):
                if base_bz and spin == PLUS and any(
                        pins.get(w) == PLUS for w in g.neighbors(u)):
                    continue
                rep = ldc_report(g, pins, pins.with_pin(u, spin), v, beta, gamma)
                assert rep.satisfied
                assert rep.distance == g.distances_from(v)[u]
                if rep.first_difference < rep.order:
                    observed[spin].append(rep.first_difference - rep.distance)
        for spin, extras in observed.items():
            if extras:
                print(f"observed agreement beyond contract for u->{spin}: "
                      f"min {min(extras)}, max {max(extras)} over {len(extras)}")

    def test_scaled_field_series_matches_marginal(self):
        # non-uniform fields scanned along one scaling variable: the series
        # in z of P(z * fields) reproduces the exact marginal at small z
        rng = random.Random(910)
        g = random_graph(rng, 5)
        fields = tuple(scalar(rng, nonzero=True) for _ in range(5))
        beta, gamma = ExactComplex(Fraction(3, 2)), ExactComplex(Fraction(1, 3))
        order = 14
        ms = marginal_series_lambda(g, Pinning(), 0, beta, gamma, order=order,
                                    scale=fields)
        coeffs = ms.series.coefficients
        growth = 1.0
        for a, b in zip(coeffs, coeffs[1:]):
            fa, fb = math.sqrt(float(a.abs2())), math.sqrt(float(b.abs2()))
            if fa > 0 and fb > 0:
                growth = max(growth, fb / fa)
        z0 = ExactComplex(Fraction(1, max(4, int(4 * growth) + 1)))
        params = Params(beta, gamma, tuple(f * z0 for f in fields))
        exact = marginal(g, Pinning(), 0, params)
        approx = ms.series.evaluate(z0)
        err = math.sqrt(float((exact - approx).abs2()))
        scale = max(math.sqrt(float(c.abs2())) for c in coeffs)
        z_f = math.sqrt(float(z0.abs2()))
        bound = 2.0 * max(scale, 1.0) * (growth * z_f) ** order / (1.0 - growth * z_f)
        assert err <= bound + 1e-30


class TestMarginalSeriesBeta:
    def test_edge_center_one(self):
        ms = marginal_series_beta(EDGE, Pinning(), 0, 1, 1, 1, order=3)
        assert ms.series.coefficients[0] == ExactComplex(Fraction(1, 2))
        assert ms.series.coefficients[1] == ExactComplex(Fraction(1, 8))

    def test_edge_center_one_pinned(self):
        ms = marginal_series_beta(EDGE, Pinning.of({1: PLUS}), 0, 1, 1, 1, order=3)
        assert ms.series.coefficients[0] == ExactComplex(Fraction(1, 2))
        assert ms.series.coefficients[1] == ExactComplex(Fraction(1, 4))

    def test_singular_center_surfaced(self):
        # tied Ising activities at center -1 with unit field: Z(-1) = 0
        with pytest.raises(ZeroPartitionError):
            marginal_series_beta(EDGE, Pinning(), 0, None, 1, -1, order=3)

    def test_center_must_match_gamma(self):
        with pytest.raises(ValueError):
            marginal_series_beta(EDGE, Pinning(), 0, 2, 1, 1, order=3)

    def test_contract_at_inverse_gamma(self):
        rng = random.Random(515)
        done = 0
        while done < 50:
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            gamma = scalar(rng, nonzero=True, complex_prob=0.2)
            lam = scalar(rng, nonzero=True, complex_prob=0.2)
            v = rng.randrange(n)
            s, t = rand_pinning_pair(rng, g, False, False, exclude=(v,))
            try:
                rep = ldc_report_beta(g, s, t, v, gamma, lam, ExactComplex(1) / gamma)
            except ZeroPartitionError:
                continue
            assert rep.satisfied, (g, s, t, v, gamma, lam)
            done += 1

    def test_ising_centers_contract(self):
        rng = random.Random(626)
        done = 0
        while done < 30:
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            lam = scalar(rng, nonzero=True)
            center = ExactComplex(1) if done % 2 == 0 else ExactComplex(-1)
            v = rng.randrange(n)
            s, t = rand_pinning_pair(rng, g, False, False, exclude=(v,))
            try:
                rep = ldc_report_beta(g, s, t, v, None, lam, center)
            except ZeroPartitionError:
                continue
            assert rep.satisfied
            done += 1


def _poly_mul(a, b):
    out = [ExactComplex(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def full_edge_activity_poly(g, p, gamma, lam, center):
    """Z in t at edge activity center + t, expanded to full degree |E|: every
    configuration contributes its own product of (center + t) factors."""
    shift = [center, ExactComplex(1)]
    total = [ExactComplex(0)]
    for combo in itertools.product((PLUS, MINUS), repeat=g.n):
        if any(combo[v] != s for v, s in p.items()):
            continue
        w = [ExactComplex(1)]
        for u, v in g.edges:
            if combo[u] == PLUS and combo[v] == PLUS:
                w = _poly_mul(w, shift)
            elif combo[u] == MINUS and combo[v] == MINUS:
                w = _poly_mul(w, shift) if gamma is None else _poly_mul(w, [gamma])
        for v in range(g.n):
            if combo[v] == PLUS:
                w = _poly_mul(w, [lam])
        total = [a + b for a, b in itertools.zip_longest(total, w, fillvalue=ExactComplex(0))]
    return Polynomial(total)


def full_series_beta(g, p, v, gamma, lam, center, order):
    num = full_edge_activity_poly(g, p.with_pin(v, PLUS), gamma, lam, center)
    den = full_edge_activity_poly(g, p, gamma, lam, center)

    def head(poly):
        coeffs = list(poly.coefficients[:order])
        return PowerSeries(coeffs + [ExactComplex(0)] * (order - len(coeffs)))
    return series_div_naive(head(num), head(den))


class TestTruncatedEdgeActivitySeries:
    CASES = [
        (EDGE, Pinning(), 0, ExactComplex(2), ExactComplex(Fraction(1, 3))),
        (K3, Pinning(), 0, ExactComplex(Fraction(-3, 2), 1), ExactComplex(2)),
        (K3, Pinning.of({2: MINUS}), 1, None, ExactComplex(Fraction(1, 2), Fraction(-1, 3))),
        (Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))), Pinning.of({3: PLUS}), 1,
         ExactComplex(Fraction(2, 7)), ExactComplex(Fraction(-5, 4))),
        (Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4))), Pinning(), 2, None, ExactComplex(3)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_full_expansion(self, case):
        g, p, v, gamma, lam = self.CASES[case]
        centers = ([ExactComplex(1), ExactComplex(-1)] if gamma is None
                   else [ExactComplex(1) / gamma])
        for center in centers:
            for order in (1, 2, 3, len(g.edges), len(g.edges) + 1, len(g.edges) + 4):
                try:
                    ref = full_series_beta(g, p, v, gamma, lam, center, order)
                except ArithmeticError:
                    with pytest.raises(ArithmeticError):
                        marginal_series_beta(g, p, v, gamma, lam, center, order)
                    continue
                assert marginal_series_beta(g, p, v, gamma, lam, center, order).series == ref

    def test_random_graphs_match_full_expansion(self):
        rng = random.Random(737)
        done = 0
        while done < 12:
            n = rng.randint(2, 5)
            g = random_graph(rng, n)
            gamma = None if done % 3 == 0 else scalar(rng, nonzero=True, complex_prob=0.3)
            lam = scalar(rng, nonzero=True, complex_prob=0.3)
            center = (ExactComplex(1) / gamma if gamma is not None
                      else ExactComplex(rng.choice((1, -1))))
            v = rng.randrange(n)
            pins, _ = rand_pinning_pair(rng, g, False, False, exclude=(v,))
            order = rng.randint(1, len(g.edges) + 3)
            try:
                ref = full_series_beta(g, pins, v, gamma, lam, center, order)
            except ArithmeticError:
                continue
            assert marginal_series_beta(g, pins, v, gamma, lam, center, order).series == ref
            done += 1

    def test_order_zero_is_a_series_division_error(self):
        with pytest.raises(SeriesDivisionError):
            full_series_beta(EDGE, Pinning(), 0, ExactComplex(1), ExactComplex(1),
                             ExactComplex(1), 0)
        with pytest.raises(SeriesDivisionError):
            marginal_series_beta(EDGE, Pinning(), 0, 1, 1, 1, order=0)

    def test_order_zero_still_checks_the_center(self):
        # tied Ising activities at center -1 with unit field: Z(-1) = 0
        with pytest.raises(ZeroPartitionError):
            marginal_series_beta(EDGE, Pinning(), 0, None, 1, -1, order=0)


def _outcome(f, *args, **kwargs):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


PATH3 = Graph(3, ((0, 1), (1, 2)))
STAR3 = Graph(3, ((0, 1), (0, 2)))
PLUS2 = Pinning.of({2: PLUS})
ZERO_Z = Pinning.of({1: PLUS, 2: PLUS})  # Z identically zero on PATH3 at beta = 0
DIVISION_ZERO = (SeriesDivisionError, "denominator is zero through the truncation order")
CENTER_ZERO = (ZeroPartitionError, "partition value is zero at the expansion center")
POLY_ZERO = (ZeroPartitionError, "partition polynomial is identically zero")
V0_PINNED = (PinningError, "vertex 0 is pinned")
LAMBDA, BETA = marginal_series_lambda, marginal_series_beta


def _reports(series, *args, order=None):
    """The locality report of ldc_report (series LAMBDA) or ldc_report_beta
    (BETA), and that of the division route, each as _outcome gives it."""
    report = ldc_report if series is LAMBDA else ldc_report_beta
    return (_outcome(report, *args, order=order),
            _outcome(ldc_reference, series, *args, order=order))


class TestLdcVerdict:
    """ldc_report and ldc_report_beta read first_difference off the
    cross-multiplied integer numerators N_s D_t - N_t D_s; the division route
    (conftest.ldc_reference) builds both series and compares coefficients.
    Both give the same report, or raise the same error in the same order."""

    @pytest.mark.parametrize("command", ["ldc", "ldc-beta"])
    def test_corpus_matches_reference(self, command):
        cfg = corpus_config([command])
        results = set()
        for seed in (1, 2):
            rng = random.Random(seed)
            for trial in range(120):
                inst = cli.GENERATORS[command](cfg, rng, trial)
                g, v = inst["graph"], inst["v"]
                order = (None, 1, g.diameter() + 4)[trial % 3]
                if command == "ldc":
                    args = (LAMBDA, g, inst["pins_a"], inst["pins_b"], v,
                            inst["beta"], inst["gamma"])
                else:
                    args = (BETA, g, inst["pins_a"], inst["pins_b"], v,
                            inst["gamma"], inst["lambda"], inst["center"])
                ours, ref = _reports(*args, order=order)
                assert ours == ref, (seed, trial)
                results.add(ours.first_difference if isinstance(ours, mixing.LdcReport)
                            else ours[0])
        # the corpus reaches several verdicts, not one
        assert len(results) >= 3

    @pytest.mark.parametrize("args,order,want", [
        # beta = 0 with a + pin: Z has lambda-valuation k = 1 under both pinnings
        ((LAMBDA, Graph(4, ((0, 1), (1, 2), (2, 3))), Pinning.of({3: PLUS}),
          Pinning.of({2: MINUS, 3: PLUS}), 0, 0, Fraction(2, 3)), None, (5, 5, 2)),
        # v next to a + pin at beta = 0: Z+_v is identically zero
        ((LAMBDA, PATH3, Pinning.of({1: PLUS}), Pinning(), 0, 0, 3), None, (1, 4, 1)),
        ((BETA, PATH3, Pinning(), PLUS2, 0, None, Fraction(1, 2), -1), None, (2, 4, 2)),
        ((BETA, PATH3, Pinning(), PLUS2, 0, None, Fraction(1, 2), 1), None, (2, 4, 2)),
        ((LAMBDA, PATH3, Pinning(), Pinning.of({1: PLUS}), 0, 2, 3), 1, (1, 1, 1)),
        ((BETA, PATH3, Pinning(), PLUS2, 0, 3, 2, Fraction(1, 3)), 1, (1, 1, 2)),
        ((LAMBDA, PATH3, Pinning(), PLUS2, 0, 2, 3), 9, (2, 9, 2)),
        ((BETA, PATH3, Pinning(), PLUS2, 0, 3, 2, Fraction(1, 3)), 9, (2, 9, 2)),
    ], ids=["beta0-shift", "beta0-zero-numerator", "ising-minus-one", "ising-one",
            "lambda-order-1", "beta-order-1", "lambda-order-9", "beta-order-9"])
    def test_hand_built_cases(self, args, order, want):
        ours, ref = _reports(*args, order=order)
        assert ours == ref
        assert (ours.first_difference, ours.order, ours.distance) == want

    @pytest.mark.parametrize("args,order,want", [
        ((LAMBDA, PATH3, Pinning(), PLUS2, 0, 2, 3), 0, DIVISION_ZERO),
        ((LAMBDA, PATH3, Pinning(), PLUS2, 0, 2, 3), -1, DIVISION_ZERO),
        ((BETA, PATH3, Pinning(), PLUS2, 0, 3, 2, Fraction(1, 3)), 0, DIVISION_ZERO),
        ((BETA, PATH3, Pinning(), PLUS2, 0, 3, 2, Fraction(1, 3)), -1, DIVISION_ZERO),
        # Z = lambda^3 but Z+_0 = -lambda^2 + lambda^3 at (beta, gamma) = (-1, 0)
        ((LAMBDA, STAR3, Pinning.of({1: PLUS}), Pinning(), 0, -1, 0), None,
         (SeriesDivisionError, "valuation mismatch: numerator x^2 vs denominator x^3")),
        ((LAMBDA, PATH3, ZERO_Z, Pinning(), 0, 0, 1), None, POLY_ZERO),
        ((LAMBDA, PATH3, Pinning(), ZERO_Z, 0, 0, 1), None, POLY_ZERO),
        ((LAMBDA, PATH3, ZERO_Z, Pinning(), 0, 0, 1), 0, POLY_ZERO),
        # tied activities at center -1 with unit field: Z(-1) = 0 on an edge
        ((BETA, EDGE, Pinning(), Pinning(), 0, None, 1, -1), None, CENTER_ZERO),
        ((BETA, EDGE, Pinning(), Pinning(), 0, None, 1, -1), 0, CENTER_ZERO),
        ((LAMBDA, PATH3, Pinning.of({0: MINUS}), Pinning(), 0, 2, 3), None, V0_PINNED),
        ((BETA, PATH3, Pinning(), Pinning.of({0: PLUS}), 0, 3, 2, Fraction(1, 3)), None,
         V0_PINNED),
        # sigma's error comes first, then tau's
        ((LAMBDA, PATH3, ZERO_Z, Pinning.of({0: MINUS}), 0, 0, 1), None, POLY_ZERO),
        ((LAMBDA, PATH3, Pinning.of({0: MINUS}), ZERO_Z, 0, 0, 1), None, V0_PINNED),
        ((LAMBDA, PATH3, Pinning(), Pinning.of({0: PLUS}), 0, 2, 3), 0, DIVISION_ZERO),
        ((BETA, EDGE, Pinning(), Pinning.of({0: PLUS}), 0, None, 1, -1), None, CENTER_ZERO),
        ((BETA, EDGE, Pinning.of({0: PLUS}), Pinning(), 0, None, 1, -1), None, V0_PINNED),
        ((BETA, PATH3, Pinning.of({0: PLUS}), Pinning(), 0, 3, 2, 1), None, V0_PINNED),
        ((BETA, PATH3, Pinning(), Pinning(), 0, 3, 2, 1), None,
         (ValueError, "center must equal 1/gamma")),
    ], ids=["lambda-order-0", "lambda-order-minus-1", "beta-order-0", "beta-order-minus-1",
            "valuation-mismatch", "zero-polynomial-s", "zero-polynomial-t",
            "zero-polynomial-before-order-0", "center-zero", "center-zero-before-order-0",
            "lambda-pinned-v", "beta-pinned-v", "zero-polynomial-then-pinned",
            "pinned-then-zero-polynomial", "order-0-then-pinned", "center-zero-then-pinned",
            "pinned-then-center-zero", "pinned-then-bad-center", "bad-center"])
    def test_errors_match_the_division_route(self, args, order, want):
        assert _reports(*args, order=order) == (want, want)


class TestDecay:
    def test_fit_recovers_planted_exponential(self):
        rows = [DecayRow(k, 3.0 * 2.5 ** -k, math.log(3.0 * 2.5 ** -k))
                for k in range(1, 8)]
        rate, constant = fit_decay(rows)
        assert abs(rate - 2.5) < 1e-9 and abs(constant - 3.0) < 1e-9

    def test_product_measure_gaps_identically_zero(self):
        prof = decay_profile(path_decay_instances(6),
                             Params(2, Fraction(1, 2), 1))
        assert all(r.gap == 0.0 for r in prof.rows)
        assert prof.rate is None

    def test_hardcore_paths_decay(self):
        prof = decay_profile(path_decay_instances(10, "ssm", k_min=2),
                             hardcore_params(Fraction(1, 10)))
        assert prof.rate is not None and prof.rate > 1

    def test_plus_boundary_ising_decay(self):
        prof = decay_profile(path_decay_instances(10, "psm"), Params(2, 2, 3))
        assert prof.rate is not None and prof.rate > 1

    def test_equal_boundaries_zero(self):
        g = Graph(3, ((0, 1), (1, 2)))
        p = Pinning.of({2: PLUS})
        inst = [DecayInstance(2, g, 0, p, p)]
        prof = decay_profile(inst, Params(2, 3, 1))
        assert prof.rows[0].gap == 0.0

    def test_zero_partition_reported_with_instance(self):
        inst = [DecayInstance(1, Graph(1, ()), 0, Pinning(), Pinning())]
        with pytest.raises(ZeroPartitionError, match="k=1"):
            decay_profile(inst, Params(1, 1, -1))

    def test_rows_sorted_strictly(self):
        prof = decay_profile(reversed(path_decay_instances(5, "msm")),
                             Params(2, 2, 3))
        assert [r.k for r in prof.rows] == [1, 2, 3, 4, 5]


class TestWeitz:
    def test_triangle_depth_one(self):
        value, exact = weitz_approx_marginal(K3, 0, Pinning(), hardcore_params(1), 1)
        assert value == ExactComplex(Fraction(1, 2)) and not exact

    def test_full_depth_matches_marginal(self):
        rng = random.Random(111)
        done = 0
        while done < 50:
            n = rng.randint(2, 9)
            g = random_graph(rng, n)
            mode = ("generic", "beta0", "complex")[done % 3]
            params = rand_params(rng, mode, n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            proper = [v for v in range(n)
                      if is_proper(g, pins, v, params.beta_is_zero,
                                   params.gamma_is_zero)]
            if not proper:
                continue
            v = rng.choice(proper)
            try:
                truth = marginal(g, pins, v, params)
                value, exact = weitz_approx_marginal(g, v, pins, params, n)
            except ZeroPartitionError:
                continue
            assert exact and value == truth
            done += 1

    def test_endpoint_eccentricity_exact(self):
        p5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        value, exact = weitz_approx_marginal(p5, 0, Pinning(), hardcore_params(1), 4)
        assert exact
        assert value == marginal(p5, Pinning(), 0, hardcore_params(1))

    @pytest.mark.parametrize("v", [99, -1])
    def test_out_of_range_vertex_is_pinning_error(self, v):
        p3 = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(PinningError, match="out of range"):
            weitz_approx_marginal(p3, v, Pinning(), hardcore_params(1), 3)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError):
            weitz_approx_marginal(K3, 0, Pinning(), hardcore_params(1), depth)

    def test_convergence_logged(self, capsys):
        # informational: hard-core approximations should creep toward the
        # truth as depth grows; violations are findings, not failures
        g = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)))
        params = hardcore_params(Fraction(1, 2))
        truth = marginal(g, Pinning(), 0, params)
        errs = []
        for depth in range(1, g.n + 1):
            value, _ = weitz_approx_marginal(g, 0, Pinning(), params, depth)
            errs.append(math.sqrt(float((value - truth).abs2())))
        for a, b in zip(errs, errs[1:]):
            if b > a + 1e-15:
                print(f"finding: non-monotone weitz step {a} -> {b}")
        assert errs[-1] == 0.0


def test_minus_boundary_ising_decay():
    # mirrored regime: small fields with all-minus boundaries decay too
    prof = decay_profile(path_decay_instances(10, "msm"),
                         Params(2, 2, Fraction(1, 3)))
    assert prof.rate is not None and prof.rate - 1 > 0.05


def test_decay_holds_one_numerator_table(monkeypatch):
    # one parameter set over paths of 2..901 vertices, as `decay --kmax 900`:
    # both marginals at each k share one table, and only the last is kept
    builds = []
    real = partition._numerators

    def counted(*args):
        builds.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(partition, "_numerators", counted)
    params = Params(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))
    prof = decay_profile(path_decay_instances(900), params)
    assert len(prof.rows) == 900
    assert builds == list(range(2, 902))
    n, _ = params._table
    assert n == 901


def test_product_measure_marginal_closed_form():
    # at beta*gamma = 1 the system is a product measure and the marginal of
    # a proper vertex is lambda * beta^deg / (lambda * beta^deg + 1), no
    # matter what is pinned elsewhere
    rng = random.Random(921)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        beta = scalar(rng, nonzero=True, complex_prob=0.3)
        lam = scalar(rng, nonzero=True, complex_prob=0.3)
        params = Params(beta, ExactComplex(1) / beta, lam)
        pins = rand_feasible_pinning(rng, g, False, False)
        free = [v for v in range(n) if v not in pins]
        if not free:
            continue
        v = rng.choice(free)
        try:
            got = marginal(g, pins, v, params)
        except ZeroPartitionError:
            continue
        weight = lam * beta ** g.degree(v)
        assert got == weight / (weight + ExactComplex(1))
