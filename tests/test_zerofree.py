import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import aberth_reference, corpus_config, is_connected, random_graph, root_bits
from spinmix import cli, numerics, zerofree
from spinmix.corpus import (rand_bounded_degree_graph, rand_connected_graph,
                            rand_feasible_pinning)
from spinmix.errors import PinningError
from spinmix.graphs import Graph, MINUS, PLUS, Pinning
from spinmix.numerics import ONE, ExactComplex, match_roots, poly_roots
from spinmix.partition import eliminate_pins, z_poly_lambda
from spinmix.zerofree import (RootReport, lambda_root_scan, pinned_annulus_check,
                              region_min_modulus, single_pin_check)

K2 = Graph(2, ((0, 1),))


class TestLambdaRootScan:
    def test_ising_edge_quadratic(self):
        # 2l^2 + 2l + 2: quadratic-formula roots (-1 +- i sqrt(3))/2
        rep = lambda_root_scan(K2, Pinning(), 2, 2)
        expected = [complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2)]
        assert match_roots(list(rep.roots), expected) < 1e-12
        assert all(abs(m - 1.0) < 1e-12 for m in rep.moduli)

    def test_hardcore_edge_linear(self):
        rep = lambda_root_scan(K2, Pinning(), 0, 1)
        assert len(rep.roots) == 1 and abs(rep.roots[0] + 0.5) < 1e-12

    def test_plus_pins_give_exact_zero_roots(self):
        rep = lambda_root_scan(K2, Pinning.of({0: PLUS}), 2, 2)
        assert 0j in rep.roots and rep.min_modulus == 0.0

    def test_constant_polynomial_rejected(self):
        g = Graph(1, ())
        with pytest.raises(ValueError):
            lambda_root_scan(g, Pinning.of({0: MINUS}), 2, 2)

    def test_unpinned_ising_circle(self):
        # Lee-Yang circle: every root modulus within 1e-9 of 1
        rng = random.Random(112)
        for trial in range(60):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            beta = (Fraction(3, 2), Fraction(2), Fraction(3))[trial % 3]
            rep = lambda_root_scan(g, Pinning(), beta, beta)
            assert all(abs(m - 1.0) < 1e-9 for m in rep.moduli), (g, beta)

    def test_root_finder_consistency(self):
        rng = random.Random(113)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, connected=False)
            beta = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            gamma = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            pins = rand_feasible_pinning(rng, g, False, False)
            poly = z_poly_lambda(g, pins, beta, gamma)
            if poly.degree < 1:
                continue
            rep = lambda_root_scan(g, pins, beta, gamma)
            bound = 1e-8 * (1 + sum(abs(c.to_complex()) for c in poly.coefficients))
            for root in rep.roots:
                assert abs(poly.evaluate_complex(root)) < bound


class TestPinnedAnnulus:
    def test_pinned_edge(self):
        rep = pinned_annulus_check(K2, Pinning.of({0: PLUS}), 2)
        assert rep.band == (0.25, 4.0)
        assert rep.annulus_violations == 0
        nonzero = [m for m in rep.moduli if m > 1e-9]
        assert all(0.25 - 1e-9 <= m <= 4 + 1e-9 for m in nonzero)

    def test_unpinned_circle_inside_band(self):
        rep = pinned_annulus_check(K2, Pinning(), 2)
        assert rep.annulus_violations == 0
        assert all(abs(m - 1.0) < 1e-9 for m in rep.moduli)

    def test_corpus_no_violations(self):
        rng = random.Random(200)
        for _ in range(50):
            n = rng.randint(2, 8)
            g = rand_bounded_degree_graph(rng, n, 3)
            free = rng.randrange(n)
            pins = rand_feasible_pinning(rng, g, False, False, exclude=(free,))
            rep = pinned_annulus_check(g, pins, Fraction(3, 2))
            assert rep.annulus_violations == 0
            assert rep.cross_check_mismatch < 1e-9

    def test_beta_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            pinned_annulus_check(K2, Pinning(), 1)

    def test_degree_bound_enforced(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        with pytest.raises(ValueError):
            pinned_annulus_check(star, Pinning(), 2, d=2)


@pytest.mark.parametrize("bound", [3, 4])
def test_annulus_roots_match_the_reference_route(bound):
    # every field polynomial of `annulus --trials 50 --seed 1`, direct and
    # through pin elimination, solved to the floats of the ExactComplex route
    cfg = corpus_config(["annulus", "--trials", "50", "--seed", "1", "--degree-bound", str(bound)])
    rng = random.Random(cfg.seed)
    solved = 0
    for trial in range(cfg.trials):
        inst = cli._gen_annulus(cfg, rng, trial)
        g, pins, beta = inst["graph"], inst["pins"], inst["beta"]
        reduced, rescaled, _ = eliminate_pins(g, pins, beta, (ONE,) * g.n)
        for poly in (z_poly_lambda(g, pins, beta, beta),
                     z_poly_lambda(reduced, Pinning(), beta, beta, scale=rescaled)):
            poly = poly.shifted_down(poly.valuation())
            if poly.degree >= 1:
                assert root_bits(poly_roots(poly)) == root_bits(aberth_reference(poly))
                solved += 1
    assert solved >= 90


class TestAnnulusCrossCheck:
    """The pin-elimination route is compared exactly, and the pinned
    polynomial's roots are solved once: the routes agree (mismatch 0.0) or
    they differ (mismatch None, a failing row); no root is matched in floats."""

    P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    PINS = Pinning.of({0: PLUS, 3: MINUS})

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"poly_roots": 0, "square_free_factors": 0, "match_roots": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(zerofree, "poly_roots")
        counted(numerics, "square_free_factors")
        counted(numerics, "match_roots")
        return counts

    def test_agreeing_routes_solve_once(self, calls):
        rep = pinned_annulus_check(self.P4, self.PINS, Fraction(3, 2))
        assert calls == {"poly_roots": 1, "square_free_factors": 1, "match_roots": 0}
        assert rep.cross_check_mismatch == 0.0
        assert rep.to_json()["cross_check_mismatch"] == 0.0
        assert rep.roots.count(0j) == 1

    def test_disagreeing_routes_solve_once_and_fail(self, calls, monkeypatch):
        eliminate = zerofree.eliminate_pins

        def perturbed(*args):
            reduced, rescaled, prefactor = eliminate(*args)
            return reduced, (rescaled[0] * 2, *rescaled[1:]), prefactor
        monkeypatch.setattr(zerofree, "eliminate_pins", perturbed)
        rep = pinned_annulus_check(self.P4, self.PINS, Fraction(3, 2))
        assert calls == {"poly_roots": 1, "square_free_factors": 1, "match_roots": 0}
        assert rep.cross_check_mismatch is None
        assert rep.annulus_violations == 0
        assert "cross_check_mismatch" not in rep.to_json()
        ok, row = cli.eval_annulus({"graph": self.P4, "pins": self.PINS,
                                    "beta": ExactComplex(Fraction(3, 2)),
                                    "degree_bound": 3})
        assert not ok and not row["pass"]
        assert row["cross_check_mismatch"] is None

    @pytest.mark.parametrize("bound,max_vertices", [("3", "8"), ("4", "9")])
    def test_seeded_corpus_routes_agree_exactly(self, bound, max_vertices):
        # every instance of the annulus corpora at seeds 0-3 agrees exactly,
        # so no seeded row depends on the removed float matching
        agreed = 0
        for seed in range(4):
            cfg = corpus_config(["annulus", "--seed", str(seed), "--degree-bound", bound,
                                 "--max-vertices", max_vertices])
            rng = random.Random(seed)
            for trial in range(cfg.trials):
                inst = cli._gen_annulus(cfg, rng, trial)
                rep = pinned_annulus_check(inst["graph"], inst["pins"], inst["beta"],
                                           inst["degree_bound"])
                assert rep.cross_check_mismatch == 0.0, (seed, trial)
                agreed += 1
        assert agreed == 4 * cfg.trials


def _graph_first_bounded_degree_graph(rng, n, dmax, attempts=20000):
    """The draw loop that builds a Graph for every draw, kept verbatim as the
    reference the rejecting loop must reproduce draw for draw."""
    if n <= 1:
        return Graph(n, ())
    for _ in range(attempts):
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5)
        g = Graph(n, edges)
        if is_connected(g) and g.max_degree() <= dmax:
            return g
    raise RuntimeError(f"no degree-{dmax} connected graph on {n} vertices")


class TestBoundedDegreeDraw:
    def test_same_graphs_and_stream_as_graph_first_loop(self):
        # a small attempt cap lets the rare bounds (dmax 2 at n 9) run out of
        # draws in both loops, so the exhausted path is compared too
        exhausted = 0
        for seed in range(240):
            n = 2 + seed % 8
            dmax = 2 + seed // 8 % 3
            mine, theirs = random.Random(seed), random.Random(seed)
            try:
                expected = _graph_first_bounded_degree_graph(theirs, n, dmax, 300)
            except RuntimeError:
                exhausted += 1
                with pytest.raises(RuntimeError):
                    rand_bounded_degree_graph(mine, n, dmax, 300)
            else:
                assert rand_bounded_degree_graph(mine, n, dmax, 300) == expected
            assert mine.getstate() == theirs.getstate()
        assert 0 < exhausted < 240

    def test_connected_draw_same_graphs_and_stream_as_random_loop(self):
        # the rand_connected_graph loop that called rng.random() once per pair
        def reference(rng, n):
            for _ in range(1000):
                g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < 0.5))
                if is_connected(g):
                    return g
        for seed in range(500):
            n = 2 + seed % 13
            mine, theirs = random.Random(seed), random.Random(seed)
            assert rand_connected_graph(mine, n) == reference(theirs, n)
            assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n,dmax", [(2, 0), (3, 1), (9, 1), (1, -1)])
    def test_unsatisfiable_bound_draws_nothing(self, n, dmax):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="no connected graph"):
            rand_bounded_degree_graph(rng, n, dmax)
        assert rng.getstate() == state

    @pytest.mark.parametrize("n,dmax", [(1, 0), (2, 1)])
    def test_smallest_satisfiable_bounds(self, n, dmax):
        g = rand_bounded_degree_graph(random.Random(5), n, dmax)
        assert g.n == n and is_connected(g) and g.max_degree() <= dmax


class TestSinglePin:
    """The single-pin regions are checked by the root route: the band is the
    region's complement, so annulus_violations counts roots inside it."""

    P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))

    def test_internal_plus_pin(self):
        rep = single_pin_check(self.P4, Pinning.of({1: PLUS}), 2)
        assert isinstance(rep, RootReport)
        assert rep.band == (0.5, math.inf) and rep.annulus_violations == 0
        assert rep.roots.count(0j) == 1 and len(rep.roots) == 4

    def test_all_minus_qualifies(self):
        rep = single_pin_check(self.P4, Pinning.of({0: MINUS, 2: MINUS}), 2,
                               side="small")
        assert rep.band == (0.5, math.inf) and rep.annulus_violations == 0

    def test_large_side_mirror(self):
        rep = single_pin_check(self.P4, Pinning.of({1: MINUS}), 2, side="large")
        assert rep.band == (0.0, 2.0) and rep.annulus_violations == 0

    def test_auto_side_follows_plus_pins(self):
        rep = single_pin_check(self.P4, Pinning.of({0: PLUS, 2: PLUS}), 2)
        assert rep.band == (0.0, 2.0) and rep.annulus_violations == 0

    def test_two_plus_pins_rejected(self):
        with pytest.raises(PinningError):
            single_pin_check(self.P4, Pinning.of({0: PLUS, 2: PLUS}), 2,
                             side="small")

    def test_two_minus_pins_rejected_on_large_side(self):
        with pytest.raises(PinningError, match="at most one - pin"):
            single_pin_check(self.P4, Pinning.of({0: MINUS, 2: MINUS}), 2,
                             side="large")

    @pytest.mark.parametrize("beta", [1, Fraction(1, 2), ExactComplex(2, 1)])
    def test_beta_not_real_above_one_rejected(self, beta):
        with pytest.raises(ValueError, match="real edge activity > 1"):
            single_pin_check(self.P4, Pinning(), beta)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="unknown side"):
            single_pin_check(self.P4, Pinning(), 2, side="middle")

    def test_constant_polynomial_rejected_as_by_root_scan(self):
        g, pins = Graph(1, ()), Pinning.of({0: MINUS})
        with pytest.raises(ValueError) as scan:
            lambda_root_scan(g, pins, 2, 2)
        with pytest.raises(ValueError) as check:
            single_pin_check(g, pins, 2)
        assert str(check.value) == str(scan.value)

    @pytest.mark.parametrize("side,root,inside", [
        ("small", Fraction(1, 4), True), ("small", Fraction(3, 4), False),
        ("large", Fraction(3), True), ("large", Fraction(3, 2), False)])
    def test_root_inside_region_is_counted(self, monkeypatch, side, root, inside):
        # lambda (lambda - root): the forced zero root never counts
        poly = numerics.Polynomial([0, -root, 1])
        monkeypatch.setattr(zerofree, "z_poly_lambda", lambda *args: poly)
        rep = single_pin_check(K2, Pinning(), 2, side=side)
        assert rep.annulus_violations == int(inside)

    def test_corpus_no_violations_on_both_sides(self):
        # 160 instances per side, each with a free vertex and at most one
        # pin of the region's single sign
        rng = random.Random(404)
        for trial in range(320):
            side = ("small", "large")[trial % 2]
            n = rng.randint(2, 8)
            g = random_graph(rng, n, connected=False)
            beta = Fraction(rng.randint(3, 8), 2)
            many, single = (MINUS, PLUS) if side == "small" else (PLUS, MINUS)
            free = rng.randrange(n)
            pins = {v: many for v in range(n) if v != free and rng.random() < 0.3}
            rest = [v for v in range(n) if v != free and v not in pins]
            if rest and rng.random() < 0.5:
                pins[rng.choice(rest)] = single
            rep = single_pin_check(g, Pinning.of(pins), beta, side=side)
            assert rep.annulus_violations == 0, (g, pins, beta, side)


class TestRegionMinModulus:
    def test_hardcore_paths_inside_safe_disk(self):
        instances = [(Graph(n, tuple((i, i + 1) for i in range(n - 1))), Pinning())
                     for n in range(2, 11)]
        grid = [0.12 * cmath.exp(2j * math.pi * a / 8) for a in range(8)]
        rows = region_min_modulus(instances, 0, 1, grid)
        # |lambda| = 0.12 < 4/27: no zeros for this path family
        assert all(m > 0.05 for _, m in rows)

    def test_grid_point_on_exact_root(self):
        rows = region_min_modulus([(K2, Pinning())], 0, 1, [complex(-0.5, 0)])
        assert rows[0][1] == 0.0

    def test_empty_family(self):
        assert region_min_modulus([], 0, 1, []) == []


def test_single_pin_root_scan_strengthening():
    # contrapositive via roots: with at most one + pin, nonzero roots of
    # the pinned field polynomial stay out of 0 < |root| < 1/beta
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        beta = Fraction(rng.randint(3, 6), 2)
        pins = {}
        minus_candidates = [v for v in range(n) if rng.random() < 0.3]
        for v in minus_candidates[: n - 1]:
            pins[v] = MINUS
        free = [v for v in range(n) if v not in pins]
        if rng.random() < 0.5 and free:
            pins[free[0]] = PLUS
        if len(pins) == n:
            continue
        rep = lambda_root_scan(g, Pinning.of(pins), beta, beta)
        for m in rep.moduli:
            assert not (1e-9 < m < 1 / float(beta) - 1e-9), (g, pins, beta, m)
