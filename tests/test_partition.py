import math
import random
from fractions import Fraction

import pytest

from conftest import (absorb_loop, edge_activity_series, edge_product, eliminate_pins_reference,
                      fold_reference, horner_reference, monomial_counts_reference,
                      random_graph, rational, remapped, restricted, scalar, term_reference,
                      z_naive, z_naive_qspin, z_pair)
from spinmix import partition
from spinmix.corpus import (rand_feasible_pinning, rand_params,
                            rand_qspin_params, rand_qspin_pinning, rand_tree)
from spinmix.errors import (CapExceededError, NotATreeError, PinningError,
                            ZeroPartitionError)
from spinmix.graphs import Graph, MINUS, PLUS, Pinning
from spinmix.mixing import marginal, marginal_series_beta, marginal_series_lambda
from spinmix.numerics import ONE, ExactComplex, _common_numerators, _gmul, _reduced
from spinmix.partition import (BETA, ISING_LAMBDA, LAMBDA, TIED_BETA, Params, QSpinParams,
                               _monomial_counts, eliminate_pins,
                               hardcore_params, spin_reversal, two_spin_embedding,
                               z_brute, z_poly_lambda, z_qspin_tree, z_tree)

EDGE = Graph(2, ((0, 1),))
PATH3 = Graph(3, ((0, 1), (1, 2)))


class TestParams:
    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            Params(0, 0, 1)

    def test_rejects_zero_field(self):
        with pytest.raises(ValueError):
            Params(1, 1, 0)
        with pytest.raises(ValueError):
            Params(1, 1, (ExactComplex(1), ExactComplex(0)))

    def test_round_trip(self):
        p = Params(Fraction(1, 2), 3, (ExactComplex(2), ExactComplex(0, 1)))
        assert Params.from_json(p.to_json()) == p


class TestZBrute:
    def test_edge_example(self):
        assert z_brute(EDGE, Pinning(), Params(2, 3, 1)) == ExactComplex(7)

    def test_all_ones_counts_configurations(self):
        g = Graph(4, ((0, 1), (2, 3), (1, 2)))
        assert z_brute(g, Pinning(), Params(1, 1, 1)) == ExactComplex(16)

    def test_pinned_edge_example(self):
        # edge with u pinned +, beta=gamma=1, lambda=2: 2*2 + 2 = 6
        val = z_brute(EDGE, Pinning.of({0: PLUS}), Params(1, 1, 2))
        assert val == ExactComplex(6)

    def test_matches_naive_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, connected=False)
            mode = ("generic", "beta0", "gamma0", "fields", "complex")[rng.randrange(5)]
            params = rand_params(rng, mode, n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            assert z_brute(g, pins, params) == z_naive(g, pins, params)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            z_brute(Graph(25, ()), Pinning(), Params(1, 1, 1))

    def test_per_vertex_fields_take_one_lcm(self, monkeypatch):
        # the field vector is brought over one denominator once, and the walk
        # reads those numerators: one conversion and one lcm of its denominators
        calls, lcms = [], []
        real, real_lcm = partition._common_numerators, math.lcm

        def counted(coeffs):
            calls.append(tuple(coeffs))
            return real(coeffs)

        def counted_lcm(*ints):
            lcms.append(ints)
            return real_lcm(*ints)

        monkeypatch.setattr(partition, "_common_numerators", counted)
        monkeypatch.setattr(math, "lcm", counted_lcm)
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        fields = (ExactComplex(Fraction(1, 2)), ExactComplex(Fraction(2, 3), 1),
                  ExactComplex(3), ExactComplex(Fraction(-1, 5)))
        params = Params(Fraction(1, 2), 3, fields)
        pins = Pinning.of({0: PLUS})
        assert z_brute(g, pins, params, probe=2) == (
            z_naive(g, pins, params), z_naive(g, pins.with_pin(2, PLUS), params))
        assert calls == [fields] and lcms.count((2, 3, 1, 5)) == 1

    def test_infeasible_pinning(self):
        with pytest.raises(PinningError):
            z_brute(EDGE, Pinning.of({0: PLUS, 1: PLUS}), hardcore_params(1))

    def test_cap_error_precedes_pinning_error_on_cyclic_input(self):
        # z_tree meets the cycle first, and marginal's fallback enumeration
        # then reports the cap, not the infeasible pinning
        cycle = Graph(25, tuple((i, (i + 1) % 25) for i in range(25)))
        infeasible = Pinning.of({0: PLUS, 1: PLUS})
        with pytest.raises(NotATreeError):
            z_tree(cycle, infeasible, hardcore_params(1))
        with pytest.raises(CapExceededError):
            z_brute(cycle, infeasible, hardcore_params(1))
        with pytest.raises(CapExceededError):
            marginal(cycle, infeasible, 12, hardcore_params(1))


class TestZTree:
    def test_single_vertex_messages(self):
        z, msgs = z_tree(Graph(1, ()), Pinning(), Params(1, 1, 5))
        assert z == ExactComplex(6)
        assert msgs.at(0) == (ExactComplex(5), ExactComplex(1))

    def test_path3_hardcore(self):
        z, _ = z_tree(PATH3, Pinning(), hardcore_params(1))
        assert z == ExactComplex(5)

    def test_matches_brute_on_random_trees(self):
        # 200 param draws over random trees <= 14 vertices, including the
        # beta=0, gamma=0 and beta*gamma=1 regimes
        rng = random.Random(1234)
        for trial in range(200):
            n = rng.randint(2, 14)
            t = rand_tree(rng, n)
            mode = ("generic", "beta0", "gamma0", "bg1", "fields", "complex")[trial % 6]
            params = rand_params(rng, mode, n)
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero,
                                         params.gamma_is_zero)
            z_slow = z_brute(t, pins, params)
            z_fast, _ = z_tree(t, pins, params)
            assert z_fast == z_slow

    def test_forest_product_law(self):
        g = Graph(5, ((0, 1), (2, 3)))
        params = Params(Fraction(2), Fraction(1, 3), Fraction(5, 7))
        z, _ = z_tree(g, Pinning(), params)
        assert z == z_brute(g, Pinning(), params)

    def test_component_product_law(self):
        # Z factorizes over connected components, exactly, cycles included
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, connected=False)
            params = rand_params(rng, ("generic", "fields")[rng.randrange(2)], n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            product = ExactComplex(1)
            lams = params.field_vector(n)
            for comp in g.components():
                sub, remap = g.delete_vertices(set(range(n)) - set(comp))
                sub_params = Params(params.beta, params.gamma,
                                    tuple(lams[v] for v in sorted(comp)))
                product = product * z_brute(sub, remapped(restricted(pins, comp), remap),
                                            sub_params)
            assert product == z_brute(g, pins, params)

    def test_cycle_rejected(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(NotATreeError):
            z_tree(g, Pinning(), Params(1, 1, 1))
        # before any pinning check, so marginal can fall back to enumeration
        # on the same arguments
        for bad in (Pinning.of({0: PLUS, 1: PLUS}), Pinning.of({5: PLUS})):
            with pytest.raises(NotATreeError):
                z_tree(g, bad, hardcore_params(1))

    def test_forest_traversed_once(self, monkeypatch):
        # the cycle check is part of the one BFS that builds the forest order,
        # so neither z_tree nor marginal, which tries it first, runs another
        components, orders = [], []
        real_components, real_order = Graph.components, partition._forest_order

        def counted_components(self):
            components.append(self)
            return real_components(self)

        def counted_order(g, root):
            orders.append(g)
            return real_order(g, root)

        monkeypatch.setattr(Graph, "components", counted_components)
        monkeypatch.setattr(partition, "_forest_order", counted_order)
        rng = random.Random(83)
        trees = [rand_tree(rng, rng.randint(1, 8)) for _ in range(10)]
        for t in trees:
            params = rand_params(rng, "generic", t.n)
            z = z_naive(t, Pinning(), params)
            assert z_tree(t, Pinning(), params)[0] == z
            assert marginal(t, Pinning(), 0, params) == \
                z_naive(t, Pinning.of({0: PLUS}), params) / z
        assert components == [] and orders == [t for t in trees for _ in range(2)]

    def test_infeasible_pinning_rejected(self):
        infeasible = Pinning.of({0: PLUS, 1: PLUS})
        with pytest.raises(PinningError):
            z_tree(PATH3, infeasible, hardcore_params(1))
        with pytest.raises(PinningError):
            z_brute(Graph(3, ((0, 1), (0, 2), (1, 2))), infeasible, hardcore_params(1))


class TestZPair:
    def test_unit_weights(self):
        for su in (PLUS, MINUS):
            for sv in (PLUS, MINUS):
                assert z_pair(EDGE, Pinning(), 0, su, 1, sv,
                              Params(1, 1, 1)) == ExactComplex(1)

    def test_middle_pin_values(self):
        lam = ExactComplex(Fraction(3, 2))
        beta = ExactComplex(Fraction(5, 4))
        params = Params(beta, Fraction(7, 3), lam)
        p = Pinning.of({1: PLUS})
        assert z_pair(PATH3, p, 0, PLUS, 2, PLUS, params) == lam ** 3 * beta ** 2
        assert z_pair(PATH3, p, 0, MINUS, 2, MINUS, params) == lam
        assert z_pair(PATH3, p, 0, PLUS, 2, MINUS, params) == lam ** 2 * beta
        assert z_pair(PATH3, p, 0, MINUS, 2, PLUS, params) == lam ** 2 * beta

    def test_partitions_configuration_space(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, connected=False)
            params = rand_params(rng, ("generic", "beta0", "complex")[rng.randrange(3)], n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            free = [v for v in range(n) if v not in pins]
            if len(free) < 2:
                continue
            u, v = rng.sample(free, 2)
            total = sum((z_pair(g, pins, u, su, v, sv, params)
                         for su in (PLUS, MINUS) for sv in (PLUS, MINUS)),
                        ExactComplex(0))
            assert total == z_brute(g, pins, params)

    def test_pinned_vertex_rejected(self):
        with pytest.raises(PinningError):
            z_pair(EDGE, Pinning.of({0: PLUS}), 0, PLUS, 1, MINUS, Params(1, 1, 1))


class TestZPolyLambda:
    def test_hardcore_edge(self):
        poly = z_poly_lambda(EDGE, Pinning(), 0, 1)
        assert poly.coefficients == (ExactComplex(1), ExactComplex(2))

    def test_ising_edge(self):
        poly = z_poly_lambda(EDGE, Pinning(), 2, 2)
        assert poly.coefficients == (ExactComplex(2), ExactComplex(2), ExactComplex(2))

    def test_hardcore_triangle(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        poly = z_poly_lambda(g, Pinning(), 0, 1)
        assert poly.coefficients == (ExactComplex(1), ExactComplex(3))

    def test_evaluation_matches_brute(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, connected=False)
            beta, gamma = scalar(rng), scalar(rng)
            if beta.is_zero() and gamma.is_zero():
                continue
            pins = rand_feasible_pinning(rng, g, beta.is_zero(), gamma.is_zero())
            poly = z_poly_lambda(g, pins, beta, gamma)
            for _ in range(5):
                lam = scalar(rng, nonzero=True)
                params = Params(beta, gamma, lam)
                assert poly.evaluate(lam) == z_brute(g, pins, params)

    def test_equals_the_naive_polynomial(self):
        # degree <= n and equal to z_naive at n + 1 distinct fields: the same
        # polynomial, with and without a scale vector
        rng = random.Random(31)
        for trial in range(40):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, connected=False)
            beta = scalar(rng, nonzero=True, complex_prob=0.3)
            gamma = scalar(rng, complex_prob=0.3)
            pins = rand_feasible_pinning(rng, g, False, gamma.is_zero())
            scale = None
            if trial % 2:
                scale = tuple(scalar(rng, nonzero=True, complex_prob=0.3) for _ in range(n))
            poly = z_poly_lambda(g, pins, beta, gamma, scale=scale)
            assert poly.degree <= n
            for lam in map(ExactComplex, range(1, n + 2)):
                field = lam if scale is None else tuple(s * lam for s in scale)
                assert poly.evaluate(lam) == z_naive(g, pins, Params(beta, gamma, field))

    def test_scale_vector(self):
        # per-vertex constant multipliers reproduce non-uniform fields
        rng = random.Random(29)
        g = random_graph(rng, 5)
        mult = tuple(scalar(rng, nonzero=True) for _ in range(5))
        poly = z_poly_lambda(g, Pinning(), Fraction(2), Fraction(1, 2), scale=mult)
        lam = ExactComplex(Fraction(3, 4))
        params = Params(Fraction(2), Fraction(1, 2), tuple(m * lam for m in mult))
        assert poly.evaluate(lam) == z_brute(g, Pinning(), params)


class TestEliminatePins:
    def test_edge_example(self):
        # K2 with vertex 0 pinned +: prefactor lambda_0, survivor field
        # becomes beta * lambda_1
        fields = (ExactComplex(Fraction(5, 2)), ExactComplex(Fraction(7, 3)))
        beta = ExactComplex(2)
        reduced, rescaled, pre = eliminate_pins(EDGE, Pinning.of({0: PLUS}), beta, fields)
        assert reduced.n == 1 and reduced.edges == ()
        assert rescaled == (beta * fields[1],)
        assert pre == fields[0]

    def test_empty_pinning_identity(self):
        fields = (ExactComplex(1), ExactComplex(2))
        reduced, rescaled, pre = eliminate_pins(EDGE, Pinning(), 3, fields)
        assert reduced == EDGE and rescaled == fields and pre == ExactComplex(1)

    def test_identity_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, connected=False)
            beta = scalar(rng, nonzero=True, complex_prob=0.2)
            fields = tuple(scalar(rng, nonzero=True, complex_prob=0.2)
                           for _ in range(n))
            pins = rand_feasible_pinning(rng, g, False, False, pin_prob=0.4)
            reduced, rescaled, pre = eliminate_pins(g, pins, beta, fields)
            lhs = z_brute(g, pins, Params(beta, beta, fields))
            if reduced.n == 0:
                rhs = pre
            else:
                rhs = pre * z_brute(reduced, Pinning(), Params(beta, beta, rescaled))
            assert lhs == rhs

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            eliminate_pins(EDGE, Pinning(), 0, (ExactComplex(1), ExactComplex(1)))

    def test_matches_the_exact_complex_route(self):
        # complex beta, non-uniform fields with some exactly 1, graphs with
        # and without a field vector, and pins of both spins
        rng = random.Random(26)
        seen = {"mixed pins": 0, "negative shift": 0, "graph fields": 0, "ones": 0}
        for _ in range(400):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, connected=False)
            if rng.random() < 0.3:
                g = Graph(n, g.edges, tuple(scalar(rng, nonzero=True) for _ in range(n)))
                seen["graph fields"] += 1
            beta = scalar(rng, nonzero=True, complex_prob=0.5)
            fields = tuple(ONE if rng.random() < 0.4 else
                           scalar(rng, nonzero=True, complex_prob=0.3) for _ in range(n))
            pins = rand_feasible_pinning(rng, g, False, False, pin_prob=0.4)
            reduced, rescaled, pre = eliminate_pins(g, pins, beta, fields)
            ref_graph, ref_rescaled, ref_pre = eliminate_pins_reference(g, pins, beta, fields)
            assert reduced == ref_graph and reduced._adj == ref_graph._adj
            assert reduced.bfs() == ref_graph.bfs()
            assert [x._abd for x in rescaled] == [x._abd for x in ref_rescaled]
            assert pre._abd == ref_pre._abd
            spins = {s for _, s in pins.items()}
            seen["mixed pins"] += spins == {PLUS, MINUS}
            seen["negative shift"] += any(MINUS == pins.get(u) and v not in pins
                                          for e in g.edges for u, v in (e, e[::-1]))
            seen["ones"] += ONE in fields
        assert min(seen.values()) >= 40, seen


class TestSpinReversal:
    def test_single_vertex(self):
        g = Graph(1, ())
        p, params, pre = spin_reversal(g, Pinning(), Params(1, 1, 2))
        assert pre == ExactComplex(2)
        # 1 + 2 == 2 * (1 + 1/2)
        assert z_brute(g, Pinning(), Params(1, 1, 2)) == pre * z_brute(g, p, params)

    def test_identity_against_brute_force(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, connected=False)
            params = rand_params(rng, ("generic", "fields", "complex")[rng.randrange(3)], n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            flipped, swapped, pre = spin_reversal(g, pins, params)
            assert z_brute(g, pins, params) == pre * z_brute(g, flipped, swapped)

    def test_self_dual_point(self):
        rng = random.Random(43)
        g = random_graph(rng, 5)
        params = Params(Fraction(3, 2), Fraction(3, 2), 1)
        flipped, swapped, pre = spin_reversal(g, Pinning(), params)
        assert pre == ExactComplex(1)
        assert z_brute(g, Pinning(), params) == z_brute(g, flipped, swapped)


class TestQSpin:
    def test_single_vertex_field_sum(self):
        g = Graph(1, ())
        qp = QSpinParams(((ExactComplex(1),) * 3,) * 3, (1, 2, 3))
        assert z_qspin_tree(g, Pinning(), qp)[0] == ExactComplex(6)

    def test_identity_matrix_edge(self):
        qp = QSpinParams(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1))
        assert z_qspin_tree(EDGE, Pinning(), qp)[0] == ExactComplex(3)

    def test_two_spin_embedding_matches(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, connected=False)
            params = rand_params(rng, "generic", n)
            qp = two_spin_embedding(params)
            pins2 = rand_feasible_pinning(rng, g, False, False)
            qpins = Pinning.of({v: (1 if s == PLUS else 2) for v, s in pins2.items()})
            assert z_naive_qspin(g, qpins, qp) == z_brute(g, pins2, params)

    def test_tree_dp_matches_enumeration(self):
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(2, 8)
            t = rand_tree(rng, n)
            q = rng.choice((2, 3))
            qp = rand_qspin_params(rng, q)
            pins = rand_qspin_pinning(rng, t, q)
            total, _ = z_qspin_tree(t, pins, qp)
            assert total == z_naive_qspin(t, pins, qp)

    def test_out_of_range_spin(self):
        qp = rand_qspin_params(random.Random(0), 2)
        with pytest.raises(PinningError):
            z_qspin_tree(EDGE, Pinning.of({0: 3}), qp)


def rand_forest(rng: random.Random, n: int) -> Graph:
    """A random tree with about a fifth of its edges dropped."""
    t = rand_tree(rng, n)
    return Graph(n, tuple(e for e in t.edges if rng.random() < 0.8))


def rooted_subtree(g: Graph, root: int | None, w: int) -> list[int]:
    """Vertices of w's subtree when each component of the forest g is rooted
    at ``root`` if it holds it, and at its lowest vertex otherwise."""
    comp = next(c for c in g.components() if w in c)
    r = root if root in comp else min(comp)
    return sorted(x for x in comp if w in g.tree_path(r, x))


def pinned_subtree_value(g, pins, root, w, spin, naive, restrict):
    """Oracle for one message entry: ``naive`` on w's subtree with w pinned
    to ``spin``; ``restrict(keep)`` gives the parameters on the kept vertices."""
    if w in pins:
        if pins.get(w) != spin:
            return ExactComplex(0)
        pins = restricted(pins, set(range(g.n)) - {w})
    keep = rooted_subtree(g, root, w)
    sub, remap = g.delete_vertices(set(range(g.n)) - set(keep))
    sub_pins = remapped(restricted(pins, keep), remap).with_pin(remap[w], spin)
    return naive(sub, sub_pins, restrict(keep))


class TestTreeMessages:
    """Each message entry is the subtree partition value with the vertex
    pinned, checked against the independent enumeration oracles."""

    def test_two_spin_messages_match_naive(self):
        rng = random.Random(71)
        modes = ("generic", "beta0", "gamma0", "bg1", "fields", "complex")
        for trial in range(30):
            n = rng.randint(1, 8)
            g = rand_forest(rng, n)
            params = rand_params(rng, modes[trial % len(modes)], n)
            pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                         params.gamma_is_zero)
            root = rng.choice((None, rng.randrange(n)))
            lams = params.field_vector(n)

            def restrict(keep):
                return Params(params.beta, params.gamma, tuple(lams[v] for v in keep))

            total, msgs = z_tree(g, pins, params, root=root)
            assert total == z_naive(g, pins, params)
            for w in range(n):
                for k, spin in enumerate((PLUS, MINUS)):
                    assert msgs.at(w)[k] == pinned_subtree_value(
                        g, pins, root, w, spin, z_naive, restrict), (g, pins, root, w)

    def test_qspin_messages_match_naive(self):
        rng = random.Random(73)
        for trial in range(24):
            q = (2, 3)[trial % 2]
            n = rng.randint(1, 7 if q == 2 else 5)
            g = rand_forest(rng, n)
            qp = rand_qspin_params(rng, q)
            pins = rand_qspin_pinning(rng, g, q)
            root = rng.choice((None, rng.randrange(n)))
            total, msgs = z_qspin_tree(g, pins, qp, root=root)
            assert total == z_naive_qspin(g, pins, qp)
            for w in range(n):
                for k in range(q):
                    assert msgs.at(w)[k] == pinned_subtree_value(
                        g, pins, root, w, k + 1, z_naive_qspin, lambda keep: qp), \
                        (g, pins, root, w)

    def test_qspin_tree_out_of_range_spin(self):
        qp = rand_qspin_params(random.Random(0), 2)
        for spin in (0, 3):
            with pytest.raises(PinningError):
                z_qspin_tree(EDGE, Pinning.of({0: spin}), qp)


def test_empty_graph_partition_is_one():
    g = Graph(0, ())
    params = Params(2, 3, 1)
    assert z_brute(g, Pinning(), params) == ExactComplex(1)
    assert z_tree(g, Pinning(), params)[0] == ExactComplex(1)


def fold_instances():
    """Seeded (graph, pins, params) over every parameter regime (uniform and
    per-vertex fields, beta = 0, gamma = 0), with and without pins, on random
    and edgeless graphs."""
    rng = random.Random(61)
    out = []
    for mode in ("generic", "beta0", "gamma0", "bg1", "fields", "complex"):
        for edgeless in (False, True):
            for pinned in (False, True):
                for _ in range(2):
                    n = rng.randint(1, 6)
                    g = Graph(n, ()) if edgeless else random_graph(rng, n, connected=False)
                    params = rand_params(rng, mode, n)
                    pins = Pinning()
                    if pinned:
                        pins = rand_feasible_pinning(rng, g, params.beta_is_zero,
                                                     params.gamma_is_zero, pin_prob=0.5)
                    out.append((g, pins, params))
    return out


def test_table_folds_match_naive_oracle():
    # z_brute, z_poly_lambda (plain and scaled) and the edge-activity series
    # at its center all fold one configuration table; each must equal the
    # independent oracle exactly
    lam = ExactComplex(Fraction(-2, 3))
    for g, pins, params in fold_instances():
        truth = z_naive(g, pins, params)
        beta, gamma = params.beta, params.gamma
        assert z_brute(g, pins, params) == truth
        scale = tuple(f / lam for f in params.field_vector(g.n))
        assert z_poly_lambda(g, pins, beta, gamma, scale=scale).evaluate(lam) == truth
        if not params.uniform:
            continue
        assert z_poly_lambda(g, pins, beta, gamma).evaluate(params.field) == truth
        series = edge_activity_series(g, pins, gamma, params.field, beta, 3)
        assert series[0] == truth
        if not beta.is_zero():
            tied = edge_activity_series(g, pins, None, params.field, beta, 3)
            assert tied[0] == z_naive(g, pins, Params(beta, beta, params.field))


def test_tied_edge_activity_term_drops_only_a_table_of_ones():
    # the tied term (gamma None) as it was built before: the untied product
    # with a table of powers of 1 in gamma's place, over den * 1 ** m; the
    # same index, numerators and den, for every key the sweep can produce
    ones = (1, 0, 1)
    for g, _, params in fold_instances():
        if not params.uniform:
            continue
        lam, m = params.field, len(g.edges)
        term, den = partition._term(g, None, None, lam)
        pow_one, pow_l = partition._powers(ones, m), partition._powers(lam._abd, g.n)
        assert pow_one == [(1, 0)] * (m + 1)
        assert den == lam._abd[2] ** g.n * ones[2] ** m
        for mp in range(m + 1):
            for mm in range(m + 1 - mp):
                for k in range(g.n + 1):
                    # a table of the one key folds to its value at its index
                    vec = [(0, 0)] * (m + 1)
                    vec[mp + mm] = _gmul(pow_one[mm], pow_l[k])
                    assert partition._fold_counts({(mp, mm, k): 1}, term, m + 1) == vec


PATH25 = Graph(25, tuple((i, i + 1) for i in range(24)))


@pytest.mark.parametrize("enumerate_", [
    lambda g: z_brute(g, Pinning(), Params(1, 1, 1)),
    lambda g: z_poly_lambda(g, Pinning(), 1, 1),
    lambda g: marginal_series_lambda(g, Pinning(), 0, 1, 1),
    lambda g: marginal_series_beta(g, Pinning(), 0, 1, 1, 1),
], ids=["z_brute", "z_poly_lambda", "marginal_series_lambda", "marginal_series_beta"])
def test_every_enumeration_is_capped(enumerate_):
    with pytest.raises(CapExceededError):
        enumerate_(PATH25)


def numerators(weights):
    """The walk's weight numerators: None, or weights over their lcm."""
    return None if weights is None else _common_numerators(weights)[0]


class TestGrayWalk:
    """The walk against one count per configuration at every free width up
    to 12: one step block, two, and four (STEP_BLOCK is 10)."""

    @pytest.mark.parametrize("width", range(13))
    def test_matches_per_configuration_count(self, width):
        rng = random.Random(700 + width)
        for pinned in (False, True):
            n = width + 2 * pinned
            g = random_graph(rng, n, connected=False)
            pins = Pinning()
            if pinned:
                pins = Pinning.of(dict(zip(rng.sample(range(n), 2), rng.choices((PLUS, MINUS), k=2))))
            # complex weights with distinct denominators
            weights = [scalar(rng, nonzero=True, complex_prob=0.5) for _ in range(n)]
            free = [v for v in range(n) if v not in pins]
            for probe in (None, rng.choice(free)) if free else (None,):
                for w in (None, weights):
                    assert (_monomial_counts(g, pins, numerators(w), probe)
                            == monomial_counts_reference(g, pins, w, probe)), (g, pins, probe)

    def test_step_tables_stay_bounded(self):
        g = Graph(12, tuple((i, i + 1) for i in range(11)))
        for probe in (None, 11):
            _monomial_counts(g, Pinning(), probe=probe)
        assert max(partition._RULERS) == partition.STEP_BLOCK
        assert all(len(steps) < 2 ** partition.STEP_BLOCK for steps in partition._RULERS.values())


def fold_terms(g: Graph, rng: random.Random):
    """The _term arguments of each mode on g, with their vectors' size, at
    complex activities; gamma == beta for the Ising one."""
    beta, gamma, lam = (scalar(rng, nonzero=True, complex_prob=0.5) for _ in range(3))
    m = len(g.edges)
    return [((beta, beta, None), g.n + 1), ((beta, gamma, None), g.n + 1),
            ((None, None, lam), m + 1), ((None, gamma, lam), m + 1)]


class TestFoldModes:
    """Each term mode's loop against the closure fold it replaced, on count
    and weighted tables, with and without a probe."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_closure_fold(self, seed):
        rng = random.Random(900 + seed)
        modes = set()
        for _ in range(8):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, connected=False)
            pins = rand_feasible_pinning(rng, g, False, False, pin_prob=0.3)
            # complex weights with distinct denominators
            weights = [scalar(rng, nonzero=True, complex_prob=0.5) for _ in range(n)]
            free = [v for v in range(n) if v not in pins]
            for args, size in fold_terms(g, rng):
                term, den = partition._term(g, *args)
                closure, ref_den = term_reference(g, *args)
                assert den == ref_den
                modes.add(term[0])
                for probe in (None, rng.choice(free)) if free else (None,):
                    for w in (None, weights):
                        assert (partition._fold(g, pins, numerators(w), probe, size, term)
                                == fold_reference(g, pins, w, probe, size, closure)), (g, pins, args)
        assert modes == {ISING_LAMBDA, LAMBDA, TIED_BETA, BETA}


@pytest.mark.parametrize("order", range(1, 9))
def test_horner_matches_the_reference(order):
    # real positive, real negative and complex centers, on Gaussian vectors
    rng = random.Random(950 + order)
    for _ in range(40):
        size = abs(rational(rng, nonzero=True))
        centers = (ExactComplex(size), ExactComplex(-size),
                   ExactComplex(rational(rng), rational(rng, nonzero=True)))
        for center in centers:
            vec = [_gaussian(rng) for _ in range(rng.randint(1, 10))]
            assert (partition._horner(vec, center, order)
                    == horner_reference(vec, center, order)), (vec, center)


class TestProbePair:
    """One sweep with a probe vertex v yields (Z, Z+_v) for every fold."""

    @staticmethod
    def probed():
        for g, pins, params in fold_instances():
            free = [v for v in range(g.n) if v not in pins]
            if free:
                yield g, pins, params, free[-1]
                yield g, pins, params, free[0]

    def test_z_brute_pair_matches_naive_oracle(self):
        for g, pins, params, v in self.probed():
            plus = pins.with_pin(v, PLUS)
            assert z_brute(g, pins, params, probe=v) == (
                z_naive(g, pins, params), z_naive(g, plus, params)), (g, pins, v)

    def test_edge_activity_pair_matches_naive_oracle(self):
        for g, pins, params, v in self.probed():
            if not params.uniform:
                continue
            plus = pins.with_pin(v, PLUS)
            beta, gamma, lam = params.beta, params.gamma, params.field
            den, num = edge_activity_series(g, pins, gamma, lam, beta, 3, probe=v)
            assert (den[0], num[0]) == (z_naive(g, pins, params), z_naive(g, plus, params))
            assert den == edge_activity_series(g, pins, gamma, lam, beta, 3)
            assert num == edge_activity_series(g, plus, gamma, lam, beta, 3)
            if not beta.is_zero():
                tied = Params(beta, beta, lam)
                den, num = edge_activity_series(g, pins, None, lam, beta, 3, probe=v)
                assert (den[0], num[0]) == (z_naive(g, pins, tied), z_naive(g, plus, tied))

    def test_probe_tables_split_by_probe_spin(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, connected=False)
            pins = rand_feasible_pinning(rng, g, False, False, pin_prob=0.3)
            free = [v for v in range(n) if v not in pins]
            if not free:
                continue
            v = rng.choice(free)
            weights = [scalar(rng, nonzero=True) for _ in range(n)]
            for w in map(numerators, (None, weights)):
                assert _monomial_counts(g, pins, w, probe=v) == [
                    _monomial_counts(g, pins.with_pin(v, MINUS), w)[0],
                    _monomial_counts(g, pins.with_pin(v, PLUS), w)[0]]

    @pytest.mark.parametrize("vertex", [2, -1])
    def test_pin_outside_graph_rejected(self, vertex):
        # a spin bit outside the graph would count as a + vertex
        with pytest.raises(PinningError):
            z_brute(EDGE, Pinning.of({vertex: PLUS}), Params(2, 3, 5))
        with pytest.raises(PinningError):
            z_poly_lambda(EDGE, Pinning.of({vertex: MINUS}), 2, 3)
        # the tree pass would ignore such a pin, so z_tree rejects it too and
        # forest and cyclic inputs agree
        k3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
        for g, outside, evaluate in ((EDGE, vertex, z_tree),
                                     (k3, vertex + 1 if vertex > 0 else vertex, z_brute)):
            with pytest.raises(PinningError):
                evaluate(g, Pinning.of({outside: PLUS}), Params(2, 3, 5))
            with pytest.raises(PinningError):
                marginal(g, Pinning.of({outside: PLUS}), 0, Params(2, 3, 5))
        with pytest.raises(PinningError):
            z_tree(EDGE, Pinning.of({vertex: PLUS}), Params(2, 3, 5))
        with pytest.raises(PinningError):
            z_qspin_tree(EDGE, Pinning.of({vertex: 1}),
                         QSpinParams(((1, 2), (2, 1)), (1, 1)))

    @pytest.mark.parametrize("probe", [0, 2, -1])
    def test_probe_must_be_free(self, probe):
        with pytest.raises(PinningError):
            z_brute(EDGE, Pinning.of({0: PLUS}), Params(2, 3, 1), probe=probe)


def distinct_denominator_scalar(rng: random.Random, den: int) -> ExactComplex:
    """A nonzero complex scalar whose canonical denominator is ``den``."""
    while True:
        re = Fraction(rng.randint(-30, 30), den)
        im = Fraction(rng.randint(-30, 30), den)
        x = ExactComplex(re, im)
        if x and x._abd[2] == den:
            return x


class TestIntegerPass:
    """The pass runs on Gaussian-integer numerators over one denominator and
    reduces a value only when it is read; the reads must still be the exact
    canonical values of the enumeration oracles."""

    def test_pairwise_different_field_denominators(self):
        rng = random.Random(97)
        lcms = set()
        for trial in range(30):
            n = rng.randint(1, 8)
            g = rand_forest(rng, n)
            dens = rng.sample(range(1, 11), n)
            lams = tuple(distinct_denominator_scalar(rng, d) for d in dens)
            beta = distinct_denominator_scalar(rng, rng.randint(1, 10))
            gamma = distinct_denominator_scalar(rng, rng.randint(1, 10))
            params = Params(beta, gamma, lams)
            pins = rand_feasible_pinning(rng, g, False, False)
            root = rng.choice((None, rng.randrange(n)))
            total, msgs = z_tree(g, pins, params, root=root)
            lcms.add(msgs.denom)
            assert total == z_naive(g, pins, params)
            for w in range(n):
                for k, spin in enumerate((PLUS, MINUS)):
                    assert msgs.at(w)[k] == pinned_subtree_value(
                        g, pins, root, w, spin, z_naive,
                        lambda keep: Params(beta, gamma, tuple(lams[v] for v in keep)))
        assert 2520 in lcms

    def test_qspin_q3_pairwise_different_denominators(self):
        rng = random.Random(101)
        for _ in range(12):
            n = rng.randint(1, 5)
            g = rand_forest(rng, n)
            dens = rng.sample(range(1, 11), 9)
            entries = iter(distinct_denominator_scalar(rng, d) for d in dens)
            upper = {(i, j): next(entries) for i in range(3) for j in range(i, 3)}
            matrix = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(3))
                           for i in range(3))
            qp = QSpinParams(matrix, tuple(next(entries) for _ in range(3)))
            pins = rand_qspin_pinning(rng, g, 3)
            root = rng.choice((None, rng.randrange(n)))
            total, msgs = z_qspin_tree(g, pins, qp, root=root)
            assert total == z_naive_qspin(g, pins, qp)
            for w in range(n):
                for k in range(3):
                    assert msgs.at(w)[k] == pinned_subtree_value(
                        g, pins, root, w, k + 1, z_naive_qspin, lambda keep: qp)

    def test_cancelled_message_is_canonical_zero(self):
        # at the root of an edge, the + entry is lambda (beta lambda + 1),
        # which cancels at beta = -1/lambda
        params = Params(Fraction(-1, 2), 3, 2)
        total, msgs = z_tree(EDGE, Pinning(), params, root=0)
        zero = msgs.at(0)[0]
        assert zero == ExactComplex(0) and hash(zero) == hash(ExactComplex(0))
        assert zero._abd == (0, 0, 1) and str(zero) == "0"
        assert total == msgs.at(0)[1] == z_naive(EDGE, Pinning(), params)

    def test_vanishing_partition_value(self):
        # Z = (lambda + 1)^2 on an edge at beta = gamma = 1
        params = Params(1, 1, ExactComplex(-1))
        total, msgs = z_tree(EDGE, Pinning(), params)
        assert total == ExactComplex(0) and hash(total) == hash(ExactComplex(0))
        assert total._abd == (0, 0, 1)
        with pytest.raises(ZeroPartitionError):
            marginal(EDGE, Pinning(), 0, params)

    def test_edge_product_matches_exact_factors(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(2, 8)
            t = rand_tree(rng, n)
            params = rand_params(rng, ("complex", "fields")[rng.randrange(2)], n)
            _, msgs = z_tree(t, Pinning(), params, root=0)
            ys = rng.sample(range(1, n), rng.randint(0, n - 1))
            expected = ExactComplex(1)
            for y in ys:
                zp, zm = msgs.at(y)
                expected = expected * (params.beta * zp + zm) * (zp + params.gamma * zm)
            assert edge_product(msgs, ys) == expected

    def test_held_path_leaves_z_and_messages(self):
        """Holding the u-v path back changes neither Z nor any message. The
        chain toward u is u's root message, numerator for numerator, and the
        chain toward v is v's message in the pass rooted at v."""
        rng = random.Random(107)
        modes = ("generic", "beta0", "gamma0", "bg1", "fields", "complex")
        for trial in range(40):
            n = rng.randint(2, 10)
            t = rand_tree(rng, n)
            params = rand_params(rng, modes[trial % len(modes)], n)
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero, params.gamma_is_zero)
            u, v = rng.sample(range(n), 2)
            path = t.tree_path(u, v)
            z, msgs = z_tree(t, pins, params, root=u)
            z_held, held = z_tree(t, pins, params, root=u, held=path)
            assert z_held == z and held.msgs == msgs.msgs and list(held.held) == path
            assert held.chain(path[::-1]) == msgs.msgs[u][0]
            scale = msgs.denom ** msgs.msgs[u][1]
            assert (tuple(_reduced(re, im, scale) for re, im in held.chain(path))
                    == z_tree(t, pins, params, root=v)[1].at(v))

    @pytest.mark.parametrize("held", [[1, 2], [0, 2], [2, 1, 0]])
    def test_held_vertices_must_be_a_path_from_the_root(self, held):
        with pytest.raises(ValueError, match="path from a root"):
            z_tree(PATH3, Pinning(), Params(2, 3, 1), root=0, held=held)


def _gaussian(rng: random.Random) -> tuple[int, int]:
    """A Gaussian integer with parts of up to 600 bits, either part zero at times."""
    def part():
        if rng.random() < 0.15:
            return 0
        return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 600))
    return part(), part()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_absorb_equals_the_generic_loop(q):
    """The unrolled 2-spin absorb and the loop it replaces agree on every
    entry; q = 3 and 4 take the loop."""
    rng = random.Random(211 + q)
    zeros = 0
    for _ in range(300):
        matrix = [[_gaussian(rng) for _ in range(q)] for _ in range(q)]
        vec, child = [_gaussian(rng) for _ in range(q)], [_gaussian(rng) for _ in range(q)]
        if rng.random() < 0.1:
            vec[rng.randrange(q)] = (0, 0)
        out = partition._absorb(matrix, vec, child)
        assert out == absorb_loop(matrix, vec, child) and len(out) == q
        zeros += (0, 0) in vec
    assert zeros >= 20


def test_forest_order_kept_on_the_graph():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    first = partition._forest_order(g, 2)
    assert partition._forest_order(g, 2) is first
    assert partition._forest_order(g, None) is not first
    # the kept orders are no part of the graph's value
    assert g == Graph(4, ((0, 1), (1, 2), (1, 3))) and hash(g) == hash(Graph(4, g.edges))
