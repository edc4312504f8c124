import hashlib
import random
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (cd_sides_reference, det_laplace, exact_determinant_laplace,
                      gutman_by_passes, gutman_sides_reference, qspin_det_by_passes,
                      remapped, restricted, scalar, z_naive, z_naive_qspin, z_pair)
from spinmix import cli, partition
from spinmix.corpus import (PARAM_MODES, rand_feasible_pinning, rand_params,
                            rand_qspin_params, rand_qspin_pinning, rand_tree,
                            rand_unpinned_pair)
from spinmix.errors import NotATreeError, PinningError
from spinmix.graphs import Graph, MINUS, PLUS, Pinning, is_feasible
from spinmix.identities import (_det, cd_equivalent_forms, cd_sides,
                                exact_determinant, gutman_sides,
                                qspin_det_sides)
from spinmix.numerics import ExactComplex
from spinmix.partition import (Params, QSpinParams, hardcore_params,
                               two_spin_embedding, z_qspin_tree, z_tree)

EDGE = Graph(2, ((0, 1),))
PATH3 = Graph(3, ((0, 1), (1, 2)))


class TestCdSides:
    def test_bare_edge_generic(self):
        beta = ExactComplex(Fraction(5, 3))
        gamma = ExactComplex(Fraction(-2, 7))
        lam = ExactComplex(Fraction(3, 4), Fraction(1, 2))
        rep = cd_sides(EDGE, Pinning(), 0, 1, Params(beta, gamma, lam))
        assert rep.equal
        assert rep.lhs == (beta * gamma - ExactComplex(1)) * lam * lam
        assert rep.distance == 1 and not rep.path_hits_pinning

    def test_path_through_pin_is_zero(self):
        rep = cd_sides(PATH3, Pinning.of({1: PLUS}), 0, 2,
                       Params(Fraction(5, 4), Fraction(7, 3), Fraction(3, 2)))
        assert rep.path_hits_pinning
        assert rep.lhs == ExactComplex(0) and rep.rhs == ExactComplex(0)
        assert rep.equal

    def test_bg_one_vanishes(self):
        params = Params(2, Fraction(1, 2), Fraction(2, 3))
        star = Graph(4, ((0, 1), (1, 2), (1, 3)))
        rep = cd_sides(star, Pinning(), 0, 2, params)
        assert rep.lhs == ExactComplex(0) and rep.equal

    def test_corpus_exact(self):
        rng = random.Random(2718)
        for trial in range(200):
            n = rng.randint(2, 14)
            t = rand_tree(rng, n)
            params = rand_params(rng, PARAM_MODES[trial % len(PARAM_MODES)], n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero,
                                         params.gamma_is_zero, exclude=(u, v))
            rep = cd_sides(t, pins, u, v, params)
            assert rep.equal, (t, pins, params, u, v)
            assert cd_equivalent_forms(t, pins, u, v, params)

    def test_lhs_against_naive_enumeration(self):
        rng = random.Random(314)
        for _ in range(15):
            n = rng.randint(2, 7)
            t = rand_tree(rng, n)
            params = rand_params(rng, "generic", n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            pins = rand_feasible_pinning(rng, t, False, False, exclude=(u, v))
            rep = cd_sides(t, pins, u, v, params)
            naive_lhs = (
                z_naive(t, pins.with_pin(u, PLUS).with_pin(v, PLUS), params)
                * z_naive(t, pins.with_pin(u, MINUS).with_pin(v, MINUS), params)
                - z_naive(t, pins.with_pin(u, PLUS).with_pin(v, MINUS), params)
                * z_naive(t, pins.with_pin(u, MINUS).with_pin(v, PLUS), params))
            assert rep.lhs == naive_lhs

    def test_swap_symmetry(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(2, 9)
            t = rand_tree(rng, n)
            params = rand_params(rng, "generic", n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            pins = rand_feasible_pinning(rng, t, False, False, exclude=(u, v))
            a = cd_sides(t, pins, u, v, params)
            b = cd_sides(t, pins, v, u, params)
            assert (a.lhs, a.rhs, a.distance) == (b.lhs, b.rhs, b.distance)

    def test_cycle_rejected(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(NotATreeError):
            cd_sides(g, Pinning(), 0, 1, Params(1, 1, 1))

    def test_pinned_endpoint_rejected(self):
        with pytest.raises(PinningError):
            cd_sides(EDGE, Pinning.of({0: PLUS}), 0, 1, Params(1, 1, 1))


class TestEquivalentForms:
    def test_bare_edge_unit(self):
        # Z=4, Z++ = 1, Z+_u = Z+_v = 2: both reformulations give 0
        assert cd_equivalent_forms(EDGE, Pinning(), 0, 1, Params(1, 1, 1))

    def test_random_trees(self):
        rng = random.Random(555)
        for trial in range(60):
            n = rng.randint(2, 12)
            t = rand_tree(rng, n)
            params = rand_params(rng, PARAM_MODES[trial % len(PARAM_MODES)], n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero,
                                         params.gamma_is_zero, exclude=(u, v))
            assert cd_equivalent_forms(t, pins, u, v, params)


def independence_poly_value(g: Graph, lam: ExactComplex) -> ExactComplex:
    """Independent-set enumeration oracle, bitmask-based."""
    total = ExactComplex(0)
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    for mask in range(1 << g.n):
        chosen = [v for v in range(g.n) if mask >> v & 1]
        if any(u in adj[v] for i, v in enumerate(chosen) for u in chosen[i + 1:]):
            continue
        total = total + lam ** len(chosen)
    return total


class TestGutman:
    def test_path3_cube(self):
        lam = ExactComplex(Fraction(7, 3))
        rep = gutman_sides(PATH3, 0, 2, lam)
        assert rep.equal
        assert rep.lhs == lam ** 3

    def test_adjacent_pair(self):
        lam = ExactComplex(Fraction(2, 5))
        rep = gutman_sides(EDGE, 0, 1, lam)
        assert rep.equal
        assert rep.lhs == -(lam * lam)

    def test_corpus_exact(self):
        rng = random.Random(777)
        for _ in range(200):
            n = rng.randint(2, 12)
            t = rand_tree(rng, n)
            u, v = rng.sample(range(n), 2)
            lam = scalar(rng, nonzero=True, complex_prob=0.25)
            rep = gutman_sides(t, u, v, lam)
            assert rep.equal, (t, u, v, lam)

    def test_sides_against_enumeration_oracle(self):
        rng = random.Random(888)
        for _ in range(10):
            n = rng.randint(2, 8)
            t = rand_tree(rng, n)
            u, v = rng.sample(range(n), 2)
            lam = scalar(rng, nonzero=True)
            rep = gutman_sides(t, u, v, lam)
            z = independence_poly_value
            lhs = (z(t, lam) * z(t.delete_vertices({u, v})[0], lam)
                   - z(t.delete_vertices({u})[0], lam)
                   * z(t.delete_vertices({v})[0], lam))
            assert rep.lhs == lhs


def gutman_by_deletion(t, u, v, lam):
    """Both sides of the deletion identity with every Z_{T-S} taken on the
    induced subgraph T - S, as gutman_sides did before it pinned S to -."""
    lam = ExactComplex._coerce(lam)

    def z_of(deleted):
        sub, _ = t.delete_vertices(deleted)
        return z_tree(sub, Pinning(), hardcore_params(lam))[0]

    path = t.tree_path(u, v)
    closed = set(path)
    for w in path:
        closed.update(t.neighbors(w))
    lhs = z_of(set()) * z_of({u, v}) - z_of({u}) * z_of({v})
    rhs = -((-lam) ** len(path)) * z_of(set(path)) * z_of(closed)
    return lhs, rhs


def test_gutman_pins_equal_the_deletion_route():
    rng = random.Random(779)
    for _ in range(80):
        n = rng.randint(2, 12)
        t = rand_tree(rng, n)
        u, v = rng.sample(range(n), 2)
        lam = scalar(rng, nonzero=True, complex_prob=0.25)
        rep = gutman_sides(t, u, v, lam)
        assert (rep.lhs, rep.rhs) == gutman_by_deletion(t, u, v, lam), (t, u, v, lam)


class TestQSpinDeterminant:
    def test_q2_embedding_coincides_with_pair_difference(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(2, 8)
            t = rand_tree(rng, n)
            params = rand_params(rng, "generic", n)
            qp = two_spin_embedding(params)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            rep2 = cd_sides(t, Pinning(), u, v, params)
            repq = qspin_det_sides(t, Pinning(), u, v, qp)
            assert repq.lhs == rep2.lhs
            assert repq.rhs == rep2.rhs
            assert repq.equal

    def test_q3_identity_matrix_edge(self):
        lams = (ExactComplex(2), ExactComplex(Fraction(1, 3)), ExactComplex(-1))
        qp = QSpinParams(((1, 0, 0), (0, 1, 0), (0, 0, 1)), lams)
        rep = qspin_det_sides(EDGE, Pinning(), 0, 1, qp)
        assert rep.equal
        prod = lams[0] * lams[1] * lams[2]
        assert rep.lhs == prod * prod

    def test_corpus_exact(self):
        rng = random.Random(4242)
        for trial in range(100):
            n = rng.randint(2, 8)
            t = rand_tree(rng, n)
            q = 2 if trial % 2 == 0 else 3
            qp = rand_qspin_params(rng, q)
            u, v = rng.sample(range(n), 2)
            pins = rand_qspin_pinning(rng, t, q, exclude=(u, v))
            rep = qspin_det_sides(t, pins, u, v, qp)
            assert rep.equal, (t, pins, u, v, qp)

    def test_lhs_against_naive_determinant_oracle(self):
        rng = random.Random(31415)
        for trial in range(10):
            n = rng.randint(2, 6)
            t = rand_tree(rng, n)
            q = 2 if trial % 2 == 0 else 3
            qp = rand_qspin_params(rng, q)
            u, v = rng.sample(range(n), 2)
            pins = rand_qspin_pinning(rng, t, q, exclude=(u, v))
            rep = qspin_det_sides(t, pins, u, v, qp)
            matrix = [[z_naive_qspin(t, pins.with_pin(u, i + 1).with_pin(v, j + 1), qp)
                       for j in range(q)] for i in range(q)]
            assert rep.lhs == exact_determinant(matrix)

    def test_path_through_pin_is_zero(self):
        qp = rand_qspin_params(random.Random(1), 3)
        rep = qspin_det_sides(PATH3, Pinning.of({1: 2}), 0, 2, qp)
        assert rep.path_hits_pinning
        assert rep.lhs == ExactComplex(0) and rep.equal


def test_exact_determinant_matches_leibniz_2x2():
    m = [[ExactComplex(1), ExactComplex(2)], [ExactComplex(3), ExactComplex(4)]]
    assert exact_determinant(m) == ExactComplex(-2)


@pytest.mark.parametrize("q", range(1, 13))
def test_exact_determinant_matches_vandermonde_product(q):
    # det [x_i^j] = prod_{i<j} (x_j - x_i), an oracle sharing no code with
    # any expansion; a repeated node makes the product, and the determinant, 0
    rng = random.Random(40 + q)
    for trial in range(25):
        xs = [scalar(rng, complex_prob=0.5) for _ in range(q)]
        if q > 1 and trial % 5 == 0:
            xs[-1] = xs[0]
        rows = []
        for x in xs:
            row = [ExactComplex(1)]
            for _ in range(q - 1):
                row.append(row[-1] * x)
            rows.append(tuple(row) if trial % 2 else row)
        expected = ExactComplex(1)
        for i in range(q):
            for j in range(i + 1, q):
                expected = expected * (xs[j] - xs[i])
        assert exact_determinant(rows) == expected, xs


@pytest.mark.parametrize("rows,det", [
    ([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], (-1, 0)),
    # the second pivot vanishes after the first step: rows 1 and 2 swap
    ([[(1, 0), (2, 0), (3, 0)], [(2, 0), (4, 0), (5, 0)], [(3, 0), (5, 0), (6, 0)]], (-1, 0)),
    ([[(0, 0), (0, 1), (2, 0)], [(0, 0), (1, 0), (0, 0)], [(0, 2), (0, 0), (1, 1)]], (0, -4)),
    # no row has a nonzero entry in the first column
    ([[(0, 0), (1, 0)], [(0, 0), (2, 0)]], (0, 0)),
])
def test_det_swaps_a_zero_pivot(rows, det):
    assert _det(rows) == det_laplace(rows) == det


def test_det_matches_laplace_on_sparse_gaussian_matrices():
    # many zero entries make zero pivots, and swaps, common
    rng = random.Random(77)
    for _ in range(300):
        q = rng.randint(1, 6)
        rows = [[(rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.5 else (0, 0)
                 for _ in range(q)] for _ in range(q)]
        assert _det(rows) == det_laplace(rows), rows


def test_qspin_det_sides_at_q5_matches_the_laplace_determinant():
    rng = random.Random(505)
    for _ in range(20):
        n = rng.randint(2, 6)
        t = rand_tree(rng, n)
        qp = rand_qspin_params(rng, 5)
        u, v = rng.sample(range(n), 2)
        pins = rand_qspin_pinning(rng, t, 5, exclude=(u, v))
        rep = qspin_det_sides(t, pins, u, v, qp)
        columns = [z_qspin_tree(t, pins.with_pin(v, s), qp, root=u)[1].at(u)
                   for s in range(1, 6)]
        assert rep.lhs == exact_determinant_laplace(list(zip(*columns))), (t, pins, u, v)
        assert exact_determinant(qp.matrix) == exact_determinant_laplace(qp.matrix)
        assert rep.equal


def hanging_subtrees(t: Graph, path: list[int]) -> list[tuple[Graph, dict[int, int], int]]:
    """Components of t minus the path, each with its attachment vertex.

    Returns (subtree, old->new vertex map, attachment vertex in old ids) for
    every neighbor of the path that is not itself on the path, in ascending
    attachment order. In a tree each hanging component has exactly one
    attachment vertex.
    """
    on_path = set(path)
    attach = sorted({y for x in path for y in t.neighbors(x) if y not in on_path})
    out = []
    for v_i in attach:
        comp = {v_i}
        queue = deque([v_i])
        while queue:
            x = queue.popleft()
            for y in t.neighbors(x):
                if y not in on_path and y not in comp:
                    comp.add(y)
                    queue.append(y)
        comp_graph, comp_map = t.delete_vertices(set(range(t.n)) - comp)
        out.append((comp_graph, comp_map, v_i))
    return out


class TestPairFactorizations:
    """The adjacent-pair partition values factor over hanging subtrees.

    For adjacent u, v the four pair-pinned values are products of the
    vertex weights, the edge activity between u and v, and one factor per
    hanging subtree: (beta Z+ + Z-) when the attachment neighbor is +, and
    (Z+ + gamma Z-) when it is -. This is the structural fact the
    identity's induction rests on, so it gets its own direct check.
    """

    def _messages(self, t, pins, params, path, lams):
        from spinmix.partition import z_tree as ztree
        out = []
        for sub, remap, v_i in hanging_subtrees(t, path):
            sub_params = Params(params.beta, params.gamma,
                                tuple(lams[old] for old in sorted(remap)))
            _, msgs = ztree(sub, remapped(restricted(pins, remap), remap),
                            sub_params, root=remap[v_i])
            out.append((v_i, msgs.at(remap[v_i])))
        return out

    def test_adjacent_pair_products(self):
        rng = random.Random(1001)
        for _ in range(25):
            n = rng.randint(2, 10)
            t = rand_tree(rng, n)
            u, v = rng.choice(t.edges)
            params = rand_params(rng, ("generic", "fields")[rng.randrange(2)], n)
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero,
                                         params.gamma_is_zero, exclude=(u, v))
            path = t.tree_path(u, v)
            if any(w in pins for w in path):
                continue
            lams = params.field_vector(n)
            beta, gamma = params.beta, params.gamma
            hanging = self._messages(t, pins, params, path, lams)
            u_side = set(t.neighbors(u))

            def product(spin_for):
                acc = ExactComplex(1)
                for v_i, (zp, zm) in hanging:
                    anchor = spin_for[0] if v_i in u_side else spin_for[1]
                    if anchor == PLUS:
                        acc = acc * (beta * zp + zm)
                    else:
                        acc = acc * (zp + gamma * zm)
                return acc

            lam_u, lam_v = lams[u], lams[v]
            assert z_pair(t, pins, u, PLUS, v, PLUS, params) \
                == lam_u * lam_v * beta * product((PLUS, PLUS))
            assert z_pair(t, pins, u, MINUS, v, MINUS, params) \
                == gamma * product((MINUS, MINUS))
            assert z_pair(t, pins, u, PLUS, v, MINUS, params) \
                == lam_u * product((PLUS, MINUS))
            assert z_pair(t, pins, u, MINUS, v, PLUS, params) \
                == lam_v * product((MINUS, PLUS))

    def test_one_step_recursion(self):
        # peeling the endpoint v off the path: Z^{u su, v+} equals
        # lambda_v * (beta Z_T0^{v0+, u su} + Z_T0^{v0-, u su}) times one
        # factor per subtree hanging off v
        rng = random.Random(1002)
        done = 0
        while done < 15:
            n = rng.randint(4, 10)
            t = rand_tree(rng, n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            path = t.tree_path(u, v)
            if len(path) < 3:
                continue
            params = rand_params(rng, "generic", n)
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero,
                                         params.gamma_is_zero, exclude=tuple(path))
            lams = params.field_vector(n)
            beta, gamma = params.beta, params.gamma
            v0 = path[-2]
            comp0 = {v0}
            frontier = [v0]
            while frontier:
                x = frontier.pop()
                for y in t.neighbors(x):
                    if y != v and y not in comp0:
                        comp0.add(y)
                        frontier.append(y)
            t0, remap0 = t.delete_vertices(set(range(n)) - comp0)
            sub0_params = Params(beta, gamma, tuple(lams[old] for old in sorted(remap0)))
            pins0 = remapped(restricted(pins, remap0), remap0)

            def z0(s_v0, s_u):
                return z_pair(t0, pins0, remap0[v0], s_v0, remap0[u], s_u,
                              sub0_params)

            side = ExactComplex(1)
            for w in t.neighbors(v):
                if w == v0:
                    continue
                comp = {w}
                frontier = [w]
                while frontier:
                    x = frontier.pop()
                    for y in t.neighbors(x):
                        if y != v and y not in comp:
                            comp.add(y)
                            frontier.append(y)
                sub, remap = t.delete_vertices(set(range(n)) - comp)
                sub_params = Params(beta, gamma, tuple(lams[old] for old in sorted(remap)))
                _, msgs = z_tree(sub, remapped(restricted(pins, remap), remap),
                                 sub_params, root=remap[w])
                zp, zm = msgs.at(remap[w])
                side = side * (beta * zp + zm)
            for s_u in (PLUS, MINUS):
                lhs = z_pair(t, pins, u, s_u, v, PLUS, params)
                rhs = lams[v] * (beta * z0(PLUS, s_u) + z0(MINUS, s_u)) * side
                assert lhs == rhs
            done += 1


class TestPassCounts:
    """Each identity call makes one tree pass, rooted at u, that holds the
    u-v path back, and reads one numerator table; every pinned value is a
    chain of that pass."""

    STAR = Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))

    @pytest.fixture
    def calls(self, monkeypatch):
        """Per tree pass, its forest roots and held path; per table build,
        the string "table"."""
        calls = []
        real_pass, real_table = partition._tree_pass, partition._numerators

        def counted_pass(pins, table, forest, held=()):
            calls.append((forest[0], list(held)))
            return real_pass(pins, table, forest, held)

        def counted_table(*args):
            calls.append("table")
            return real_table(*args)
        monkeypatch.setattr(partition, "_tree_pass", counted_pass)
        monkeypatch.setattr(partition, "_numerators", counted_table)
        return calls

    def test_cd_sides_one_pass(self, calls):
        params = Params(Fraction(5, 3), Fraction(-2, 7), Fraction(3, 4))
        rep = cd_sides(self.STAR, Pinning.of({4: MINUS}), 0, 2, params)
        assert rep.equal and rep.forms_equal and not rep.path_hits_pinning
        assert calls == ["table", ((0,), [0, 1, 2])]

    def test_cd_sides_one_pass_when_the_path_meets_a_pin(self, calls):
        params = Params(Fraction(5, 3), Fraction(-2, 7), Fraction(3, 4))
        rep = cd_sides(self.STAR, Pinning.of({1: PLUS}), 0, 2, params)
        assert rep.equal and rep.forms_equal and rep.path_hits_pinning
        assert calls == ["table", ((0,), [0, 1, 2])]

    @pytest.mark.parametrize("q", [2, 3])
    def test_qspin_det_sides_one_pass(self, calls, q):
        qp = rand_qspin_params(random.Random(q), q)
        rep = qspin_det_sides(self.STAR, Pinning.of({4: q}), 0, 2, qp)
        assert rep.equal and not rep.path_hits_pinning
        assert rep.forms_equal is None
        assert calls == ["table", ((0,), [0, 1, 2])]

    def test_gutman_sides_one_pass_rooted_at_u(self, calls):
        rep = gutman_sides(self.STAR, 2, 4, Fraction(3, 4))
        assert rep.equal and rep.forms_equal is None
        assert calls == ["table", ((2,), [2, 1, 3, 4])]


class TestNumeratorTable:
    """Every pass of one identity call reads one numerator table, kept on its
    parameter set, and the pair matrix's determinant is taken on the root
    numerators at u."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """One entry per _numerators call."""
        calls = []
        real = partition._numerators

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(partition, "_numerators", counted)
        return calls

    def test_one_table_per_identity_call(self, builds):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.randint(2, 10)
            t = rand_tree(rng, n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            params = rand_params(rng, PARAM_MODES[trial % len(PARAM_MODES)], n)
            pins = rand_feasible_pinning(rng, t, params.beta_is_zero,
                                         params.gamma_is_zero, exclude=(u, v))
            qp = rand_qspin_params(rng, 2 + trial % 2)
            qpins = rand_qspin_pinning(rng, t, qp.q, exclude=(u, v))
            for call in (lambda: cd_sides(t, pins, u, v, params),
                         lambda: gutman_sides(t, u, v, params.field if params.uniform
                                              else Fraction(1, 2)),
                         lambda: qspin_det_sides(t, qpins, u, v, qp)):
                builds.clear()
                assert call().equal
                assert len(builds) == 1
            # a parameter set that already holds the table for n builds none
            builds.clear()
            cd_sides(t, pins, u, v, params)
            qspin_det_sides(t, qpins, u, v, qp)
            assert builds == []

    def test_lhs_is_the_determinant_of_the_root_numerators(self):
        rng = random.Random(47)
        for trial in range(320):
            q = 2 + trial % 2
            n = rng.randint(2, 10)
            t = rand_tree(rng, n)
            u, v = rand_unpinned_pair(rng, t, Pinning())
            qp = rand_qspin_params(rng, q)
            pins = rand_qspin_pinning(rng, t, q, exclude=(u, v))
            passes = [z_qspin_tree(t, pins.with_pin(v, s), qp, root=u)[1]
                      for s in range(1, q + 1)]
            unpinned = z_qspin_tree(t, pins, qp, root=u)[1]
            # u's exponent depends on the forest rooted at u, not on the pins
            assert len({m.msgs[u][1] for m in [unpinned, *passes]}) == 1
            columns = [m.at(u) for m in passes]
            assert (qspin_det_sides(t, pins, u, v, qp).lhs
                    == exact_determinant(list(zip(*columns))))

    def test_kept_table_leaves_equality_hash_and_repr(self):
        pairs = [(Params(Fraction(5, 3), Fraction(-2, 7), Fraction(3, 4)),
                  Params(Fraction(5, 3), Fraction(-2, 7), Fraction(3, 4))),
                 (rand_qspin_params(random.Random(3), 3),
                  rand_qspin_params(random.Random(3), 3))]
        for used, fresh in pairs:
            rep = (cd_sides(PATH3, Pinning(), 0, 2, used) if isinstance(used, Params)
                   else qspin_det_sides(PATH3, Pinning(), 0, 2, used))
            assert rep.equal
            assert used._table is not None and fresh._table is None
            assert used == fresh and hash(used) == hash(fresh)
            assert repr(used) == repr(fresh) and "_table" not in repr(used)
            assert replace(used)._table is None and replace(used) == fresh


def cd_by_separate_passes(t, p, u, v, params):
    """(lhs, rhs, equal, forms_equal) with every partition value from a pass
    of its own, as cd-check took them when one instance made 12 passes: the
    four pair values through z_pair, Z, Z+-_u and Z+-_v through z_tree at
    the default roots, and the right side as the product of its factors over
    the hanging subtrees, each evaluated on its own."""
    zpp = z_pair(t, p, u, PLUS, v, PLUS, params)
    zmm = z_pair(t, p, u, MINUS, v, MINUS, params)
    zpm = z_pair(t, p, u, PLUS, v, MINUS, params)
    zmp = z_pair(t, p, u, MINUS, v, PLUS, params)
    lhs = zpp * zmm - zpm * zmp
    path = t.tree_path(u, v)
    if any(w in p for w in path):
        rhs = ExactComplex(0)
    else:
        lams = params.field_vector(t.n)
        beta, gamma = params.beta, params.gamma
        rhs = (beta * gamma - ExactComplex(1)) ** (len(path) - 1)
        for w in path:
            rhs = rhs * lams[w]
        for sub, remap, attach in hanging_subtrees(t, path):
            sub_params = Params(beta, gamma, tuple(lams[old] for old in sorted(remap)))
            _, msgs = z_tree(sub, remapped(restricted(p, remap), remap), sub_params,
                             root=remap[attach])
            zp, zm = msgs.at(remap[attach])
            rhs = rhs * (beta * zp + zm) * (zp + gamma * zm)

    def z(pins):
        if not is_feasible(t, pins, params.beta_is_zero, params.gamma_is_zero):
            return ExactComplex(0)
        return z_tree(t, pins, params)[0]
    zp_u, zm_u = z(p.with_pin(u, PLUS)), z(p.with_pin(u, MINUS))
    zp_v, zm_v = z(p.with_pin(v, PLUS)), z(p.with_pin(v, MINUS))
    forms = (z(p) * zpp - zp_u * zp_v == lhs and z(p) * zmm - zm_u * zm_v == lhs)
    return lhs, rhs, lhs == rhs, forms


def test_shared_passes_equal_the_separate_pass_route():
    rng = random.Random(8128)
    hits = 0
    for trial in range(240):
        n = rng.randint(2, 12)
        t = rand_tree(rng, n)
        params = rand_params(rng, PARAM_MODES[trial % len(PARAM_MODES)], n)
        u, v = rand_unpinned_pair(rng, t, Pinning())
        pins = rand_feasible_pinning(rng, t, params.beta_is_zero, params.gamma_is_zero,
                                     exclude=(u, v), pin_prob=(0.3, 0.6)[trial % 2])
        rep = cd_sides(t, pins, u, v, params)
        assert (rep.lhs, rep.rhs, rep.equal, rep.forms_equal) \
            == cd_by_separate_passes(t, pins, u, v, params), (t, pins, u, v, params)
        assert cd_equivalent_forms(t, pins, u, v, params) == rep.forms_equal
        hits += rep.path_hits_pinning
    assert hits >= 40


@pytest.mark.parametrize("entry", [0, 1], ids=["plus", "minus"])
def test_perturbed_v_rooted_value_fails_the_forms_check(entry, monkeypatch):
    """Z+-_v comes from the chain toward v, not from the pair matrix's
    column sums, so a wrong value there fails the forms check."""
    star = TestPassCounts.STAR
    params = Params(Fraction(5, 3), Fraction(-2, 7), Fraction(3, 4))
    pins, u, v = Pinning.of({4: MINUS}), 0, 2
    assert cd_sides(star, pins, u, v, params).forms_equal
    real = partition.TreeMessages.chain

    def perturbed(self, path, pins=None):
        vec = real(self, path, pins)
        if path[-1] == v:
            vec = [(re + 1, im) if i == entry else (re, im) for i, (re, im) in enumerate(vec)]
        return vec

    monkeypatch.setattr(partition.TreeMessages, "chain", perturbed)
    rep = cd_sides(star, pins, u, v, params)
    assert rep.equal and rep.forms_equal is False
    assert cd_equivalent_forms(star, pins, u, v, params) is False


@pytest.mark.parametrize("params", [Params(2, 3, 1), Params(0, 1, Fraction(1, 2))],
                         ids=["generic", "hardcore"])
def test_pin_outside_the_tree_is_pinning_error(params):
    with pytest.raises(PinningError, match="out of range"):
        cd_sides(PATH3, Pinning.of({7: PLUS}), 0, 2, params)
    with pytest.raises(PinningError, match="out of range"):
        cd_equivalent_forms(PATH3, Pinning.of({7: MINUS}), 0, 2, params)
    with pytest.raises(PinningError, match="out of range"):
        qspin_det_sides(PATH3, Pinning.of({7: 1}), 0, 2,
                        rand_qspin_params(random.Random(0), 3))


@pytest.mark.parametrize("g", [Graph(3, ((0, 1), (1, 2), (0, 2))),
                               Graph(4, ((0, 1), (2, 3)))],
                         ids=["triangle", "two-components"])
def test_non_tree_is_not_a_tree_error(g):
    # the pass over the forest rooted at u accepts the two components: only
    # the identities' tree check rejects them
    with pytest.raises(NotATreeError):
        cd_sides(g, Pinning(), 0, 1, Params(2, 3, 1))
    with pytest.raises(NotATreeError):
        gutman_sides(g, 0, 1, 1)
    with pytest.raises(NotATreeError):
        qspin_det_sides(g, Pinning(), 0, 1, rand_qspin_params(random.Random(0), 3))


def test_adjacent_plus_pins_at_beta_zero_are_pinning_error():
    path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    pins = Pinning.of({2: PLUS, 3: PLUS})
    params = hardcore_params(Fraction(1, 2))
    with pytest.raises(PinningError, match="infeasible"):
        cd_sides(path4, pins, 0, 1, params)
    with pytest.raises(PinningError, match="infeasible"):
        cd_equivalent_forms(path4, pins, 0, 1, params)


def chain_route_instances(seed, trials):
    """Seeded random trees with a vertex pair, and a census of the cases the
    chain route must get right: u and v adjacent (d = 1), a leaf endpoint."""
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(trials):
        n = rng.randint(2, 12)
        t = rand_tree(rng, n)
        u, v = rand_unpinned_pair(rng, t, Pinning())
        seen["adjacent"] += v in t.neighbors(u)
        seen["leaf endpoint"] += min(t.degree(u), t.degree(v)) == 1
        yield rng, t, u, v, seen


def test_gutman_sides_equals_the_per_pass_route():
    for rng, t, u, v, seen in chain_route_instances(4099, 200):
        lam = scalar(rng, nonzero=True, complex_prob=0.3)
        rep = gutman_sides(t, u, v, lam)
        assert (rep.lhs, rep.rhs) == gutman_by_passes(t, u, v, lam), (t, u, v, lam)
        assert rep.equal and rep.distance == len(t.tree_path(u, v)) - 1
    assert seen["adjacent"] >= 20 and seen["leaf endpoint"] >= 40


def test_cd_sides_equals_the_reduced_value_route():
    """The sides and both verdicts, taken on numerators and reduced once,
    equal those taken on reduced values, bit for bit, in every parameter
    mode, on paths that meet a pin, at d = 1 and with non-uniform fields."""
    seen = Counter()
    for trial, (rng, t, u, v, cases) in enumerate(chain_route_instances(5011, 360)):
        mode = PARAM_MODES[trial % len(PARAM_MODES)]
        params = rand_params(rng, mode, t.n)
        pins = rand_feasible_pinning(rng, t, params.beta_is_zero, params.gamma_is_zero,
                                     exclude=(u, v), pin_prob=(0.3, 0.6)[trial % 2])
        rep = cd_sides(t, pins, u, v, params)
        ref = cd_sides_reference(t, pins, u, v, params)
        assert rep == ref, (t, pins, u, v, params)
        assert (rep.lhs._abd, rep.rhs._abd) == (ref.lhs._abd, ref.rhs._abd)
        assert (str(rep.lhs), str(rep.rhs)) == (str(ref.lhs), str(ref.rhs))
        assert rep.equal and rep.forms_equal
        seen[mode] += 1
        seen["hits"] += rep.path_hits_pinning
        seen["d = 1"] += rep.distance == 1
        seen["non-uniform, path clear"] += not (params.uniform or rep.path_hits_pinning)
    assert all(seen[mode] == 60 for mode in PARAM_MODES)
    assert seen["hits"] >= 60 and seen["d = 1"] >= 40
    assert seen["non-uniform, path clear"] >= 20 and cases["leaf endpoint"] >= 60


def test_gutman_sides_equals_the_reduced_value_route():
    for rng, t, u, v, seen in chain_route_instances(5023, 200):
        lam = scalar(rng, nonzero=True, complex_prob=0.3)
        rep = gutman_sides(t, u, v, lam)
        ref = gutman_sides_reference(t, u, v, lam)
        assert rep == ref, (t, u, v, lam)
        assert (rep.lhs._abd, rep.rhs._abd) == (ref.lhs._abd, ref.rhs._abd)
    assert seen["adjacent"] >= 20 and seen["leaf endpoint"] >= 40


@pytest.mark.parametrize("q", [2, 3, 4])
def test_qspin_det_sides_equals_the_per_pass_route(q):
    pins_seen = Counter()
    for rng, t, u, v, seen in chain_route_instances(6007 + q, 150):
        qp = rand_qspin_params(rng, q)
        pins = rand_qspin_pinning(rng, t, q, exclude=(u, v), pin_prob=0.3)
        path = t.tree_path(u, v)
        pins_seen["on path"] += any(w in pins for w in path)
        pins_seen["hanging"] += any(y in pins and y not in path
                                    for w in path for y in t.neighbors(w))
        rep = qspin_det_sides(t, pins, u, v, qp)
        assert (rep.lhs, rep.rhs) == qspin_det_by_passes(t, pins, u, v, qp), (t, pins, u, v)
        assert rep.equal and rep.path_hits_pinning == any(w in pins for w in path)
    assert seen["adjacent"] >= 15 and seen["leaf endpoint"] >= 30
    assert pins_seen["on path"] >= 15 and pins_seen["hanging"] >= 30


@pytest.mark.parametrize("u,v", [(0, 3), (3, 0), (0, -1), (-1, 0), (0, 99)])
def test_out_of_range_endpoint_is_pinning_error(u, v):
    with pytest.raises(PinningError):
        cd_sides(PATH3, Pinning(), u, v, Params(2, 3, 1))
    with pytest.raises(PinningError):
        qspin_det_sides(PATH3, Pinning(), u, v, rand_qspin_params(random.Random(0), 3))


@pytest.mark.parametrize("u,v", [(0, 3), (3, 0), (0, -1), (-1, 0), (0, 99)])
def test_gutman_out_of_range_endpoint_is_pinning_error(u, v):
    with pytest.raises(PinningError):
        gutman_sides(PATH3, u, v, 1)


def test_gutman_equal_endpoints_rejected():
    with pytest.raises(ValueError, match="distinct"):
        gutman_sides(PATH3, 1, 1, 1)


# SHA-256 of the CSV reports of 40 trials at seed 5, recorded while the left
# side still made q^2 pair-pinned partition calls. The rows hold only exact
# str(lhs)/str(rhs) values, so the digests do not depend on the host.
IDENTITY_REPORTS = [
    (["cd-check"],
     "0654fd5d27b3689ed8496d9c4e750400eecf6d51571c3d2b1ac787330d04829c"),
    (["qspin-check", "--q", "3"],
     "26c8b23b8caeb2c1ff64d8d6c382f06efd5a3fe29419b9c3ce50f03020dc5343"),
]


@pytest.mark.parametrize("argv,digest", IDENTITY_REPORTS, ids=["cd-check", "qspin-check-q3"])
def test_identity_report_digest(argv, digest, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = cli.main([*argv, "--trials", "40", "--seed", "5", "--out", str(report)])
    assert code == 0
    assert capsys.readouterr().out.endswith(f"{argv[0]} pass=40 fail=0 seed=5\n")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


# SHA-256 of the CSV report of 40 gutman-check trials at seed 5, recorded
# while gutman_sides built each T - S as an induced subgraph.
GUTMAN_REPORT = "a896af5edc6cdb37bff6d36f1ee37b31439b58cf01880fdd13e8ac6efc3553b4"


def test_gutman_report_digest(tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = cli.main(["gutman-check", "--trials", "40", "--seed", "5", "--out", str(report)])
    assert code == 0
    assert capsys.readouterr().out.endswith("gutman-check pass=40 fail=0 seed=5\n")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GUTMAN_REPORT


def test_eval_cd_builds_each_forest_order_once(monkeypatch):
    """One cd-check instance runs 1 tree pass on one parsed graph, rooted at
    u, also when the u-v path meets a pin."""
    calls = []
    real = partition._forest_order

    def counted(g, root):
        calls.append(root)
        return real(g, root)

    monkeypatch.setattr(partition, "_forest_order", counted)
    rng = random.Random(5)
    cfg = cli._build_parser().parse_args(["cd-check"])
    hits = 0
    for trial in range(12):
        inst = cli._gen_cd(cfg, rng, trial)
        calls.clear()
        ok, row = cli.eval_cd(inst)
        assert ok
        assert calls == [inst["u"]]
        hits += row["path_hits_pinning"]
    assert hits > 0


def test_cd_sides_builds_each_bfs_forest_once(monkeypatch):
    """The tree check, tree_path and the one pass of an identity call share
    the graph's kept forest: 3 reads of Graph.bfs, all rooted at u, build
    one forest, and none for v or for no root. gutman_sides and
    qspin_det_sides run on a fresh copy of each cd-check tree."""
    reads, built = [], {}
    real = Graph.bfs

    def counted(self, root=None):
        # a built forest is a new object, a kept one is returned again;
        # holding every forest keeps their ids distinct
        forest = real(self, root)
        reads.append(root)
        built.setdefault(id(forest), (root, forest))
        return forest

    monkeypatch.setattr(Graph, "bfs", counted)
    rng = random.Random(19)
    cfg = cli._build_parser().parse_args(["cd-check"])
    qp = rand_qspin_params(random.Random(0), 3)
    for trial in range(12):
        inst = cli._gen_cd(cfg, rng, trial)
        t, u, v = inst["graph"], inst["u"], inst["v"]
        calls = [lambda g: cd_sides(g, inst["pins"], u, v, inst["params"]),
                 lambda g: gutman_sides(g, u, v, 1),
                 lambda g: qspin_det_sides(g, Pinning(), u, v, qp)]
        for call in calls:
            reads.clear()
            built.clear()
            assert call(t).equal
            roots = [root for root, _ in built.values()]
            assert roots == [u]
            assert reads == [u] * 3
            t = Graph(t.n, t.edges)
