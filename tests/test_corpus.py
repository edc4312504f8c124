"""Corpus draws against the loops they replaced: the same instances from the
same random stream."""

import random
from fractions import Fraction

import pytest

from conftest import is_connected
from spinmix import corpus
from spinmix.graphs import Graph
from spinmix.numerics import ExactComplex


def reference_rand_tree(rng, n):
    """The Wilson walk with explicit loop erasure on a Graph built for every
    Erdos-Renyi draw, one rng.random() per pair."""
    for _ in range(1000):
        g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < 0.5))
        if is_connected(g):
            break
    if n <= 1:
        return g
    in_tree = {0}
    edges = []
    for start in range(1, n):
        if start in in_tree:
            continue
        path = [start]
        while path[-1] not in in_tree:
            nxt = rng.choice(g.neighbors(path[-1]))
            if nxt in path:
                path = path[: path.index(nxt) + 1]
            else:
                path.append(nxt)
        for a, b in zip(path, path[1:]):
            edges.append((a, b))
            in_tree.add(a)
        in_tree.add(path[-1])
    return Graph(n, tuple(edges))


def reference_rand_bounded_degree_graph(rng, n, dmax, attempts):
    """The bounded-degree draw on a Graph built for every Erdos-Renyi
    candidate, one rng.random() per pair: the degree test, then
    connectivity."""
    for _ in range(attempts):
        g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < 0.5))
        if g.max_degree() <= dmax and is_connected(g):
            return g
    raise RuntimeError(f"no degree-{dmax} connected graph on {n} vertices")


def reference_rand_scalar(rng, nonzero=False, complex_prob=0.0):
    """The scalar draw through Fraction."""
    for _ in range(corpus.DRAW_LIMIT):
        if rng.random() < complex_prob:
            x = ExactComplex(Fraction(rng.randint(-10, 10), rng.randint(1, 10)),
                             Fraction(rng.randint(-10, 10), rng.randint(1, 10)))
        else:
            x = ExactComplex(Fraction(rng.randint(-10, 10), rng.randint(1, 10)))
        if not nonzero or not x.is_zero():
            return x


def test_tree_same_trees_and_stream_as_reference():
    for seed in range(600):
        n = seed % 13
        mine, theirs = random.Random(seed), random.Random(seed)
        t = corpus.rand_tree(mine, n)
        assert t == reference_rand_tree(theirs, n)
        assert (is_connected(t) and len(t.edges) == n - 1) or n == 0
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("dmax", [2, 3, 4])
def test_bounded_degree_same_graphs_and_stream_as_reference(dmax):
    # attempts is small so that the sparse bounds (n = 10 at dmax = 2 has no
    # connected draw in reach) also compare the streams of exhausted loops
    drawn = exhausted = 0
    for n in range(2, 11):
        for seed in range(4):
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                try:
                    g = corpus.rand_bounded_degree_graph(mine, n, dmax, attempts=300)
                except RuntimeError:
                    with pytest.raises(RuntimeError):
                        reference_rand_bounded_degree_graph(theirs, n, dmax, 300)
                    exhausted += 1
                else:
                    assert g == reference_rand_bounded_degree_graph(theirs, n, dmax, 300)
                    drawn += 1
                assert mine.getstate() == theirs.getstate()
    assert drawn >= 40 and exhausted >= 1


@pytest.mark.parametrize("nonzero", [False, True])
@pytest.mark.parametrize("complex_prob", [0.0, 0.2, 0.25, 0.3, 0.6, 1.0])
def test_scalar_same_values_and_stream_as_reference(nonzero, complex_prob):
    zeros = 0
    for seed in range(500):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            x = corpus.rand_scalar(mine, nonzero, complex_prob)
            y = reference_rand_scalar(theirs, nonzero, complex_prob)
            # equal values have equal canonical triples
            assert x._abd == y._abd
            zeros += x.is_zero()
        assert mine.getstate() == theirs.getstate()
    assert (zeros == 0) == nonzero


@pytest.mark.parametrize("draw", [
    lambda rng: corpus.rand_tree(rng, 9),
    lambda rng: corpus.rand_connected_graph(rng, 9),
    lambda rng: corpus.rand_bounded_degree_graph(rng, 9, 3),
], ids=["tree", "connected", "bounded-degree"])
def test_each_draw_builds_one_graph(draw, monkeypatch):
    built = []
    post_init = Graph.__post_init__

    def counted(g):
        built.append(g)
        post_init(g)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    rng = random.Random(3)
    for _ in range(50):
        g = draw(rng)
        assert built == [g]
        built.clear()
