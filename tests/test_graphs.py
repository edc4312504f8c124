import math
import random

import pytest

from conftest import is_connected, random_graph, remapped, restricted
from spinmix.errors import GraphFormatError, PinningError
from spinmix.graphs import (Graph, MINUS, PLUS, Pinning, build_saw_tree,
                            build_saw_tree_truncated, disagreement_distance,
                            edges_connected, is_feasible, is_proper, parse_graph,
                            parse_pinning)


class TestParseGraph:
    def test_single_edge(self):
        g = parse_graph('{"n":2,"edges":[[0,1]]}')
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_triangle(self):
        g = parse_graph('{"n":3,"edges":[[0,1],[1,2],[0,2]]}')
        assert len(g.edges) == 3

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"n":1,"edges":[[0,0]]}')

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"n":2,"edges":[[0,1],[1,0]]}')

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"n":2,"edges":[[0,2]]}')

    def test_malformed_document(self):
        with pytest.raises(GraphFormatError):
            parse_graph("{not json")

    def test_fields_quadruples(self):
        g = parse_graph('{"n":2,"edges":[[0,1]],"fields":[[1,2,0,1],[3,1,-1,4]]}')
        assert str(g.fields[0]) == "1/2"
        assert str(g.fields[1]) == "3-1/4i"

    def test_zero_field_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"n":1,"edges":[],"fields":[[0,1,0,1]]}')

    def test_empty_field_list_is_an_empty_vector(self):
        # an empty list is not an absent one: Graph's length check rejects it
        with pytest.raises(GraphFormatError, match="field vector length"):
            parse_graph('{"n":2,"edges":[[0,1]],"fields":[]}')
        assert parse_graph('{"n":0,"edges":[],"fields":[]}').fields == ()

    def test_round_trip(self):
        g = parse_graph('{"n":3,"edges":[[0,2],[0,1]],"fields":[[1,1,0,1],[2,1,0,1],[1,3,0,1]]}')
        assert parse_graph(g.to_json()) == g


class TestPinning:
    def test_parse(self):
        p = parse_pinning('{"pins": {"0": "+", "2": "-"}}')
        assert p.get(0) == PLUS and p.get(2) == MINUS and 1 not in p

    def test_double_pin_rejected(self):
        with pytest.raises(PinningError):
            Pinning(((0, PLUS), (0, MINUS)))
        with pytest.raises(PinningError):
            Pinning.of({0: PLUS}).with_pin(0, MINUS)

    def test_duplicate_vertex_rejected_with_either_spin(self):
        for spins in ((PLUS, PLUS), (PLUS, MINUS)):
            with pytest.raises(PinningError):
                Pinning(((2, spins[0]), (0, MINUS), (2, spins[1])))

    def test_equal_and_hash_independent_of_order(self):
        a = Pinning(((3, PLUS), (0, MINUS), (1, PLUS)))
        b = Pinning.of({1: PLUS, 0: MINUS}).with_pin(3, PLUS)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == repr(b) == "Pinning(pins=((0, '-'), (1, '+'), (3, '+')))"
        assert a.to_json() == b.to_json() == {"pins": {"0": "-", "1": "+", "3": "+"}}
        assert a != Pinning.of({0: MINUS, 1: PLUS, 3: MINUS})
        assert [a.get(v, "free") for v in range(4)] == [MINUS, PLUS, "free", PLUS]
        assert [v in a for v in range(4)] == [True, True, False, True]

    def test_bad_spin_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_pinning('{"pins": {"0": "?"}}')

    def test_flip_restrict_remap(self):
        p = Pinning.of({0: PLUS, 3: MINUS})
        assert p.flipped().get(0) == MINUS
        assert restricted(p, [3]).domain() == frozenset([3])
        assert remapped(p, {3: 0}).get(0) == MINUS


class TestFeasibility:
    edge = Graph(2, ((0, 1),))

    def test_adjacent_plus_pins_infeasible_at_beta_zero(self):
        p = Pinning.of({0: PLUS, 1: PLUS})
        assert not is_feasible(self.edge, p, True, False)
        assert is_feasible(self.edge, p, False, False)

    def test_empty_pinning_feasible(self):
        assert is_feasible(self.edge, Pinning(), True, True)

    def test_hereditary(self):
        # every sub-pinning of a feasible pinning is feasible
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, connected=False)
            bz, gz = rng.random() < 0.5, rng.random() < 0.5
            pins = {}
            for v in range(n):
                if rng.random() < 0.4:
                    allowed = [PLUS, MINUS]
                    if bz and any(pins.get(w) == PLUS for w in g.neighbors(v)):
                        allowed.remove(PLUS)
                    if gz and any(pins.get(w) == MINUS for w in g.neighbors(v)):
                        allowed.remove(MINUS)
                    if allowed:
                        pins[v] = rng.choice(allowed)
            p = Pinning.of(pins)
            assert is_feasible(g, p, bz, gz)
            sub = Pinning.of({v: s for v, s in pins.items() if rng.random() < 0.5})
            assert is_feasible(g, sub, bz, gz)


class TestProper:
    def test_hardcore_neighbor_pin(self):
        g = Graph(2, ((0, 1),))
        p = Pinning.of({0: PLUS})
        assert not is_proper(g, p, 1, True, False)
        assert is_proper(g, p, 1, False, False)

    def test_pinned_vertex_not_proper(self):
        g = Graph(2, ((0, 1),))
        assert not is_proper(g, Pinning.of({0: PLUS}), 0, False, False)

    @pytest.mark.parametrize("v", [2, 99, -1])
    @pytest.mark.parametrize("bz", [True, False])
    def test_out_of_range_vertex_rejected(self, v, bz):
        # -1 must not reach the last vertex through negative indexing
        with pytest.raises(PinningError, match="out of range"):
            is_proper(Graph(2, ((0, 1),)), Pinning(), v, bz, False)


class TestDisagreementDistance:
    path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))

    def test_single_far_disagreement(self):
        s, t = Pinning.of({3: PLUS}), Pinning.of({3: MINUS})
        assert disagreement_distance(self.path4, 0, s, t) == 3

    def test_equal_pinnings(self):
        s = Pinning.of({3: PLUS})
        assert disagreement_distance(self.path4, 0, s, s) == math.inf

    def test_domain_difference(self):
        g = Graph(3, ((0, 1), (1, 2)))
        s, t = Pinning.of({1: PLUS}), Pinning.of({2: PLUS})
        assert disagreement_distance(g, 0, s, t) == 1

    def test_unreachable(self):
        g = Graph(3, ((0, 1),))
        s, t = Pinning.of({2: PLUS}), Pinning.of({2: MINUS})
        assert disagreement_distance(g, 0, s, t) == math.inf


class TestSawTree:
    def test_triangle_golden(self):
        # root 0 with neighbors 1 < 2: two length-3 branches ending in
        # oppositely pinned copies of the root
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        st = build_saw_tree(g, 0, Pinning())
        assert st.tree.edges == ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6))
        assert st.origin == (0, 1, 2, 2, 1, 0, 0)
        # branch through 1 closes via 2 > 1 so that copy is "+"
        assert st.pinning.as_dict() == {5: PLUS, 6: MINUS}

    def test_four_cycle(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        st = build_saw_tree(g, 0, Pinning())
        # root plus two walks around the cycle, each with three interior
        # vertices and a closing copy of the root
        assert st.tree.n == 9
        copies = st.copies_of(0)
        spins = sorted(st.pinning.get(c) for c in copies if c != 0)
        assert spins == [PLUS, MINUS]
        # distance preservation on every ball
        for k in (1, 2, 3):
            src = {v for v, d in enumerate(g.distances_from(0)) if d <= k}
            mapped = {st.origin[x] for x, d in enumerate(st.tree.distances_from(0)) if d <= k}
            assert mapped == src

    def test_tree_input_isomorphic(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        p = Pinning.of({3: MINUS})
        st = build_saw_tree(g, 0, p)
        assert st.tree.n == g.n
        assert sorted(st.origin) == list(range(4))
        assert {st.origin[v]: s for v, s in st.pinning.items()} == {3: MINUS}

    def test_walk_stops_at_pins(self):
        # pinned middle vertex prunes everything behind it
        g = Graph(3, ((0, 1), (1, 2)))
        st = build_saw_tree(g, 0, Pinning.of({1: PLUS}))
        assert st.tree.n == 2
        assert st.pinning.as_dict() == {1: PLUS}

    def test_root_pinned_rejected(self):
        g = Graph(2, ((0, 1),))
        with pytest.raises(PinningError):
            build_saw_tree(g, 0, Pinning.of({0: PLUS}))

    def test_infeasible_pinning_rejected(self):
        g = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(PinningError):
            build_saw_tree(g, 0, Pinning.of({1: PLUS, 2: PLUS}),
                           beta_is_zero=True)

    def test_deterministic(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7))
            a = build_saw_tree(g, 0, Pinning())
            b = build_saw_tree(g, 0, Pinning())
            assert a == b

    def test_structure_preservation_exhaustive_small(self):
        # all connected graphs on <= 4 vertices, every root
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for mask in range(64):
            edges = tuple(e for i, e in enumerate(pairs) if mask >> i & 1)
            g = Graph(4, edges)
            if not is_connected(g):
                continue
            for root in range(4):
                st = build_saw_tree(g, root, Pinning())
                assert st.tree.max_degree() == g.max_degree()
                dist_g = g.distances_from(root)
                dist_t = st.tree.distances_from(0)
                for w in range(4):
                    best = min((dist_t[x] for x in st.copies_of(w)),
                               default=math.inf)
                    assert best == dist_g[w]

    def test_structure_preservation_random(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_graph(rng, n)
            root = rng.randrange(n)
            st = build_saw_tree(g, root, Pinning())
            assert st.tree.max_degree() == g.max_degree()
            dist_g = g.distances_from(root)
            dist_t = st.tree.distances_from(0)
            for w in range(n):
                best = min((dist_t[x] for x in st.copies_of(w)), default=math.inf)
                assert best == dist_g[w]


class TestTruncatedBuilder:
    def test_depth_zero(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        st, cuts = build_saw_tree_truncated(g, 0, Pinning(), 0)
        assert st.tree.n == 1 and cuts == (0,)

    def test_full_depth_no_cuts(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        st, cuts = build_saw_tree_truncated(g, 0, Pinning(), g.n)
        assert cuts == ()
        assert st == build_saw_tree(g, 0, Pinning())

    def test_cut_vertices_at_boundary(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        st, cuts = build_saw_tree_truncated(g, 0, Pinning(), 2)
        assert st.tree.n == 3
        assert [st.origin[c] for c in cuts] == [2]


def test_disagreement_distance_rejects_foreign_vertices():
    g = Graph(2, ((0, 1),))
    with pytest.raises(PinningError):
        disagreement_distance(g, 0, Pinning.of({5: PLUS}), Pinning())


class TestBfsForest:
    """Distances, components, connectivity and tree paths all read one
    Graph.bfs forest per root; each must agree with a plain BFS."""

    @staticmethod
    def plain_bfs(g, s):
        """Distances and parents from s, neighbours taken in ascending order."""
        dist, parent, queue = {s: 0}, {s: None}, [s]
        for x in queue:
            for y in sorted({a + b - x for a, b in g.edges if x in (a, b)}):
                if y not in dist:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
        return dist, parent

    def test_queries_match_a_plain_bfs(self):
        rng = random.Random(1907)
        connected = []
        for trial in range(200):
            g = random_graph(rng, rng.randint(0, 9), connected=trial % 2 == 0)
            comps = []
            for s in range(g.n):
                dist, parent = self.plain_bfs(g, s)
                assert g.distances_from(s) == [dist.get(x, math.inf) for x in range(g.n)]
                if not any(s in c for c in comps):
                    comps.append(sorted(dist))
                for v in range(g.n):
                    if v not in parent:
                        with pytest.raises(ValueError, match="no path"):
                            g.tree_path(s, v)
                        continue
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    assert g.tree_path(s, v) == path[::-1]
            assert g.components() == comps
            assert is_connected(g) == (len(comps) <= 1)
            connected.append(is_connected(g))
        assert connected.count(False) >= 20

    def test_bit_mask_queries_match_the_forests(self):
        # diameter and edges_connected walk bit-mask frontiers, not forests
        rng = random.Random(2024)
        edgeless = disconnected = 0
        for _ in range(520):
            n = rng.randint(0, 11)
            p = rng.choice((0.0, 0.15, 0.3, 0.5, 0.8))
            g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < p))
            finite = [d for v in range(n) for d in g.distances_from(v) if d != math.inf]
            assert g.diameter() == max(finite, default=0)
            assert edges_connected(n, g.edges) == is_connected(g)
            edgeless += n > 1 and not g.edges
            disconnected += not is_connected(g)
        assert edgeless >= 20 and disconnected >= 100

    def test_neighbours_ascend_whatever_the_edge_order(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(0, 10)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            rng.shuffle(edges)
            g = Graph(n, tuple((j, i) if rng.random() < 0.5 else (i, j) for i, j in edges))
            assert g.edges == tuple(sorted(edges))
            assert g._adj == tuple(tuple(sorted({a + b - v for a, b in edges if v in (a, b)}))
                                   for v in range(n))

    def test_out_of_range_root_or_target(self):
        g = Graph(3, ((0, 1),))
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                g.bfs(bad)
            with pytest.raises(ValueError, match="out of range"):
                g.tree_path(0, bad)


class TestParserRobustness:
    @pytest.mark.parametrize("doc", [
        "[]", "42", '{"edges": []}', '{"n": "three"}',
        '{"n": 2, "edges": [[0]]}', '{"n": 2, "edges": [["a", 1]]}',
        '{"n": 2, "edges": 7}', '{"n": 1, "edges": [], "fields": [[1, 0, 0, 1]]}',
        '{"n": 1, "edges": [], "fields": [[1, 2, 3]]}',
        '{"n": 1, "edges": [], "fields": 5}',
        '{"n": -1, "edges": []}',
        # a JSON boolean is no integer, though Python's bool subclasses int
        '{"n": true, "edges": []}', '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 1, "edges": [], "fields": [[1, true, 0, 1]]}',
    ])
    def test_bad_graph_documents_raise_format_error(self, doc):
        with pytest.raises(GraphFormatError):
            parse_graph(doc)

    @pytest.mark.parametrize("doc", [
        "[]", '{"pins": []}', '{"pins": {"x": "+"}}', '{"pins": {"0": 5}}',
    ])
    def test_bad_pinning_documents_raise_format_error(self, doc):
        with pytest.raises(GraphFormatError):
            parse_pinning(doc)
