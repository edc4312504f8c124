"""Graphs, pinnings, distances, and the self-avoiding-walk tree construction."""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import GraphFormatError, PinningError
from .numerics import ExactComplex

PLUS = "+"
MINUS = "-"


def flip_spin(s: str) -> str:
    return MINUS if s == PLUS else PLUS


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with optional vertex fields.

    ``fields`` (when present) carries a nonzero external-field scalar per
    vertex; it is a parsing artifact used by the CLI to build parameters and
    is never read by the partition-function operations directly.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    fields: tuple[ExactComplex, ...] | None = None
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _forests: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        n = self.n
        seen = set()
        normalized = []
        for e in self.edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex id out of range in edge {e}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        if self.fields is not None:
            flds = tuple(ExactComplex._coerce(x) for x in self.fields)
            if len(flds) != self.n:
                raise GraphFormatError("field vector length must equal vertex count")
            if any(x.is_zero() for x in flds):
                raise GraphFormatError("field values must be nonzero")
            object.__setattr__(self, "fields", flds)
        self._index()

    @classmethod
    def _validated(cls, n: int, edges: tuple[tuple[int, int], ...],
                   fields: tuple[ExactComplex, ...] | None) -> "Graph":
        """The Graph of edges that are already valid, distinct and sorted and
        of fields already coerced and nonzero, built without checking them
        again."""
        g = object.__new__(cls)
        for name, value in (("n", n), ("edges", edges), ("fields", fields), ("_forests", {})):
            object.__setattr__(g, name, value)
        g._index()
        return g

    def _index(self):
        # sorted edges list each vertex's neighbours in ascending order
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    # -- basic queries -------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def bfs(self, root: int | None = None
            ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(roots, order, parent) of the breadth-first forest that starts at
        ``root``, then at each lowest unreached vertex, taking neighbours in
        ascending order; a root's parent is -1. Kept on the graph per root."""
        forest = self._forests.get(root)
        if forest is not None:
            return forest
        if root is not None and not (0 <= root < self.n):
            raise ValueError(f"root {root} out of range")
        parent = [-1] * self.n
        seen = [False] * self.n
        roots, order = [], []
        for s in itertools.chain(() if root is None else (root,), range(self.n)):
            if seen[s]:
                continue
            roots.append(s)
            seen[s] = True
            # order doubles as the queue: its tail from i on is the frontier
            i = len(order)
            order.append(s)
            while i < len(order):
                x = order[i]
                i += 1
                for y in self._adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        parent[y] = x
                        order.append(y)
        forest = self._forests[root] = (tuple(roots), tuple(order), tuple(parent))
        return forest

    def distances_from(self, v: int) -> list[int | float]:
        """BFS distances; unreachable vertices get math.inf."""
        dist: list[int | float] = [math.inf] * self.n
        _, order, parent = self.bfs(v)
        dist[v] = 0
        # v's component opens the order; the next root ends it
        for x in order[1:]:
            if parent[x] < 0:
                break
            dist[x] = dist[parent[x]] + 1
        return dist

    def diameter(self) -> int:
        """Largest finite pairwise distance (0 for edgeless graphs)."""
        masks = _neighbour_masks(self.n, self.edges)
        return max((_frontier_walk(masks, v)[1] for v in range(self.n)), default=0)

    def components(self) -> list[list[int]]:
        comps: list[list[int]] = []
        _, order, parent = self.bfs()
        for x in order:
            if parent[x] < 0:
                comps.append([])
            comps[-1].append(x)
        return [sorted(c) for c in comps]

    # -- derived graphs ------------------------------------------------------

    def delete_vertices(self, vs: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the complement of ``vs`` plus the old->new map.

        The map is increasing, so the kept edges stay valid, distinct and
        sorted once mapped, and the subgraph is not validated again."""
        drop = set(vs)
        keep = [v for v in range(self.n) if v not in drop]
        remap = {old: new for new, old in enumerate(keep)}
        edges = tuple((remap[u], remap[v]) for u, v in self.edges
                      if u not in drop and v not in drop)
        flds = None
        if self.fields is not None:
            flds = tuple(self.fields[v] for v in keep)
        return Graph._validated(len(keep), edges, flds), remap

    def tree_path(self, u: int, v: int) -> list[int]:
        """Vertices of the u-v path in the BFS forest rooted at u: the unique
        one when the graph is acyclic there."""
        parent = self.bfs(u)[2]
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        path = [v]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        if path[-1] != u:
            raise ValueError(f"no path between {u} and {v}")
        return path[::-1]

    def to_json(self) -> dict:
        doc: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.fields is not None:
            doc["fields"] = [[x.re.numerator, x.re.denominator,
                              x.im.numerator, x.im.denominator] for x in self.fields]
        return doc


def _neighbour_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Per vertex of 0..n-1, the bit mask of its neighbours."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _frontier_walk(masks: list[int], v: int) -> tuple[int, int]:
    """(reached, eccentricity): the bit mask of the vertices reachable from v
    and the largest distance to one of them, from one bit-mask frontier per
    breadth-first layer; no forest is built."""
    reached = frontier = 1 << v
    depth = -1
    while frontier:
        depth += 1
        layer = 0
        while frontier:
            low = frontier & -frontier
            layer |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = layer & ~reached
        reached |= frontier
    return reached, depth


def edges_connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the graph on 0..n-1 with these edges is connected, decided on
    bit masks without building a Graph."""
    return n <= 1 or _frontier_walk(_neighbour_masks(n, edges), 0)[0] == (1 << n) - 1


def parse_graph(document: str | dict) -> Graph:
    """Parse {"n": int, "edges": [[u,v],...], "fields": [[rn,rd,in,id],...]?}."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed graph document: {exc}") from exc
    if not isinstance(document, dict):
        raise GraphFormatError("graph document must be a JSON object")
    if type(document.get("n")) is not int:
        raise GraphFormatError("graph document needs an integer 'n'")
    raw_edges = document.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list of pairs")
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(type(x) is int for x in e)):
            raise GraphFormatError(f"bad edge entry {e!r}")
        edges.append((e[0], e[1]))
    fields = None
    if document.get("fields") is not None:
        if not isinstance(document["fields"], list):
            raise GraphFormatError("'fields' must be a list of entries")
        fields = []
        for entry in document["fields"]:
            if not (isinstance(entry, list) and len(entry) == 4
                    and all(type(x) is int for x in entry)):
                raise GraphFormatError(f"bad field entry {entry!r}")
            rn, rd, im_n, im_d = entry
            if rd == 0 or im_d == 0:
                raise GraphFormatError("zero denominator in field entry")
            fields.append(ExactComplex(Fraction(rn, rd), Fraction(im_n, im_d)))
    return Graph(document["n"], tuple(edges), None if fields is None else tuple(fields))


# ---------------------------------------------------------------------------
# Pinnings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pinning:
    """Partial configuration: a frozen map from vertices to spins.

    Spins are "+"/"-" for the 2-spin system; the q-spin operations reuse the
    same container with integer spins 1..q.
    """

    pins: tuple[tuple[int, object], ...] = ()
    _spins: dict[int, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(sorted(self.pins))
        spins = dict(items)
        if len(spins) != len(items):
            raise PinningError("a vertex may be pinned at most once")
        object.__setattr__(self, "pins", items)
        object.__setattr__(self, "_spins", spins)

    @classmethod
    def of(cls, mapping: Mapping[int, object] | None = None) -> "Pinning":
        return cls(tuple((mapping or {}).items()))

    def domain(self) -> frozenset[int]:
        return frozenset(self._spins)

    def __contains__(self, v: int) -> bool:
        return v in self._spins

    def __len__(self):
        return len(self.pins)

    def get(self, v: int, default=None):
        return self._spins.get(v, default)

    def items(self):
        return self.pins

    def as_dict(self) -> dict[int, object]:
        return dict(self._spins)

    def with_pin(self, v: int, spin) -> "Pinning":
        if v in self:
            raise PinningError(f"vertex {v} is already pinned")
        return Pinning(self.pins + ((v, spin),))

    def flipped(self) -> "Pinning":
        return Pinning(tuple((v, flip_spin(s)) for v, s in self.pins))

    def to_json(self) -> dict:
        return {"pins": {str(v): s for v, s in self.pins}}


def parse_pinning(document: str | dict) -> Pinning:
    """Parse {"pins": {"<vertex>": "+"|"-"}}."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed pinning document: {exc}") from exc
    if not isinstance(document, dict) or not isinstance(document.get("pins", {}), dict):
        raise GraphFormatError("pinning document must be {'pins': {...}}")
    pins = []
    for key, spin in document.get("pins", {}).items():
        try:
            v = int(key)
        except ValueError as exc:
            raise GraphFormatError(f"bad vertex key {key!r}") from exc
        if spin not in (PLUS, MINUS):
            raise GraphFormatError(f"bad spin {spin!r} for vertex {key}")
        pins.append((v, spin))
    return Pinning(tuple(pins))


def is_feasible(g: Graph, p: Pinning, beta_is_zero: bool, gamma_is_zero: bool) -> bool:
    """A pinning is infeasible only when a hard edge constraint is violated:
    two adjacent + pins at beta=0, or two adjacent - pins at gamma=0."""
    if not (beta_is_zero or gamma_is_zero):
        return True
    assigned = p.as_dict()
    for u, v in g.edges:
        su = assigned.get(u)
        sv = assigned.get(v)
        if su is None or sv is None:
            continue
        if beta_is_zero and su == PLUS and sv == PLUS:
            return False
        if gamma_is_zero and su == MINUS and sv == MINUS:
            return False
    return True


def is_proper(g: Graph, p: Pinning, v: int,
              beta_is_zero: bool, gamma_is_zero: bool) -> bool:
    """True iff v is unpinned and both one-vertex extensions stay feasible;
    a vertex outside g raises PinningError."""
    if not 0 <= v < g.n:
        raise PinningError(f"vertex {v} out of range 0..{g.n - 1}")
    if v in p:
        return False
    if beta_is_zero and any(p.get(w) == PLUS for w in g.neighbors(v)):
        return False
    if gamma_is_zero and any(p.get(w) == MINUS for w in g.neighbors(v)):
        return False
    return True


def disagreement_distance(g: Graph, v: int, s: Pinning, t: Pinning) -> int | float:
    """Shortest-path distance from v to the set where s and t differ.

    The set is (dom s \\ dom t) | (dom t \\ dom s) | {w : s(w) != t(w)}.
    Returns math.inf when the set is empty or unreachable from v.
    """
    ds, dt = s.as_dict(), t.as_dict()
    diff = {w for w in set(ds) | set(dt) if ds.get(w) != dt.get(w)}
    if any(not (0 <= w < g.n) for w in diff):
        raise PinningError("pinned vertex outside the graph")
    if not diff:
        return math.inf
    dist = g.distances_from(v)
    best = min(dist[w] for w in diff)
    return int(best) if best != math.inf else math.inf


# ---------------------------------------------------------------------------
# Self-avoiding-walk trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SawTree:
    """A rooted SAW tree with its back-mapping and induced pinning.

    ``origin[x]`` is the source vertex that tree vertex x copies.
    ``pinning`` combines the mapped source pins with the spins imposed on
    cycle-closing leaves.
    """

    tree: Graph
    root: int
    origin: tuple[int, ...]
    pinning: Pinning

    def copies_of(self, source_vertex: int) -> tuple[int, ...]:
        return tuple(x for x, o in enumerate(self.origin) if o == source_vertex)


def build_saw_tree(g: Graph, root: int, p: Pinning,
                   beta_is_zero: bool = False,
                   gamma_is_zero: bool = False) -> SawTree:
    """Enumerate all self-avoiding walks from ``root`` into a rooted tree.

    Walk expansion is deterministic: children are generated in ascending
    source-vertex order and tree ids are assigned in BFS order. A walk stops
    when it reaches a pinned vertex (the copy becomes a leaf carrying that
    pin) or when the next vertex already lies on the walk, in which case a
    copy of that vertex is appended as a leaf with an imposed spin. The
    imposed spin compares the edge closing the cycle against the edge the
    walk originally left the revisited vertex by, both ordered by vertex
    index: "+" when the closing neighbor's index exceeds the continuing
    neighbor's index, "-" otherwise.
    """
    tree, cuts = _build_saw(g, root, p, beta_is_zero, gamma_is_zero, max_depth=None)
    assert not cuts
    return tree


def build_saw_tree_truncated(g: Graph, root: int, p: Pinning, depth: int,
                             beta_is_zero: bool = False,
                             gamma_is_zero: bool = False
                             ) -> tuple[SawTree, tuple[int, ...]]:
    """SAW tree cut at walk length ``depth``; also returns the cut vertices.

    A cut vertex is a depth-``depth`` tree vertex whose walk could still be
    extended in the full construction. Callers decide what boundary spin to
    impose on cuts (the Weitz approximator pins them to "-").
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return _build_saw(g, root, p, beta_is_zero, gamma_is_zero, max_depth=depth)


def _check_saw_root(g: Graph, root: int, p: Pinning, beta_is_zero: bool,
                    gamma_is_zero: bool):
    """The checks of every SAW-tree route: root in range, unpinned, p feasible."""
    if not (0 <= root < g.n):
        raise GraphFormatError(f"root {root} out of range")
    if root in p:
        raise PinningError("SAW root must be unpinned")
    if not is_feasible(g, p, beta_is_zero, gamma_is_zero):
        raise PinningError("infeasible pinning")


def _build_saw(g, root, p, beta_is_zero, gamma_is_zero, max_depth):
    _check_saw_root(g, root, p, beta_is_zero, gamma_is_zero)
    origin = [root]
    tree_edges: list[tuple[int, int]] = []
    pins: list[tuple[int, str]] = []
    cuts: list[int] = []
    # each entry carries its walk from the root, as source vertices
    queue: deque[tuple[int, tuple[int, ...]]] = deque([(0, (root,))])
    while queue:
        x, walk = queue.popleft()
        w = walk[-1]
        parent_origin = walk[-2] if len(walk) >= 2 else None
        if max_depth is not None and len(walk) - 1 >= max_depth:
            for y in g.neighbors(w):
                if y != parent_origin:
                    cuts.append(x)
                    break
            continue
        for y in g.neighbors(w):
            if y == parent_origin:
                continue
            child = len(origin)
            origin.append(y)
            tree_edges.append((x, child))
            if y in p:
                pins.append((child, p.get(y)))
            elif y in walk:
                continuing = walk[walk.index(y) + 1]
                pins.append((child, PLUS if w > continuing else MINUS))
            else:
                queue.append((child, walk + (y,)))
    tree = Graph(len(origin), tuple(tree_edges))
    saw = SawTree(tree=tree, root=0, origin=tuple(origin), pinning=Pinning(tuple(pins)))
    return saw, tuple(cuts)


def saw_shape(g: Graph, root: int) -> tuple[int, list[int | float]]:
    """The largest vertex degree of the SAW tree of g at ``root`` (no pins),
    and for each vertex of g the smallest depth of a copy (math.inf when there
    is none), from one depth-first walk over g with no tree built.

    A walk vertex w has a child for each neighbour besides its parent and an
    edge to that parent, so its degree is g.degree(w). A cycle-closing leaf
    has degree 1, below that of its parent, which has two neighbours or more.
    """
    adj = g._adj
    depth = [math.inf] * g.n
    depth[root] = 0
    largest = len(adj[root])
    on_walk = [False] * g.n
    on_walk[root] = True
    # the walk and, per walk vertex, the index of its next neighbour
    walk, nexts = [root], [0]
    while walk:
        w, i, d = walk[-1], nexts[-1], len(walk)
        nbrs = adj[w]
        parent = walk[-2] if d > 1 else -1
        while i < len(nbrs):
            y = nbrs[i]
            i += 1
            if y == parent:
                continue
            if d < depth[y]:
                depth[y] = d
            if on_walk[y]:
                continue
            largest = max(largest, len(adj[y]))
            nexts[-1] = i
            on_walk[y] = True
            walk.append(y)
            nexts.append(0)
            break
        else:
            on_walk[w] = False
            walk.pop()
            nexts.pop()
    return largest, depth
