"""Seeded random instance generation for identity corpora and sweeps.

Everything here is a pure function of the supplied random.Random stream, so
a run seed fully determines every generated instance. Graphs are
Erdos-Renyi with edge probability 1/2 conditioned on connectivity; trees
are uniform spanning trees of such graphs drawn with Wilson's algorithm;
rational parameters keep numerators and denominators within 10 so exact
arithmetic stays small.

A draw builds one Graph, for the instance it returns: a candidate's
connectivity is decided on bit masks of its edge list
(graphs.edges_connected), Wilson's walk runs on the accepted draw's
neighbour lists, and scalars are canonical integer triples built from the
randint draws, with no Fraction. The stream is consumed as by one Graph per
candidate and Fraction scalars (the reference loops of tests/test_corpus.py),
so the instances are the same.
"""

from __future__ import annotations

import functools
import itertools
import random

from .errors import DrawLimitError
from .graphs import (Graph, MINUS, PLUS, Pinning, edges_connected, flip_spin,
                     is_feasible)
from .numerics import ExactComplex, ONE, ZERO, _reduced
from .partition import Params, QSpinParams

PARAM_MODES = ("generic", "beta0", "gamma0", "bg1", "fields", "complex")

# Draws a rejection loop makes before it raises DrawLimitError. Each bounded
# loop accepts most of its draws (a fraction is nonzero with probability
# 20/21), so only a defect reaches the bound, and the bound changes no corpus.
DRAW_LIMIT = 1000


def rand_scalar(rng: random.Random, nonzero: bool = False,
                complex_prob: float = 0.0) -> ExactComplex:
    """a/d or a/d + (b/e)i, numerators drawn from -10..10 and denominators
    from 1..10, built as the canonical triple with no Fraction."""
    randint = rng.randint
    for _ in range(DRAW_LIMIT):
        if rng.random() < complex_prob:
            a, d, b, e = randint(-10, 10), randint(1, 10), randint(-10, 10), randint(1, 10)
        else:
            a, d, b, e = randint(-10, 10), randint(1, 10), 0, 1
        if not nonzero or a or b:
            return _reduced(a * e, b * d, d * e)
    raise DrawLimitError(f"no nonzero scalar in {DRAW_LIMIT} draws")


@functools.cache
def _pair_draw(n: int) -> tuple[tuple, int, tuple]:
    """The m pairs i < j of n vertices in row-major order, the mask ``top``
    of bit 64k + 31 for each pair k, and per vertex the mask of the bits of
    the pairs it lies on.

    ``~rng.getrandbits(64 * m) & top`` is an Erdos-Renyi(1/2) draw: its bit
    64k + 31 is set iff rng.random() < 0.5 would hold for pair k in turn,
    and it consumes the stream as those m calls do. random() takes two
    32-bit words and is < 0.5 iff the top bit of the first is clear;
    getrandbits(64 * m) takes the same 2m words, the k-th at bits 32k..32k+31.
    """
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    incident = [0] * n
    for k, (i, j) in enumerate(pairs):
        bit = 1 << (64 * k + 31)
        incident[i] |= bit
        incident[j] |= bit
    top = int.from_bytes(b"\0\0\0\x80\0\0\0\0" * len(pairs), "little")
    return pairs, top, tuple(incident)


def _connected_edges(rng: random.Random, n: int, attempts: int,
                     dmax: int | None = None) -> tuple:
    """The edges of the first Erdos-Renyi draw that is connected and, with
    ``dmax``, has maximum degree <= dmax. Each draw is decided on its bits
    and edge list; no Graph is built. With n <= 1 nothing is drawn. A draw
    of more than n * dmax / 2 edges has a degree above dmax, so it is
    rejected on its edge count before the per-vertex test."""
    pairs, top, incident = _pair_draw(n)
    width = 64 * len(pairs)
    for _ in range(attempts):
        bits = ~rng.getrandbits(width) & top
        if dmax is not None and 2 * bits.bit_count() > n * dmax:
            continue
        # the per-vertex test runs on every candidate: a plain loop, no generator
        for mask in incident if dmax is not None else ():
            if (bits & mask).bit_count() > dmax:
                break
        else:
            edges = tuple(itertools.compress(pairs, bits.to_bytes(width // 8, "little")[3::8]))
            if edges_connected(n, edges):
                return edges
    if dmax is None:
        raise RuntimeError(f"no connected graph on {n} vertices after {attempts} draws")
    raise RuntimeError(f"no degree-{dmax} connected graph on {n} vertices")


def rand_connected_graph(rng: random.Random, n: int, attempts: int = 1000) -> Graph:
    return Graph(n, _connected_edges(rng, n, attempts))


def rand_bounded_degree_graph(rng: random.Random, n: int, dmax: int,
                              attempts: int = 20000) -> Graph:
    """Connected Erdos-Renyi draw conditioned on maximum degree <= dmax.

    Raises ValueError, drawing nothing, when no connected graph on n
    vertices meets the bound (dmax < 2 and n > dmax + 1). A candidate over
    the bound is rejected on its edge bits, before any edge is listed.
    """
    if dmax < 2 and n > dmax + 1:
        raise ValueError(f"no connected graph on {n} vertices has maximum "
                         f"degree <= {dmax}")
    return Graph(n, _connected_edges(rng, n, attempts, dmax))


def rand_tree(rng: random.Random, n: int) -> Graph:
    """Uniform spanning tree of a connected Erdos-Renyi draw (Wilson walk).

    The walk runs on the draw's neighbour lists, ascending as in
    Graph.neighbors, so the tree is the only Graph built."""
    # row-major edges append each vertex's neighbours in ascending order
    adj = [[] for _ in range(n)]
    for i, j in _connected_edges(rng, n, 1000):
        adj[i].append(j)
        adj[j].append(i)
    # each walk vertex keeps the step it last left by; following those steps
    # from the start is the loop-erased walk (Wilson 1996)
    in_tree = [v == 0 for v in range(n)]
    step = [0] * n
    edges = []
    for start in range(1, n):
        v = start
        while not in_tree[v]:
            step[v] = rng.choice(adj[v])
            v = step[v]
        v = start
        while not in_tree[v]:
            in_tree[v] = True
            edges.append((v, step[v]))
            v = step[v]
    return Graph(n, tuple(edges))


def rand_params(rng: random.Random, mode: str, n: int) -> Params:
    """Random parameters in one of the regimes the identities must cover."""
    if mode == "beta0":
        return Params(ZERO, rand_scalar(rng, nonzero=True), rand_scalar(rng, nonzero=True))
    if mode == "gamma0":
        return Params(rand_scalar(rng, nonzero=True), ZERO, rand_scalar(rng, nonzero=True))
    if mode == "bg1":
        beta = rand_scalar(rng, nonzero=True, complex_prob=0.3)
        return Params(beta, ONE / beta, rand_scalar(rng, nonzero=True))
    if mode == "fields":
        beta, gamma = _nontrivial_edge_pair(rng, 0.0)
        flds = tuple(rand_scalar(rng, nonzero=True, complex_prob=0.2) for _ in range(n))
        return Params(beta, gamma, flds)
    if mode == "complex":
        beta, gamma = _nontrivial_edge_pair(rng, 0.6)
        return Params(beta, gamma, rand_scalar(rng, nonzero=True, complex_prob=0.6))
    if mode == "generic":
        beta, gamma = _nontrivial_edge_pair(rng, 0.0)
        return Params(beta, gamma, rand_scalar(rng, nonzero=True))
    raise ValueError(f"unknown parameter mode {mode!r}")


def _nontrivial_edge_pair(rng, complex_prob):
    for _ in range(DRAW_LIMIT):
        beta = rand_scalar(rng, complex_prob=complex_prob)
        gamma = rand_scalar(rng, complex_prob=complex_prob)
        if not (beta.is_zero() and gamma.is_zero()):
            return beta, gamma
    raise DrawLimitError(f"no edge pair other than (0, 0) in {DRAW_LIMIT} draws")


def rand_feasible_pinning(rng: random.Random, g: Graph, beta_is_zero: bool,
                          gamma_is_zero: bool, exclude: tuple[int, ...] = (),
                          pin_prob: float = 0.3) -> Pinning:
    """Feasible by construction: spins honor hard constraints as assigned."""
    pins: dict[int, str] = {}
    for v in range(g.n):
        if v in exclude or rng.random() >= pin_prob:
            continue
        allowed = [PLUS, MINUS]
        if beta_is_zero and any(pins.get(w) == PLUS for w in g.neighbors(v)):
            allowed.remove(PLUS)
        if gamma_is_zero and any(pins.get(w) == MINUS for w in g.neighbors(v)):
            allowed.remove(MINUS)
        if allowed:
            pins[v] = rng.choice(allowed)
    return Pinning.of(pins)


def rand_pinning_pair(rng: random.Random, g: Graph, beta_is_zero: bool,
                      gamma_is_zero: bool, exclude: tuple[int, ...] = ()
                      ) -> tuple[Pinning, Pinning]:
    """Two feasible pinnings, alternating equal-domain and unequal-domain
    disagreement sets."""
    s = rand_feasible_pinning(rng, g, beta_is_zero, gamma_is_zero, exclude)
    if rng.random() < 0.5:
        for _ in range(50):
            flipped = {v: (flip_spin(sp) if rng.random() < 0.5 else sp)
                       for v, sp in s.items()}
            t = Pinning.of(flipped)
            if is_feasible(g, t, beta_is_zero, gamma_is_zero):
                return s, t
        return s, s
    return s, rand_feasible_pinning(rng, g, beta_is_zero, gamma_is_zero, exclude)


def rand_unpinned_pair(rng: random.Random, g: Graph, p: Pinning) -> tuple[int, int]:
    free = [v for v in range(g.n) if v not in p]
    u, v = rng.sample(free, 2)
    return u, v


def rand_qspin_params(rng: random.Random, q: int) -> QSpinParams:
    entries = {}
    for i in range(q):
        for j in range(i, q):
            entries[(i, j)] = rand_scalar(rng, complex_prob=0.2)
    matrix = tuple(tuple(entries[(min(i, j), max(i, j))] for j in range(q))
                   for i in range(q))
    lams = tuple(rand_scalar(rng, nonzero=True, complex_prob=0.2) for _ in range(q))
    return QSpinParams(matrix, lams)


def rand_qspin_pinning(rng: random.Random, g: Graph, q: int,
                       exclude: tuple[int, ...] = (),
                       pin_prob: float = 0.25) -> Pinning:
    pins = {v: rng.randint(1, q) for v in range(g.n)
            if v not in exclude and rng.random() < pin_prob}
    return Pinning.of(pins)
