"""Exact partition functions: brute force, tree message passing, polynomials.

Weight conventions: a full configuration sigma has weight
beta^{m+} * gamma^{m-} * prod_{sigma(v)=+} lambda_v, where m+ and m- count
(+,+) and (-,-) edges. Exponents are plain counts and x^0 = 1 even when
x = 0, so infeasible configurations contribute zero weight without any case
analysis. The tree message pass runs on Gaussian-integer numerators over one
denominator per call and reduces a value only when it is read.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceededError, NotATreeError, PinningError
from .graphs import Graph, MINUS, PLUS, Pinning, is_feasible
from .numerics import ONE, ZERO, ExactComplex, Polynomial, _gmul, _common_numerators, _reduced

ENUMERATION_CAP = 24


@dataclass(frozen=True)
class Params:
    """Edge activities (beta, gamma) and a vertex activity.

    ``field`` is either one scalar (uniform) or a per-vertex tuple; every
    field value must be nonzero and (beta, gamma) != (0, 0).
    """

    beta: ExactComplex
    gamma: ExactComplex
    field: ExactComplex | tuple[ExactComplex, ...]
    # (n, _numerators of the system on n vertices) for the last n a pass ran on
    _table: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", ExactComplex._coerce(self.beta))
        object.__setattr__(self, "gamma", ExactComplex._coerce(self.gamma))
        if isinstance(self.field, (tuple, list)):
            flds = tuple(ExactComplex._coerce(x) for x in self.field)
            if any(x.is_zero() for x in flds):
                raise ValueError("field values must be nonzero")
            object.__setattr__(self, "field", flds)
        else:
            lam = ExactComplex._coerce(self.field)
            if lam.is_zero():
                raise ValueError("field values must be nonzero")
            object.__setattr__(self, "field", lam)
        if self.beta.is_zero() and self.gamma.is_zero():
            raise ValueError("(beta, gamma) must not both be zero")

    @property
    def uniform(self) -> bool:
        return isinstance(self.field, ExactComplex)

    def field_vector(self, n: int) -> tuple[ExactComplex, ...]:
        if self.uniform:
            return (self.field,) * n
        if len(self.field) != n:
            raise ValueError(f"field vector has length {len(self.field)}, graph has {n}")
        return self.field

    @property
    def beta_is_zero(self) -> bool:
        return self.beta.is_zero()

    @property
    def gamma_is_zero(self) -> bool:
        return self.gamma.is_zero()

    def to_json(self) -> dict:
        fld = (self.field.to_json() if self.uniform
               else [x.to_json() for x in self.field])
        return {"beta": self.beta.to_json(), "gamma": self.gamma.to_json(),
                "field": fld}

    @classmethod
    def from_json(cls, doc: dict) -> "Params":
        fld = doc["field"]
        if isinstance(fld, list):
            field = tuple(ExactComplex.from_json(x) for x in fld)
        else:
            field = ExactComplex.from_json(fld)
        return cls(ExactComplex.from_json(doc["beta"]),
                   ExactComplex.from_json(doc["gamma"]), field)


def hardcore_params(lam) -> Params:
    """The independence-polynomial instance: beta=0, gamma=1."""
    return Params(ZERO, ONE, ExactComplex._coerce(lam))


@dataclass(frozen=True)
class QSpinParams:
    """Symmetric q x q edge-activity matrix plus a length-q field vector."""

    matrix: tuple[tuple[ExactComplex, ...], ...]
    lambdas: tuple[ExactComplex, ...]
    # as Params._table
    _table: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        m = tuple(tuple(ExactComplex._coerce(x) for x in row) for row in self.matrix)
        lams = tuple(ExactComplex._coerce(x) for x in self.lambdas)
        q = len(lams)
        if q < 2:
            raise ValueError("q must be at least 2")
        if len(m) != q or any(len(row) != q for row in m):
            raise ValueError("matrix must be q x q")
        for i in range(q):
            for j in range(q):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "lambdas", lams)

    @property
    def q(self) -> int:
        return len(self.lambdas)

    def to_json(self) -> dict:
        return {"matrix": [[x.to_json() for x in row] for row in self.matrix],
                "lambdas": [x.to_json() for x in self.lambdas]}

    @classmethod
    def from_json(cls, doc: dict) -> "QSpinParams":
        return cls(tuple(tuple(ExactComplex.from_json(x) for x in row)
                         for row in doc["matrix"]),
                   tuple(ExactComplex.from_json(x) for x in doc["lambdas"]))


def two_spin_embedding(params: Params) -> QSpinParams:
    """q=2 instance that coincides with the 2-spin system (spin 1 <-> +)."""
    if not params.uniform:
        raise ValueError("the q-spin embedding uses a uniform field")
    return QSpinParams(((params.beta, ONE), (ONE, params.gamma)),
                       (params.field, ONE))


def _powers(abd: tuple[int, int, int], n: int) -> list[tuple[int, int]]:
    """x^0..x^n as Gaussian-integer numerators over d ** n, for the scalar x
    of canonical triple abd = (a, b, d)."""
    a, b, d = abd
    dn = [1]  # d^0..d^n
    for _ in range(n):
        dn.append(dn[-1] * d)
    out = []
    re, im = 1, 0  # (a + bi)^j
    for j in range(n, -1, -1):
        out.append((re * dn[j], im * dn[j]))
        re, im = re * a - im * b, re * b + im * a
    return out


@functools.lru_cache(maxsize=64)
def _ising_powers(abd: tuple[int, int, int], n: int) -> tuple[tuple[int, int], ...]:
    """_powers(abd, n) as a tuple, kept for the last few (abd, n): every
    fold at gamma == beta reads one, and annulus' beta is one constant of
    its run. The other callers draw fresh scalars, so they are not kept."""
    return tuple(_powers(abd, n))


def _check_cap(g: Graph):
    if g.n > ENUMERATION_CAP:
        raise CapExceededError(
            f"{g.n} vertices exceeds the enumeration cap {ENUMERATION_CAP}")


def _check_feasible(g: Graph, p: Pinning, params: Params):
    if not is_feasible(g, p, params.beta_is_zero, params.gamma_is_zero):
        raise PinningError("infeasible pinning for these parameters")


def _check_pins_in_range(g: Graph, p: Pinning):
    for v, _ in p.items():
        if not 0 <= v < g.n:
            raise PinningError(f"pinned vertex {v} out of range")


def _check_qspin_pins(g: Graph, p: Pinning, q: int):
    for v, s in p.items():
        if not (isinstance(s, int) and 1 <= s <= q):
            raise PinningError(f"spin {s!r} at vertex {v} is out of range 1..{q}")
    _check_pins_in_range(g, p)


# ---------------------------------------------------------------------------
# Brute force: one monomial table, folded three ways
# ---------------------------------------------------------------------------


# A walk runs in blocks of at most 2^STEP_BLOCK steps, each read from one
# cached ruler table, so no table grows with the walk's width
STEP_BLOCK = 10
_RULERS: dict[int, tuple[int, ...]] = {}


def _ruler(width: int) -> tuple[int, ...]:
    """The trailing-zero counts of 1 .. 2^width - 1, the flip order of a
    reflected Gray walk over width bits (Gray 1953); width <= STEP_BLOCK."""
    steps = _RULERS.get(width)
    if steps is None:
        steps = _RULERS[width] = tuple((i & -i).bit_length() - 1 for i in range(1, 1 << width))
    return steps


def _monomial_counts(g: Graph, p: Pinning,
                     nums: Sequence[tuple[int, int]] | None = None,
                     probe: int | None = None
                     ) -> list[dict[tuple[int, int, int], int | tuple[int, int]]]:
    """Coefficients of Z(beta, gamma, lambda) over the extensions of p.

    Each table maps (m+, m-, #+) to the number of extensions of p with m+
    (+,+) edges, m- (-,-) edges and #+ plus vertices, pins included, an int.
    With ``nums``, the vertex weights as Gaussian-integer numerators over
    one dw (_common_numerators), each extension contributes the product of
    nums[v] over its + vertices instead of 1, a Gaussian integer (re, im)
    over dw ** #+. Returns [table]; with a free ``probe`` vertex,
    [table of the extensions with probe -, table of those with probe +].
    This is the one 2-spin enumeration, and it enforces the enumeration cap.

    The extensions are walked in reflected Gray order from the all-minus
    one: step i flips free[j], j the number of trailing zeros of i, so
    (m+, m-, #+) is updated from that vertex's neighbours alone. The walk
    runs in blocks of 2^width steps over the first ``width`` free vertices,
    their flips read from _ruler(width); block b > 0 is entered by flipping
    free[width + tz(b)], so the blocks together follow the ruler over every
    free vertex. The probe is the last free vertex and is left out of the
    width, so its one flip enters the second half of the blocks.
    """
    _check_cap(g)
    _check_pins_in_range(g, p)
    free = [v for v in range(g.n) if v not in p and v != probe]
    if probe is not None:
        if probe in p or not 0 <= probe < g.n:
            raise PinningError(f"probe {probe} is not a free vertex")
        free.append(probe)
    # spins as bits of one integer (+ is 1), starting from the all-minus extension
    state = 0
    for v, s in p.items():
        if s == PLUS:
            state |= 1 << v
    mp = mm = 0
    for a, b in g.edges:
        sa, sb = state >> a & 1, state >> b & 1
        if sa and sb:
            mp += 1
        elif not sa and not sb:
            mm += 1
    k = state.bit_count()
    # per free vertex: its bit, its neighbours' bits and its degree
    flips = []
    for v in free:
        nbrs = 0
        for w in g.neighbors(v):
            nbrs |= 1 << w
        flips.append((1 << v, nbrs, g.degree(v)))
    width = min(len(free) - (probe is not None), STEP_BLOCK)
    steps = _ruler(width)
    blocks = 1 << (len(free) - width)
    split = blocks >> 1 if probe is not None else 0
    if nums is None:
        table: dict = {(mp, mm, k): 1}
    else:
        # one product per extension: of the + weights among the low half of the
        # free vertices (and the + pins) and among the high half, both tabulated
        # and indexed by the Gray code of the step
        half = len(free) // 2
        low_mask = (1 << half) - 1
        plus = functools.reduce(_gmul, [nums[v] for v, s in p.items() if s == PLUS], (1, 0))
        low = _subset_products([nums[v] for v in free[:half]], plus)
        high = _subset_products([nums[v] for v in free[half:]], (1, 0))
        gray = 0
        table = {(mp, mm, k): plus}
    tables = [table]
    block = [0, *steps]
    for b in range(blocks):
        if b:
            block[0] = width + (b & -b).bit_length() - 1
            if b == split:
                table = {}
                tables.append(table)
        for j in block if b else steps:
            bit, nbrs, deg = flips[j]
            state ^= bit
            up = (state & nbrs).bit_count()
            if state & bit:
                mp += up
                mm -= deg - up
                k += 1
            else:
                mp -= up
                mm += deg - up
                k -= 1
            key = (mp, mm, k)
            if nums is None:
                table[key] = table.get(key, 0) + 1
            else:
                gray ^= 1 << j
                (ar, ai), (br, bi) = low[gray & low_mask], high[gray >> half]
                re, im = table.get(key, (0, 0))
                table[key] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return tables


def _subset_products(ws: list[tuple[int, int]], start: tuple[int, int]) -> list:
    """start times the product of ws[i] over the set bits i of each index."""
    out = [start]
    for w in ws:
        out += [_gmul(x, w) for x in out]
    return out


# The activities a fold leaves symbolic, each a mode of _term: the field
# alone at beta == gamma, the field, beta and gamma tied, and beta
ISING_LAMBDA, LAMBDA, TIED_BETA, BETA = range(4)


def _fold_counts(table: dict, term, size: int) -> list[tuple[int, int]]:
    """A count table folded into ``size`` Gaussian integers: entry (m+, m-,
    #+) adds its count times the term's value at the term's index,
    one loop per mode (_term)."""
    mode, powers = term
    re, im = [0] * size, [0] * size
    if mode == ISING_LAMBDA:
        (pw,) = powers
        for (mp, mm, k), c in table.items():
            xr, xi = pw[mp + mm]
            re[k] += c * xr
            im[k] += c * xi
    elif mode == LAMBDA:
        pb, pg = powers
        for (mp, mm, k), c in table.items():
            (br, bi), (gr, gi) = pb[mp], pg[mm]
            re[k] += c * (br * gr - bi * gi)
            im[k] += c * (br * gi + bi * gr)
    elif mode == TIED_BETA:
        (pl,) = powers
        for (mp, mm, k), c in table.items():
            xr, xi = pl[k]
            i = mp + mm
            re[i] += c * xr
            im[i] += c * xi
    else:
        pg, pl = powers
        for (mp, mm, k), c in table.items():
            (gr, gi), (lr, li) = pg[mm], pl[k]
            re[mp] += c * (gr * lr - gi * li)
            im[mp] += c * (gr * li + gi * lr)
    return list(zip(re, im))


def _fold_weighted(table: dict, term, size: int) -> list[tuple[int, int]]:
    """_fold_counts for a table of Gaussian integers (re, im)."""
    mode, powers = term
    re, im = [0] * size, [0] * size
    if mode == ISING_LAMBDA:
        (pw,) = powers
        for (mp, mm, k), (cr, ci) in table.items():
            xr, xi = pw[mp + mm]
            re[k] += cr * xr - ci * xi
            im[k] += cr * xi + ci * xr
    elif mode == LAMBDA:
        pb, pg = powers
        for (mp, mm, k), (cr, ci) in table.items():
            (br, bi), (gr, gi) = pb[mp], pg[mm]
            xr, xi = br * gr - bi * gi, br * gi + bi * gr
            re[k] += cr * xr - ci * xi
            im[k] += cr * xi + ci * xr
    elif mode == TIED_BETA:
        (pl,) = powers
        for (mp, mm, k), (cr, ci) in table.items():
            xr, xi = pl[k]
            i = mp + mm
            re[i] += cr * xr - ci * xi
            im[i] += cr * xi + ci * xr
    else:
        pg, pl = powers
        for (mp, mm, k), (cr, ci) in table.items():
            (gr, gi), (lr, li) = pg[mm], pl[k]
            xr, xi = gr * lr - gi * li, gr * li + gi * lr
            re[mp] += cr * xr - ci * xi
            im[mp] += cr * xi + ci * xr
    return list(zip(re, im))


def _fold(g: Graph, p: Pinning, nums: Sequence[tuple[int, int]] | None,
          probe: int | None, size: int, term) -> list[list[tuple[int, int]]]:
    """The sweep's tables, with the weight numerators ``nums`` when given,
    folded into vectors of ``size`` Gaussian integers by a _term. Returns
    [Z's]; with a probe, [Z's, Z+_probe's], Z's being the sum of the probe's
    halves."""
    fold = _fold_counts if nums is None else _fold_weighted
    vectors = [fold(table, term, size) for table in _monomial_counts(g, p, nums, probe)]
    if probe is not None:
        minus, plus = vectors
        vectors = [[(a + c, b + d) for (a, b), (c, d) in zip(minus, plus)], plus]
    return vectors


def _term(g: Graph, beta, gamma, lam):
    """The _fold term of Z's coefficients in the activity passed as None, as
    (mode, power tables): lam (index #+; ISING_LAMBDA at gamma == beta, with
    one table of beta's powers, else LAMBDA), beta and gamma tied (TIED_BETA,
    index m+ + m-), or beta (BETA, index m+); with den, which every numerator
    lies over. The tables serve every pinning of g."""
    m = len(g.edges)
    if lam is None and gamma == beta:
        # beta^(m+) gamma^(m-) over d^(2m) is entry m+ + m- of one table
        term = ISING_LAMBDA, (_ising_powers(beta._abd, 2 * m),)
    elif lam is None:
        term = LAMBDA, (_powers(beta._abd, m), _powers(gamma._abd, m))
    elif gamma is None:
        term = TIED_BETA, (_powers(lam._abd, g.n),)
    else:
        term = BETA, (_powers(gamma._abd, m), _powers(lam._abd, g.n))
    db, dg, dl = [1 if x is None else x._abd[2] for x in (beta, gamma, lam)]
    return term, (db * dg) ** m * dl ** g.n


def _lambda_tables(g: Graph, beta, gamma,
                   scale: Sequence[ExactComplex] | None = None):
    """z_poly_lambda's argument checks, then _term in lambda, and scale's
    numerators over dw (None and 1 with no scale): coefficient k's numerator
    lies over den * dw ** k."""
    # the cap error precedes the argument checks
    _check_cap(g)
    beta, gamma = ExactComplex._coerce(beta), ExactComplex._coerce(gamma)
    if scale is not None and len(scale) != g.n:
        raise ValueError("scale vector length must equal vertex count")
    nums, dw = (None, 1) if scale is None else _common_numerators(scale)
    return (*_term(g, beta, gamma, None), nums, dw)


def _horner(vec: list[tuple[int, int]], center: ExactComplex,
            order: int) -> list[tuple[int, int]]:
    """Numerators of the first ``order`` coefficients in t of
    sum_k vec[k] (center + t)^k, all over cd ** (len(vec) - 1), cd the
    denominator of center.

    With center = C / cd and s = cd t, cd^m times the sum is
    sum_k vec[k] cd^(m-k) (C + s)^k: Horner's rule in C + s from the top
    exponent, on integers; the coefficient of t^i is that of s^i times cd^i.
    A real center (the common case) takes no product by its zero imaginary part.
    """
    cr, ci, cd = center._abd
    re, im = [0] * order, [0] * order
    dj = 1  # cd ** j
    for j, (wr, wi) in enumerate(reversed(vec)):
        # after j steps only the first j coefficients can be nonzero
        if ci:
            for i in range(min(j, order - 1), 0, -1):
                re[i], im[i] = (re[i] * cr - im[i] * ci + re[i - 1],
                                re[i] * ci + im[i] * cr + im[i - 1])
            re[0], im[0] = (re[0] * cr - im[0] * ci + wr * dj,
                            re[0] * ci + im[0] * cr + wi * dj)
        else:
            for i in range(min(j, order - 1), 0, -1):
                re[i] = re[i] * cr + re[i - 1]
                im[i] = im[i] * cr + im[i - 1]
            re[0] = re[0] * cr + wr * dj
            im[0] = im[0] * cr + wi * dj
        dj *= cd
    out, di = [], 1  # di = cd ** i
    for i in range(order):
        out.append((re[i] * di, im[i] * di))
        di *= cd
    return out


def z_brute(g: Graph, p: Pinning, params: Params, probe: int | None = None
            ) -> ExactComplex | tuple[ExactComplex, ...]:
    """Partition value by explicit enumeration of all extensions of p.

    An infeasible p raises PinningError. With a free ``probe`` vertex v,
    returns (Z, Z+_v), Z+_v being the value with v pinned +, from one
    enumeration.
    """
    # the cap error precedes the pinning error (the table's check comes later)
    _check_cap(g)
    _check_feasible(g, p, params)
    weights = None if params.uniform else params.field_vector(g.n)
    term, den, nums, dw = _lambda_tables(g, params.beta, params.gamma, weights)
    vectors = _fold(g, p, nums, probe, g.n + 1, term)
    # the sum at lambda / dw, lambda = 1 when a per-vertex field is in the table
    lam = params.field if params.uniform else _reduced(1, 0, dw)
    over = den * lam._abd[2] ** g.n
    values = [_reduced(*_horner(vec, lam, 1)[0], over) for vec in vectors]
    return values[0] if probe is None else tuple(values)


# ---------------------------------------------------------------------------
# Tree message passing
# ---------------------------------------------------------------------------


@dataclass
class TreeMessages:
    """Subtree partition values for every vertex of a forest.

    The tuple at w is the partition value of the subtree rooted at w (under
    the chosen roots) with w pinned to each spin: + and -, or 1..q. It is
    kept as Gaussian-integer numerators (re, im) over denom ** e, with
    msgs[w] = (numerators, e), and reduced when read; ``matrix`` and
    ``weights`` are the pass table it started from. ``held`` maps each
    vertex the pass held back to its part: the numerators of its message
    before its held child was absorbed.
    """

    msgs: list[tuple[list[tuple[int, int]], int]]
    denom: int
    matrix: list[list[tuple[int, int]]]
    weights: list[list[tuple[int, int]]]
    held: dict[int, list[tuple[int, int]]] = dataclasses.field(default_factory=dict)

    def at(self, v: int) -> tuple[ExactComplex, ...]:
        vec, e = self.msgs[v]
        return tuple(_reduced(re, im, self.denom ** e) for re, im in vec)

    def edge_product(self, ys) -> tuple[tuple[int, int], int]:
        """Numerators of the product over the vertices ys and the spins k of
        sum_j a_kj Z^j_y, the factor y's subtree gives a neighbour at spin
        k, and the exponent e: the product lies over denom ** e."""
        ones = [(1, 0)] * len(self.matrix)
        re, im, e = 1, 0, 0
        for y in ys:
            vec, ey = self.msgs[y]
            for fr, fi in _absorb(self.matrix, ones, vec):
                re, im = re * fr - im * fi, re * fi + im * fr
            e += len(ones) * (ey + 1)
        return (re, im), e

    def chain(self, path, pins=None) -> list[tuple[int, int]]:
        """Numerators of path[-1]'s message in the tree rooted there: the
        held parts along ``path``, each masked to pins[w] when given, folded
        from path[0] (_chain). ``path`` runs along the held vertices, either
        way, so the value lies over denom ** e with e the root's exponent."""
        pins = pins or {}
        return _chain(self.matrix, [_pin(self.held[w], pins.get(w)) for w in path])


def _pin(vec, k):
    """vec with every entry but k zeroed; vec itself when k is None."""
    return vec if k is None else [c if i == k else (0, 0) for i, c in enumerate(vec)]


def _chain(matrix, parts):
    """The fold of a path's parts from the first: each part absorbs the
    fold of those before it, so the result is the last vertex's message."""
    acc = parts[0]
    for part in parts[1:]:
        acc = _absorb(matrix, part, acc)
    return acc


def _forest_order(g: Graph, root: int | None):
    """g.bfs(root); raises on cyclic input."""
    forest = g.bfs(root)
    # the BFS found one root per component; a forest has n - #components edges
    if len(g.edges) != g.n - len(forest[0]):
        raise NotATreeError("input graph contains a cycle")
    return forest


def _absorb(matrix, vec, child):
    """vec times a child's edge factors sum_j a_kj c_j, k = 1..q, on numerators.
    The 2-spin case, which every 2-spin pass, chain and walk runs, is
    unrolled: the same products and sums, with no inner loop."""
    if len(vec) == 2:
        ((ar, ai), (br, bi)), ((cr, ci), (dr, di)) = matrix
        (xr, xi), (yr, yi) = child
        (pr, pi), (mr, mi) = vec
        fr = ar * xr - ai * xi + br * yr - bi * yi
        fi = ar * xi + ai * xr + br * yi + bi * yr
        gr = cr * xr - ci * xi + dr * yr - di * yi
        gi = cr * xi + ci * xr + dr * yi + di * yr
        return [(pr * fr - pi * fi, pr * fi + pi * fr), (mr * gr - mi * gi, mr * gi + mi * gr)]
    out = []
    for (vr, vi), row in zip(vec, matrix):
        re = im = 0
        for (ar, ai), (cr, ci) in zip(row, child):
            re += ar * cr - ai * ci
            im += ar * ci + ai * cr
        out.append((vr * re - vi * im, vr * im + vi * re))
    return out


def _numerators(matrix, weights) -> tuple[int, list, list]:
    """D, the lcm of the matrix and weight denominators, with the matrix and
    each vertex's weight tuple as Gaussian-integer numerators over D.

    Fraction-free, as in Bareiss elimination: the message passes run on these
    numerators and reduce a value only when it is read. A weight tuple shared
    by several vertices (a uniform field) is converted once.
    """
    distinct = {id(w): w for w in weights}
    q = len(matrix)
    nums, denom = _common_numerators([x for xs in (*matrix, *distinct.values()) for x in xs])
    # every row and weight tuple has q entries
    rows = [nums[i:i + q] for i in range(0, len(nums), q)]
    start = dict(zip(distinct, rows[q:]))
    return denom, rows[:q], [start[id(w)] for w in weights]


def _two_spin(params: Params, n: int):
    """The 2-spin system on n vertices as a pass input: the q = 2 matrix
    [[beta, 1], [1, gamma]] and the weights (lambda_v, 1)."""
    return (((params.beta, ONE), (ONE, params.gamma)),
            [(params.field, ONE)] * n if params.uniform
            else [(lam, ONE) for lam in params.field_vector(n)])


def _pass_table(params: Params | QSpinParams, n: int) -> tuple[int, list, list]:
    """_numerators of the system on n vertices, (D, matrix, weights): the
    2-spin one, or the q-spin matrix with the field vector at every vertex.

    The table is kept on params for the last n asked, so every pass of an
    identity reads one, and a run over many sizes (decay's paths) holds one
    at a time. The passes copy the weight list and never write into an entry.
    """
    kept = params._table
    if kept is None or kept[0] != n:
        kept = (n, _numerators(*(_two_spin(params, n) if isinstance(params, Params)
                                  else (params.matrix, [params.lambdas] * n))))
        object.__setattr__(params, "_table", kept)
    return kept[1]


def _tree_pass(pins: dict[int, int], table, forest, held: Sequence[int] = ()
               ) -> tuple[ExactComplex, TreeMessages]:
    """Leaves-first messages over ``forest`` (a _forest_order) on a
    _pass_table (D, q x q edge matrix, weights): x's message starts at
    weights[x], keeps only entry pins[x] when x is pinned, and is then
    absorbed into its parent's. Z is the product of the root sums.

    ``held`` is a path from a root, root first. Its vertices are absorbed
    last, from the far end, so each one's part built from its other
    children is kept in TreeMessages.held; Z and the messages are the same.

    The pass runs on numerators over D. x's message lies over D ** e_x,
    e_x = 1 + sum over its children (e_c + 1), which depends on the forest
    alone, not on the pins. The children's factors are exact integers, so
    the order of absorption cannot change a bit.
    """
    roots, order, parent = forest
    denom, mat, start = table
    vecs = list(start)
    exps = [1] * len(vecs)
    if held and (parent[held[0]] >= 0
                 or any(parent[y] != x for x, y in zip(held, held[1:]))):
        raise ValueError("held vertices must form a path from a root, root first")
    late = set(held)
    for x in reversed(order):
        k = pins.get(x)
        if k is not None:
            vecs[x] = _pin(vecs[x], k)
        up = parent[x]
        if up >= 0 and x not in late:
            vecs[up] = _absorb(mat, vecs[up], vecs[x])
            exps[up] += exps[x] + 1
    parts = {x: vecs[x] for x in held}
    for x in held[:0:-1]:
        up = parent[x]
        vecs[up] = _absorb(mat, vecs[up], vecs[x])
        exps[up] += exps[x] + 1
    re, im, e = 1, 0, 0
    for r in roots:
        sr, si = map(sum, zip(*vecs[r]))
        re, im = re * sr - im * si, re * si + im * sr
        e += exps[r]
    return (_reduced(re, im, denom ** e),
            TreeMessages(list(zip(vecs, exps)), denom, mat, start, parts))


def _walk_pass(g: Graph, p: Pinning, params: Params, root: int,
               max_depth: int | None = None) -> tuple[tuple[ExactComplex, ...], bool]:
    """(Z+, Z-) at the root of the SAW tree of g at ``root`` (Weitz's
    recursion) from one depth-first walk over g, with no tree built; also
    whether the depth bound cut a walk.

    The children of a walk vertex w are its neighbours y but its parent, in
    ascending order. A pinned y is a leaf at its pin. A y on the walk closes
    a cycle: a leaf at + iff w exceeds the vertex after y on the walk. A y at
    depth ``max_depth`` with a neighbour besides w is cut: a leaf at -. Any
    other y is walked next. Messages are those of _tree_pass, on the same
    _pass_table; frames live on a list, so no recursion limit applies.
    """
    denom, mat, start = _pass_table(params, g.n)
    pins = {v: 0 if s == PLUS else 1 for v, s in p.items()}
    # each vertex's weight masked to + (entry 0) and to - (entry 1)
    leaf = [[[a, (0, 0)], [(0, 0), b]] for a, b in start]
    walk, pos = [root], [-1] * g.n
    pos[root] = 0
    cut = False
    # per walk vertex: [vertex, index of its next neighbour, message, exponent]
    frames = [[root, 0, start[root], 1]]
    while True:
        frame = frames[-1]
        w, i, vec, e = frame
        nbrs = g.neighbors(w)
        parent = walk[-2] if len(walk) > 1 else -1
        while i < len(nbrs):
            y = nbrs[i]
            i += 1
            if y == parent:
                continue
            k = pins.get(y)
            if k is None:
                if pos[y] >= 0:
                    k = 0 if w > walk[pos[y] + 1] else 1
                elif len(walk) == max_depth and g.degree(y) > 1:
                    k, cut = 1, True
            if k is not None:
                vec = _absorb(mat, vec, leaf[y][k])
                e += 2
                continue
            frame[1:] = i, vec, e
            pos[y] = len(walk)
            walk.append(y)
            frames.append([y, 0, start[y], 1])
            break
        else:
            frames.pop()
            pos[walk.pop()] = -1
            if not frames:
                return tuple(_reduced(re, im, denom ** e) for re, im in vec), cut
            up = frames[-1]
            up[2] = _absorb(mat, up[2], vec)
            up[3] += e + 1


def z_tree(t: Graph, p: Pinning, params: Params,
           root: int | None = None,
           held: Sequence[int] = ()) -> tuple[ExactComplex, TreeMessages]:
    """Partition value of an acyclic graph by bottom-up message passing.

    Components are rooted as in t.bfs(root): at their lowest-index vertex,
    or at ``root`` for its component. The scalar
    equals z_brute on the same inputs; the messages expose every pinned
    subtree value needed by the identity right-hand sides, and the parts of
    the ``held`` path from ``root`` (see _tree_pass). A cycle raises
    NotATreeError before any other check, so a caller can fall back to
    enumeration on the same arguments. The pass is the q-spin one, with
    matrix [[beta, 1], [1, gamma]] and weights (lambda_v, 1).
    """
    forest = _forest_order(t, root)
    _check_pins_in_range(t, p)
    _check_feasible(t, p, params)
    return _tree_pass({v: 0 if s == PLUS else 1 for v, s in p.items()},
                      _pass_table(params, t.n), forest, held)


def z_qspin_tree(t: Graph, p: Pinning, qp: QSpinParams,
                 root: int | None = None,
                 held: Sequence[int] = ()) -> tuple[ExactComplex, TreeMessages]:
    """q-spin analogue of z_tree; messages are length-q tuples per vertex."""
    _check_qspin_pins(t, p, qp.q)
    return _tree_pass({v: s - 1 for v, s in p.items()}, _pass_table(qp, t.n),
                      _forest_order(t, root), held)


# ---------------------------------------------------------------------------
# Polynomial in the uniform field
# ---------------------------------------------------------------------------


def z_poly_lambda(g: Graph, p: Pinning, beta, gamma,
                  scale: Sequence[ExactComplex] | None = None) -> Polynomial:
    """Z as a polynomial in the uniform field variable.

    The coefficient of lambda^k sums beta^{m+} gamma^{m-} over configurations
    (extending p) with exactly k plus vertices, pins included. ``scale``
    optionally weights each + vertex v by an extra constant factor scale[v],
    which turns the polynomial into Z evaluated at the field vector
    (scale_v * lambda)_v; this serves pin elimination and the single-variable
    scan of non-uniform fields.
    """
    term, den, nums, dw = _lambda_tables(g, beta, gamma, scale)
    (vec,) = _fold(g, p, nums, None, g.n + 1, term)
    # coefficient k lies over den * dw ** k: bring every one over den * dw ** n
    n = len(vec) - 1
    return Polynomial.over([(a * dw ** (n - k), b * dw ** (n - k))
                            for k, (a, b) in enumerate(vec)], den * dw ** n)


# ---------------------------------------------------------------------------
# Pin elimination and spin reversal
# ---------------------------------------------------------------------------


def eliminate_pins(g: Graph, p: Pinning, beta,
                   fields: Sequence[ExactComplex]
                   ) -> tuple[Graph, tuple[ExactComplex, ...], ExactComplex]:
    """Remove pinned vertices from an Ising instance by rescaling fields.

    Returns (G minus pinned vertices, rescaled fields for the surviving
    vertices in their induced order, prefactor) with
    Z^p_G(beta, fields) = prefactor * Z_{G-pins}(beta, rescaled). Each
    surviving field is multiplied by beta^{(# + pinned neighbors) - (# -
    pinned neighbors)}; the prefactor collects beta powers from edges inside
    the pinned set and from (-)-pin boundary edges, times the fields of +
    pins. Edge weights are (beta, beta); beta must be nonzero. Each
    distinct power of beta is formed once, and the subgraph keeps G's
    validated edges.
    """
    beta = ExactComplex._coerce(beta)
    if beta.is_zero():
        raise ValueError("pin elimination needs a nonzero Ising edge weight")
    fields = tuple(ExactComplex._coerce(x) for x in fields)
    if len(fields) != g.n:
        raise ValueError("field vector length must equal vertex count")
    _check_pins_in_range(g, p)
    assigned = p.as_dict()
    inside_agree = 0
    minus_boundary = 0
    shift = [0] * g.n
    for u, v in g.edges:
        su, sv = assigned.get(u), assigned.get(v)
        if su is not None and sv is not None:
            if su == sv:
                inside_agree += 1
        elif su is not None:
            shift[v] += 1 if su == PLUS else -1
            if su == MINUS:
                minus_boundary += 1
        elif sv is not None:
            shift[u] += 1 if sv == PLUS else -1
            if sv == MINUS:
                minus_boundary += 1
    prefactor = beta ** (inside_agree + minus_boundary)
    for v, s in p.items():
        if s == PLUS:
            prefactor = prefactor * fields[v]
    reduced, remap = g.delete_vertices(assigned)
    powers = {k: beta ** k for k in {shift[v] for v in remap}}
    new_fields = tuple(fields[v] * powers[shift[v]] for v in remap)
    return reduced, new_fields, prefactor


def spin_reversal(g: Graph, p: Pinning, params: Params
                  ) -> tuple[Pinning, Params, ExactComplex]:
    """Swap the roles of + and -.

    Returns (flipped pinning, Params with (beta, gamma) swapped and fields
    inverted, prefactor = product of all fields) satisfying
    Z^p_G(beta, gamma, fields) = prefactor * Z^flipped_G(gamma, beta, 1/fields).
    """
    lams = params.field_vector(g.n)
    prefactor = ONE
    for lam in lams:
        prefactor = prefactor * lam
    if params.uniform:
        new_field: ExactComplex | tuple[ExactComplex, ...] = ONE / params.field
    else:
        new_field = tuple(ONE / lam for lam in lams)
    return p.flipped(), Params(params.gamma, params.beta, new_field), prefactor
