"""Shared oracles and seeded instance helpers.

``z_naive`` is the independent enumeration oracle: it walks full spin
assignments with itertools and recomputes every weight from scratch, sharing
no code with the library's bitmask enumeration or tree recursion.
``z_auto`` and ``z_pair`` are the one-value-per-pass routes the tree
identities took before they read pinned values from root messages; tests
keep them as references. ``gutman_by_passes`` and ``qspin_det_by_passes``
are the routes those identities took before one pass held the u-v path
back: a tree pass rooted at u per pinned or deleted set, each value read
from u's root message. ``series_div_naive`` is a second series division,
independent of the library's recurrence: an ExactComplex inverse series
times the numerator, each coefficient reduced after every operation.
``saw_marginal_tree`` and ``weitz_marginal_tree`` are the explicit SAW-tree
route the library took before it walked g instead: build the tree, pin the
cut vertices, run z_tree on the tree and read Z+/Z at its root.
``square_free_reference`` is the square-free split the library ran before it
went to integer coefficient vectors: Yun's algorithm with Euclidean gcds and
long division over ExactComplex, every gcd made monic. ``aberth_reference`` is
the root route the library took before polynomials held integer numerators:
that split, each factor's ExactComplex coefficients through to_complex, then
the Aberth loop as it stood, with every residual and step size evaluated.
``cd_sides_reference`` and ``gutman_sides_reference`` are the tree identity
sides as the library took them before it kept them on integer numerators:
every partition value reduced to an ExactComplex first, then multiplied and
subtracted as one, with the right-hand side's edge factors from
``edge_product``, the reducing read of TreeMessages.edge_product.
``absorb_loop`` is the generic q-loop edge factor the 2-spin absorb unrolls.
``eliminate_pins_reference`` is pin elimination as the library took it
before it formed each distinct power of beta once and kept the subgraph's
edges unvalidated: a run of ExactComplex products from the lowest power up,
and a Graph built by its constructor.
``ldc_reference`` is the locality route the library took before it read each
verdict off cross-multiplied integer numerators: build both marginal series,
reduced and divided by series_div, and compare them coefficient by
coefficient. ``edge_activity_series`` is the reduced edge-activity series of
Z that route divided: the library's fold and Horner pass, each coefficient
reduced.
``monomial_counts_reference`` is the monomial table of the library's Gray
walk taken one configuration at a time: itertools.product over the free
spins, each configuration's edge counts and weight recomputed from scratch.
``term_reference``, ``fold_reference`` and ``horner_reference`` are the fold
and Taylor shift the library took before one loop per term mode: a term
closure called per table entry, each count table copied into (c, 0) pairs
and multiplied as Gaussian integers, and a Horner pass that recomputes
powers of the center's denominator and multiplies by its imaginary part
whether or not it is zero.
``det_laplace`` is the determinant the library took before Bareiss
elimination: Laplace expansion along the first row, O(q!) products;
``exact_determinant_laplace`` applies it to an ExactComplex matrix.
``corpus_config`` is the configuration of a seeded corpus run: the parsed
arguments with the corpus flags' defaults filled in, as the CLI fills them.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction

from spinmix import cli
from spinmix.errors import (NotATreeError, PinningError, RootConvergenceError,
                            SeriesDivisionError, ZeroPartitionError)
from spinmix.graphs import (Graph, MINUS, PLUS, Pinning, SawTree, build_saw_tree,
                            build_saw_tree_truncated, disagreement_distance,
                            is_feasible, is_proper)
from spinmix.identities import CdReport, _det, exact_determinant
from spinmix.mixing import LdcReport
from spinmix.numerics import ExactComplex, Polynomial, PowerSeries, _common_numerators, _gmul, _reduced
from spinmix.partition import (Params, QSpinParams, TreeMessages, _absorb, _chain,
                               _check_feasible, _fold, _horner, _ising_powers,
                               _monomial_counts, _pass_table, _pin, _powers, _term,
                               hardcore_params, z_brute, z_qspin_tree, z_tree)


def z_naive(g: Graph, p: Pinning, params: Params) -> ExactComplex:
    lams = params.field_vector(g.n)
    total = ExactComplex(0)
    for combo in itertools.product((PLUS, MINUS), repeat=g.n):
        if any(combo[v] != s for v, s in p.items()):
            continue
        w = ExactComplex(1)
        for u, v in g.edges:
            if combo[u] == PLUS and combo[v] == PLUS:
                w = w * params.beta
            elif combo[u] == MINUS and combo[v] == MINUS:
                w = w * params.gamma
        for v in range(g.n):
            if combo[v] == PLUS:
                w = w * lams[v]
        total = total + w
    return total


def z_auto(g: Graph, p: Pinning, params: Params) -> ExactComplex:
    """Tree message passing when the graph is acyclic, brute force otherwise.

    The graph is traversed once: z_tree meets a cycle before any other check
    and the call falls back to z_brute, whose cap error precedes its pinning
    error.
    """
    try:
        return z_tree(g, p, params)[0]
    except NotATreeError:
        return z_brute(g, p, params)


def z_pair(g: Graph, p: Pinning, u: int, su: str, v: int, sv: str,
           params: Params) -> ExactComplex:
    """Partition value with p extended by {u -> su, v -> sv}.

    The base pinning must be feasible; an extension that violates a hard
    constraint yields the value zero, so the four pair values always sum to
    the unextended partition value.
    """
    if u == v:
        raise ValueError("z_pair needs two distinct vertices")
    _check_feasible(g, p, params)
    extended = p.with_pin(u, su).with_pin(v, sv)
    if not is_feasible(g, extended, params.beta_is_zero, params.gamma_is_zero):
        return ExactComplex(0)
    return z_auto(g, extended, params)


def gutman_by_passes(t: Graph, u: int, v: int, lam) -> tuple[ExactComplex, ExactComplex]:
    """(lhs, rhs) of gutman_sides with each Z_{T-S} from a pass of its own:
    z_tree on T with S pinned -, rooted at u, for S = {}, {v}, the u-v path
    and its closed neighbourhood; Z_{T-u} and Z_{T-{u,v}} are the - entries
    of u's root message in the first two."""
    params = hardcore_params(lam)

    def deleted(vertices):
        pins = Pinning(tuple((w, MINUS) for w in vertices))
        return z_tree(t, pins, params, root=u)

    path = t.tree_path(u, v)
    closed = set(path).union(*map(t.neighbors, path))
    (z_t, msgs), (z_v, msgs_v) = deleted(()), deleted((v,))
    lhs = z_t * msgs_v.at(u)[1] - msgs.at(u)[1] * z_v
    rhs = -((-params.field) ** len(path)) * deleted(path)[0] * deleted(closed)[0]
    return lhs, rhs


def qspin_det_by_passes(t: Graph, p: Pinning, u: int, v: int,
                        qp: QSpinParams) -> tuple[ExactComplex, ExactComplex]:
    """(lhs, rhs) of qspin_det_sides from q + 1 passes rooted at u: column j
    of the pair matrix is u's root message in the pass with v pinned to spin
    j, and its determinant is taken on the reduced values; each hanging
    subtree's factors sum_j a_kj Z^j_y are summed from y's message in the
    unpinned pass, value by value."""
    columns = [z_qspin_tree(t, p.with_pin(v, s), qp, root=u)[1].at(u)
               for s in range(1, qp.q + 1)]
    lhs = exact_determinant(list(zip(*columns)))
    path = t.tree_path(u, v)
    if any(w in p for w in path):
        return lhs, ExactComplex(0)
    msgs = z_qspin_tree(t, p, qp, root=u)[1]
    rhs = exact_determinant(qp.matrix) ** (len(path) - 1) * math.prod(qp.lambdas) ** len(path)
    for y in sorted(set().union(*map(t.neighbors, path)) - set(path)):
        zs = msgs.at(y)
        for row in qp.matrix:
            rhs = rhs * sum((a * z for a, z in zip(row, zs)), ExactComplex(0))
    return lhs, rhs


def absorb_loop(matrix, vec, child):
    """vec times a child's edge factors sum_j a_kj c_j, k = 1..q, for any q."""
    out = []
    for (vr, vi), row in zip(vec, matrix):
        re = im = 0
        for (ar, ai), (cr, ci) in zip(row, child):
            re += ar * cr - ai * ci
            im += ar * ci + ai * cr
        out.append((vr * re - vi * im, vr * im + vi * re))
    return out


def edge_product(msgs: TreeMessages, ys) -> ExactComplex:
    """TreeMessages.edge_product reduced: the product over ys and the spins
    k of sum_j a_kj Z^j_y."""
    (re, im), e = msgs.edge_product(ys)
    return _reduced(re, im, msgs.denom ** e)


def cd_sides_reference(t: Graph, p: Pinning, u: int, v: int, params: Params) -> CdReport:
    """cd_sides on reduced values: lhs is the pair matrix's determinant
    reduced over D^(2e); rhs the ExactComplex product of the path's fields,
    (beta gamma - 1)^d and edge_product; each single-pin form multiplies
    and subtracts the reduced Z, Z+-_u, Z+-_v and pair values."""
    path = t.tree_path(u, v)
    z, msgs = z_tree(t, p, params, root=u, held=path)
    columns = [msgs.chain(path[::-1], {v: s}) for s in (0, 1)]
    scale = msgs.denom ** msgs.msgs[u][1]
    lhs = _reduced(*_det(list(zip(*columns))), scale ** 2)
    d = len(path) - 1
    hits = any(w in p for w in path)
    if hits:
        rhs = ExactComplex(0)
    else:
        lams = params.field_vector(t.n)
        hanging = [y for x in path for y in t.neighbors(x) if y not in path]
        rhs = (math.prod(lams[w] for w in path)
               * (params.beta * params.gamma - ExactComplex(1)) ** d
               * edge_product(msgs, hanging))
    zpp, zmm = _reduced(*columns[0][0], scale), _reduced(*columns[1][1], scale)
    zp_u, zm_u = msgs.at(u)
    zp_v, zm_v = (_reduced(re, im, scale) for re, im in msgs.chain(path))
    forms = z * zpp - zp_u * zp_v == lhs and z * zmm - zm_u * zm_v == lhs
    return CdReport(lhs=lhs, rhs=rhs, distance=d, path_hits_pinning=hits,
                    equal=lhs == rhs, forms_equal=forms)


def gutman_sides_reference(t: Graph, u: int, v: int, lam) -> CdReport:
    """gutman_sides on reduced values: every Z_{T-S} is reduced over the
    root's D^e, and each side is an ExactComplex product and difference."""
    params = hardcore_params(lam)
    path = t.tree_path(u, v)
    d = len(path) - 1
    z_t, msgs = z_tree(t, Pinning(), params, root=u, held=path)
    scale = msgs.denom ** msgs.msgs[u][1]

    def z(vec):
        return _reduced(*map(sum, zip(*vec)), scale)

    toward_u = path[::-1]
    minus_v = msgs.chain(toward_u, {v: 1})
    lhs = z_t * _reduced(*minus_v[1], scale) - msgs.at(u)[1] * z(minus_v)
    _, mat, start = _pass_table(params, t.n)
    on_path = set(path)
    closed = []
    for w in toward_u:
        part = _pin(start[w], 1)
        for y in t.neighbors(w):
            if y not in on_path:
                part = _absorb(mat, part, _pin(msgs.msgs[y][0], 1))
        closed.append(part)
    rhs = (-((-params.field) ** (d + 1)) * z(msgs.chain(toward_u, dict.fromkeys(path, 1)))
           * z(_chain(mat, closed)))
    return CdReport(lhs=lhs, rhs=rhs, distance=d, path_hits_pinning=False,
                    equal=lhs == rhs)


def _tree_root_marginal(g: Graph, st: SawTree, pins: Pinning, params: Params,
                       what: str) -> ExactComplex:
    """Z+ / Z at the root of st under pins, with g's fields mapped via st.origin."""
    lams = params.field_vector(g.n)
    tree_params = Params(params.beta, params.gamma,
                         tuple(lams[o] for o in st.origin))
    _, msgs = z_tree(st.tree, pins, tree_params, root=st.root)
    zp, zm = msgs.at(st.root)
    z = zp + zm
    if z.is_zero():
        raise ZeroPartitionError(f"{what} partition value is zero")
    return zp / z


def saw_marginal_tree(g: Graph, p: Pinning, v: int, params: Params) -> ExactComplex:
    """saw_tree_marginal by the explicit route: build_saw_tree, then z_tree."""
    st = build_saw_tree(g, v, p, params.beta_is_zero, params.gamma_is_zero)
    return _tree_root_marginal(g, st, st.pinning, params, "SAW tree")


def weitz_marginal_tree(g: Graph, v: int, p: Pinning, params: Params,
                        depth: int) -> tuple[ExactComplex, bool]:
    """weitz_approx_marginal by the explicit route: build_saw_tree_truncated,
    the cut vertices pinned -, then z_tree."""
    if depth < 1:
        raise ValueError(f"weitz depth must be at least 1, got {depth}")
    bz, gz = params.beta_is_zero, params.gamma_is_zero
    if not is_proper(g, p, v, bz, gz):
        raise PinningError(f"vertex {v} is not proper to the pinning")
    st, cuts = build_saw_tree_truncated(g, v, p, depth, bz, gz)
    pins = st.pinning
    for x in cuts:
        pins = pins.with_pin(x, MINUS)
    return _tree_root_marginal(g, st, pins, params, "truncated tree"), not cuts


def series_div_naive(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """num/den after cancelling den's valuation, with the library's two
    SeriesDivisionError cases."""
    k = den.valuation()
    if k is None:
        raise SeriesDivisionError("denominator is zero through the truncation order")
    vn = num.valuation()
    if vn is not None and vn < k:
        raise SeriesDivisionError("valuation mismatch")
    n, d = num.coefficients[k:], den.coefficients[k:]
    inv = [ExactComplex(1) / d[0]]
    for i in range(1, len(d)):
        acc = ExactComplex(0)
        for j in range(1, i + 1):
            acc = acc + d[j] * inv[i - j]
        inv.append(-acc / d[0])
    return PowerSeries(n) * PowerSeries(inv)


def ldc_reference(marginal_series, g: Graph, s: Pinning, t: Pinning, v: int,
                  *args, order: int | None = None) -> LdcReport:
    """ldc_report (marginal_series_lambda; args beta, gamma) or ldc_report_beta
    (marginal_series_beta; args gamma, lam, center) by the division route."""
    order = g.diameter() + 2 if order is None else order
    a = marginal_series(g, s, v, *args, order).series
    b = marginal_series(g, t, v, *args, order).series
    d = disagreement_distance(g, v, s, t)
    order = min(a.order, b.order)
    first = next((i for i in range(order)
                  if a.coefficients[i] != b.coefficients[i]), order)
    return LdcReport(first_difference=first, order=order, distance=d,
                     satisfied=first >= min(d, order))


def edge_activity_series(g: Graph, p: Pinning, gamma: ExactComplex | None,
                         lam: ExactComplex, center: ExactComplex, order: int,
                         probe: int | None = None):
    """First ``order`` (>= 1) coefficients of Z in t, where the (+,+) edge
    activity (both, tied, with gamma None) is center + t; with a probe, the
    pair (Z's, Z+_probe's) from one sweep."""
    term, den = _term(g, None, gamma, lam)
    over = den * center._abd[2] ** len(g.edges)
    series = [[_reduced(re, im, over) for re, im in _horner(w, center, order)]
              for w in _fold(g, p, None, probe, len(g.edges) + 1, term)]
    return series[0] if probe is None else tuple(series)


def term_reference(g: Graph, beta, gamma, lam):
    """_term as a closure term(m+, m-, #+) = (index, value), with den."""
    m = len(g.edges)
    if lam is None and gamma == beta:
        pow_bb = _ising_powers(beta._abd, 2 * m)

        def term(mp, mm, k):
            return k, pow_bb[mp + mm]
    elif lam is None:
        pow_b, pow_g = _powers(beta._abd, m), _powers(gamma._abd, m)

        def term(mp, mm, k):
            return k, _gmul(pow_b[mp], pow_g[mm])
    elif gamma is None:
        pow_l = _powers(lam._abd, g.n)

        def term(mp, mm, k):
            return mp + mm, pow_l[k]
    else:
        pow_l, pow_g = _powers(lam._abd, g.n), _powers(gamma._abd, m)

        def term(mp, mm, k):
            return mp, _gmul(pow_g[mm], pow_l[k])
    db, dg, dl = [1 if x is None else x._abd[2] for x in (beta, gamma, lam)]
    return term, (db * dg) ** m * dl ** g.n


def fold_reference(g: Graph, p: Pinning, weights, probe, size: int, term):
    """_fold with a term_reference closure and ExactComplex ``weights``: every
    table entry (c, 0) or (re, im) times the closure's value at its index."""
    nums = None if weights is None else _common_numerators(weights)[0]
    vectors = []
    for table in _monomial_counts(g, p, nums, probe):
        if nums is None:
            table = {key: (c, 0) for key, c in table.items()}
        re, im = [0] * size, [0] * size
        for (mp, mm, k), (cr, ci) in table.items():
            i, (xr, xi) = term(mp, mm, k)
            re[i] += cr * xr - ci * xi
            im[i] += cr * xi + ci * xr
        vectors.append(list(zip(re, im)))
    if probe is not None:
        minus, plus = vectors
        vectors = [[(a + c, b + d) for (a, b), (c, d) in zip(minus, plus)], plus]
    return vectors


def horner_reference(vec, center: ExactComplex, order: int):
    """_horner with cd ** j formed at every step and every product by ci taken."""
    cr, ci, cd = center._abd
    re, im = [0] * order, [0] * order
    for j, (wr, wi) in enumerate(reversed(vec)):
        for i in range(min(j, order - 1), 0, -1):
            re[i], im[i] = (re[i] * cr - im[i] * ci + re[i - 1],
                            re[i] * ci + im[i] * cr + im[i - 1])
        re[0], im[0] = (re[0] * cr - im[0] * ci + wr * cd ** j,
                        re[0] * ci + im[0] * cr + wi * cd ** j)
    return [(re[i] * cd ** i, im[i] * cd ** i) for i in range(order)]


def _poly_trim(c: list[ExactComplex]) -> list[ExactComplex]:
    while c and c[-1].is_zero():
        c.pop()
    return c


def _poly_divmod(a: list[ExactComplex], b: list[ExactComplex]
                 ) -> tuple[list[ExactComplex], list[ExactComplex]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return [], _poly_trim(rem)
    quot = [ExactComplex(0)] * (dq + 1)
    lead = b[-1]
    for k in range(dq, -1, -1):
        coef = rem[k + len(b) - 1] / lead
        quot[k] = coef
        if not coef.is_zero():
            for i in range(len(b)):
                rem[k + i] = rem[k + i] - coef * b[i]
    return _poly_trim(quot), _poly_trim(rem[: len(b) - 1])


def _poly_gcd(a: list[ExactComplex], b: list[ExactComplex]) -> list[ExactComplex]:
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_derivative(a: list[ExactComplex]) -> list[ExactComplex]:
    return _poly_trim([ExactComplex(i) * c for i, c in enumerate(a)][1:])


def _poly_sub(a: list[ExactComplex], b: list[ExactComplex]) -> list[ExactComplex]:
    n = max(len(a), len(b))
    zero = ExactComplex(0)
    out = [(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero)
           for i in range(n)]
    return _poly_trim(out)


def square_free_reference(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition p = prod f_i^i, each f_i monic and square-free,
    over the Gaussian rationals."""
    coeffs = list(p.coefficients)
    if len(coeffs) <= 1:
        return []
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    deriv = _poly_derivative(coeffs)
    g = _poly_gcd(coeffs, deriv)
    if len(g) <= 1:
        return [(Polynomial(coeffs), 1)]
    w, _ = _poly_divmod(coeffs, g)
    y, _ = _poly_divmod(deriv, g)
    z = _poly_sub(y, _poly_derivative(w))
    out = []
    i = 1
    while len(w) > 1:
        f = _poly_gcd(w, z)
        if len(f) > 1:
            out.append((Polynomial(f), i))
        w, _ = _poly_divmod(w, f)
        y, _ = _poly_divmod(z, f)
        z = _poly_sub(y, _poly_derivative(w))
        i += 1
    return out


def aberth_reference(p: Polynomial) -> list[complex]:
    """poly_roots(p) by the route above, sorted by (re, im)."""
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    if not all(cmath.isfinite(c.to_complex()) for c in p.coefficients):
        raise ValueError("coefficients overflow double precision")
    roots = []
    for factor, multiplicity in square_free_reference(p):
        roots.extend(_aberth_reference_simple([c.to_complex() for c in factor.coefficients])
                     * multiplicity)
    return sorted(roots, key=lambda z: (z.real, z.imag))


def root_bits(roots) -> list[tuple[str, str]]:
    """Each root's real and imaginary parts in hex, so == is bit equality."""
    return [(z.real.hex(), z.imag.hex()) for z in roots]


def _aberth_reference_simple(coeffs: list[complex]) -> list[complex]:
    start_angle, max_sweeps, tol = 1.0 / math.sqrt(2.0), 1000, 1e-12

    def horner(x):
        p = dp = 0j
        for c in reversed(coeffs):
            dp = dp * x + p
            p = p * x + c
        return p, dp

    deg = len(coeffs) - 1
    lead = coeffs[-1]
    if lead == 0 or not all(cmath.isfinite(c) for c in coeffs):
        raise ValueError("coefficients overflow double precision")
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    biggest = max(abs(c) for c in coeffs)
    radius = 1.0 + biggest / abs(lead)
    coeffs = [c / biggest for c in coeffs]
    rev = coeffs[::-1]
    alead = abs(coeffs[-1])
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / deg + start_angle))
         for k in range(deg)]
    polish_left = 25
    converged = False
    for _ in range(max_sweeps + polish_left):
        done = True
        max_step = 0.0
        for i in range(deg):
            zi = z[i]
            pz = dpz = 0j
            for c in rev:
                dpz = dpz * zi + pz
                pz = pz * zi + c
            if abs(pz) / (1.0 + alead * abs(zi) ** deg) >= tol:
                done = False
            if pz == 0:
                continue
            if dpz == 0:
                z[i] = zi = zi * (1.0 + 1e-8)
                pz, dpz = horner(zi)
                if dpz == 0:
                    z[i] = zi + 1e-8
                    continue
            newton = pz / dpz
            s = 0j
            for j, zj in enumerate(z):
                if j != i:
                    d = zi - zj
                    if d == 0:
                        d = 1e-14
                    s += 1.0 / d
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            z[i] = zi = zi - step
            rel = abs(step) / (1.0 + abs(zi))
            if rel > max_step:
                max_step = rel
        if done:
            converged = True
            if max_step < 1e-14 or polish_left == 0:
                return z
            polish_left -= 1
    if converged:
        return z
    raise RootConvergenceError(f"root iteration did not reach tol={tol}")


def monomial_counts_reference(g: Graph, p: Pinning, weights=None, probe=None
                              ) -> list[dict[tuple[int, int, int], tuple[int, int]]]:
    """_monomial_counts one configuration at a time: each extension of p adds
    its weight, 1 or the product of weights[v] over its + vertices scaled by
    dw ** #+ (dw the lcm of the weights' denominators), under its key
    (m+, m-, #+); with a probe, into the table of the probe's spin. With no
    weights the entries are int counts, else Gaussian integers (re, im)."""
    free = [v for v in range(g.n) if v not in p]
    dw = 1 if weights is None else math.lcm(*[w._abd[2] for w in weights])
    tables = [{} for _ in range(1 if probe is None else 2)]
    for spins in itertools.product((MINUS, PLUS), repeat=len(free)):
        sigma = dict(p.items())
        sigma.update(zip(free, spins))
        mp = sum(1 for a, b in g.edges if sigma[a] == sigma[b] == PLUS)
        mm = sum(1 for a, b in g.edges if sigma[a] == sigma[b] == MINUS)
        plus = [v for v in range(g.n) if sigma[v] == PLUS]
        if weights is None:
            w = (1, 0)
        else:
            x = math.prod((weights[v] for v in plus), start=ExactComplex(1)) * dw ** len(plus)
            assert x._abd[2] == 1
            w = x._abd[:2]
        table = tables[probe is not None and sigma[probe] == PLUS]
        re, im = table.get((mp, mm, len(plus)), (0, 0))
        table[mp, mm, len(plus)] = (re + w[0], im + w[1])
    if weights is None:
        return [{key: c for key, (c, _) in t.items()} for t in tables]
    return tables


def det_laplace(rows) -> tuple[int, int]:
    """Determinant of a square matrix of Gaussian integers (re, im): Laplace
    expansion along the first row."""
    if len(rows) == 1:
        return tuple(rows[0][0])
    re = im = 0
    for j, (ar, ai) in enumerate(rows[0]):
        mr, mi = det_laplace([row[:j] + row[j + 1:] for row in rows[1:]])
        sign = -1 if j % 2 else 1
        re += sign * (ar * mr - ai * mi)
        im += sign * (ar * mi + ai * mr)
    return re, im


def exact_determinant_laplace(matrix) -> ExactComplex:
    """det_laplace of an ExactComplex matrix's numerators over the lcm D of
    its denominators, over D^q."""
    q = len(matrix)
    den = math.lcm(*[x._abd[2] for row in matrix for x in row])
    rows = [[(a * (den // d), b * (den // d)) for a, b, d in (x._abd for x in row)]
            for row in matrix]
    return _reduced(*det_laplace(rows), den ** q)


def z_naive_qspin(g, p, qp):
    total = ExactComplex(0)
    for combo in itertools.product(range(1, qp.q + 1), repeat=g.n):
        if any(combo[v] != s for v, s in p.items()):
            continue
        w = ExactComplex(1)
        for v in range(g.n):
            w = w * qp.lambdas[combo[v] - 1]
        for u, v in g.edges:
            w = w * qp.matrix[combo[u] - 1][combo[v] - 1]
        total = total + w
    return total


def eliminate_pins_reference(g: Graph, p: Pinning, beta, fields):
    """eliminate_pins as the library took it before it formed each
    distinct power of beta once: beta ** k for the
    prefactor and the lowest shift, one product per step up to the highest,
    every field multiplied in, and the subgraph through the Graph
    constructor."""
    beta = ExactComplex._coerce(beta)
    fields = tuple(ExactComplex._coerce(x) for x in fields)
    assigned = p.as_dict()
    inside_agree = minus_boundary = 0
    shift = [0] * g.n
    for u, v in g.edges:
        su, sv = assigned.get(u), assigned.get(v)
        if su is not None and sv is not None:
            inside_agree += su == sv
        elif su is not None or sv is not None:
            pinned, free = (su, v) if su is not None else (sv, u)
            shift[free] += 1 if pinned == PLUS else -1
            minus_boundary += pinned == MINUS
    prefactor = beta ** (inside_agree + minus_boundary)
    for v, s in p.items():
        if s == PLUS:
            prefactor = prefactor * fields[v]
    keep = [v for v in range(g.n) if v not in assigned]
    remap = {old: new for new, old in enumerate(keep)}
    edges = tuple((remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap)
    flds = None if g.fields is None else tuple(g.fields[v] for v in keep)
    lo = min(shift, default=0)
    powers = list(itertools.accumulate([beta] * (max(shift, default=0) - lo),
                                       ExactComplex.__mul__, initial=beta ** lo))
    rescaled = tuple(fields[v] * powers[shift[v] - lo] for v in keep)
    return Graph(len(keep), edges, flds), rescaled, prefactor


def is_connected(g: Graph) -> bool:
    return len(g.bfs()[0]) <= 1


def restricted(p: Pinning, keep) -> Pinning:
    """The pins of p on the vertices in keep."""
    keep = set(keep)
    return Pinning(tuple((v, s) for v, s in p.items() if v in keep))


def remapped(p: Pinning, mapping) -> Pinning:
    """The pins of p on mapping's keys, moved to their images."""
    return Pinning(tuple((mapping[v], s) for v, s in p.items() if v in mapping))


def rational(rng: random.Random, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        if not nonzero or f != 0:
            return f


def scalar(rng: random.Random, nonzero=False, complex_prob=0.0) -> ExactComplex:
    while True:
        if rng.random() < complex_prob:
            x = ExactComplex(rational(rng), rational(rng))
        else:
            x = ExactComplex(rational(rng))
        if not nonzero or not x.is_zero():
            return x


def random_graph(rng: random.Random, n: int, connected=True) -> Graph:
    while True:
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5)
        g = Graph(n, edges)
        if not connected or is_connected(g):
            return g


def corpus_config(argv: list[str]):
    """cli._build_parser().parse_args(argv) for a corpus run, each unset
    corpus flag (cfg.corpus_only) at its default, as
    cli._run_corpus_command fills them in."""
    cfg = cli._build_parser().parse_args(argv)
    for _, name, default in getattr(cfg, "corpus_only", ()):
        if getattr(cfg, name) is None:
            setattr(cfg, name, default)
    return cfg
