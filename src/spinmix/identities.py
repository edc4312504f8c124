"""Exact two-sided evaluation of the Christoffel-Darboux tree identities.

Every identity here relates a pair-pinned combination of partition values
(the left side) to a factored product over the subtrees hanging off the
u-v path (the right side). Both sides are computed independently in exact
arithmetic, never one from the other. Pinning u and v changes only the u-v
path, so each identity call makes one tree pass, rooted at u, that holds
the path back: each path vertex keeps its part, the message built from its
off-path children, and every pinned value is a chain, a fold of those parts
along the path (TreeMessages.chain), with d absorbs. The determinant
identities take column j of the pair matrix from the chain toward u with v
pinned to spin j, and the right side's edge factors from the pass's
messages off the path. cd_sides also reads Z and Z+-_u from the pass and
Z+-_v from the chain toward v, so one call checks both sides and both
single-pin forms of the left side. gutman_sides deletes a vertex set S by
pinning it to -: Z_T and Z_{T-u} come from the pass, Z_{T-v} and
Z_{T-{u,v}} from the chain with v pinned -, Z_{T-path} from the chain with
the path pinned -, and Z_{T-N[path]} from the parts rebuilt with the
hanging children pinned - too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import NotATreeError, PinningError
from .graphs import Graph, Pinning
from .numerics import ONE, ZERO, ExactComplex, _common_numerators, _reduced
from .partition import (Params, QSpinParams, TreeMessages, _absorb, _chain,
                        _pass_table, _pin, hardcore_params, z_qspin_tree, z_tree)


@dataclass(frozen=True)
class CdReport:
    """Both sides of an identity instance plus the case-split context;
    ``forms_equal`` is set by cd_sides alone (see cd_equivalent_forms)."""

    lhs: ExactComplex
    rhs: ExactComplex
    distance: int
    path_hits_pinning: bool
    equal: bool
    forms_equal: bool | None = None


def _require_tree(t: Graph, u: int):
    """The forest rooted at u, which tree_path and the pass read too, has
    one root and n - 1 edges."""
    if len(t.bfs(u)[0]) != 1 or len(t.edges) != t.n - 1:
        raise NotATreeError("identity requires a connected acyclic graph")


def _require_unpinned(t: Graph, p: Pinning, u: int, v: int):
    if u == v:
        raise ValueError("u and v must be distinct")
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise PinningError(f"u={u} or v={v} is out of range 0..{t.n - 1}")
    if u in p or v in p:
        raise PinningError("u and v must be unpinned")


def _scale(msgs: TreeMessages, u: int) -> int:
    """D ** e of the pass's root message at u, which every chain shares."""
    return msgs.denom ** msgs.msgs[u][1]


def _det_sides(t: Graph, p: Pinning, path: list[int], columns,
               msgs: TreeMessages, det_a: ExactComplex, phi_at) -> CdReport:
    """Both sides of det [Z with u = i, v = j]_{i,j} on a tree.

    ``columns[j]`` holds the numerators of u's message with v pinned to the
    j-th spin, a chain toward u of ``msgs``, the pass rooted at u under p
    that held ``path`` (u first) back. The columns share the root's scale
    D^e, so lhs is their determinant, reduced once over D^(q e). When the
    path avoids the pinned set, rhs = det_a^d * Phi * the edge factors of
    each subtree hanging off the path, with Phi the product of
    ``phi_at(w)`` over the path; when the path meets a pin, rhs = 0.
    """
    lhs = _reduced(*_det(list(zip(*columns))), _scale(msgs, path[0]) ** len(columns))
    d = len(path) - 1
    hits = any(w in p for w in path)
    if hits:
        rhs = ZERO
    else:
        on_path = set(path)
        hanging = [y for x in path for y in t.neighbors(x) if y not in on_path]
        rhs = math.prod(map(phi_at, path)) * det_a ** d * msgs.edge_product(hanging)
    return CdReport(lhs=lhs, rhs=rhs, distance=d, path_hits_pinning=hits,
                    equal=lhs == rhs)


def cd_sides(t: Graph, p: Pinning, u: int, v: int, params: Params) -> CdReport:
    """Evaluate both sides of the pair-difference identity on a tree.

    lhs = Z^{u+,v+} Z^{u-,v-} - Z^{u+,v-} Z^{u-,v+}. When the u-v path
    avoids the pinned set, rhs = (beta*gamma - 1)^d * Phi * prod over
    hanging subtrees of (beta Z+ + Z-)(Z+ + gamma Z-), where Phi is
    lambda^{d+1} for a uniform field and the product of the path vertices'
    fields otherwise; when the path meets a pin, rhs = 0. ``forms_equal``
    reads Z+-_v from the chain toward v, not from the pair matrix.
    """
    _require_unpinned(t, p, u, v)
    _require_tree(t, u)
    path = t.tree_path(u, v)
    z, msgs = z_tree(t, p, params, root=u, held=path)
    columns = [msgs.chain(path[::-1], {v: s}) for s in (0, 1)]
    rep = _det_sides(t, p, path, columns, msgs, params.beta * params.gamma - ONE,
                     params.field_vector(t.n).__getitem__)
    scale = _scale(msgs, u)
    zpp, zmm = _reduced(*columns[0][0], scale), _reduced(*columns[1][1], scale)
    zp_u, zm_u = msgs.at(u)
    zp_v, zm_v = (_reduced(re, im, scale) for re, im in msgs.chain(path))
    forms_equal = (z * zpp - zp_u * zp_v == rep.lhs
                   and z * zmm - zm_u * zm_v == rep.lhs)
    return replace(rep, forms_equal=forms_equal)


def cd_equivalent_forms(t: Graph, p: Pinning, u: int, v: int, params: Params) -> bool:
    """Check the two single-pin reformulations of the pair-difference lhs.

    Verifies, exactly,
        Z * Z^{u+,v+} - Z+_u * Z+_v == Z * Z^{u-,v-} - Z-_u * Z-_v
                                    == Z^{++}Z^{--} - Z^{+-}Z^{-+}
    on the pass and chains of cd_sides.
    """
    return cd_sides(t, p, u, v, params).forms_equal


def gutman_sides(t: Graph, u: int, v: int, lam) -> CdReport:
    """Hard-core vertex-deletion identity on a tree (no pins).

    lhs = Z_T Z_{T-{u,v}} - Z_{T-u} Z_{T-v}; rhs = -(-lambda)^{d+1}
    Z_{T-path} Z_{T-N[path]} with all partition values taken at beta=0,
    gamma=1 (independence polynomials evaluated at lambda). Z_{T-S} is Z_T
    with S pinned -, a vertex of weight 1 that allows any neighbour; the -
    entry of u's message is then Z_{T-S-u}.
    """
    _require_unpinned(t, Pinning(), u, v)
    _require_tree(t, u)
    params = hardcore_params(lam)
    path = t.tree_path(u, v)
    d = len(path) - 1
    z_t, msgs = z_tree(t, Pinning(), params, root=u, held=path)
    scale = _scale(msgs, u)

    def z(vec):
        return _reduced(*map(sum, zip(*vec)), scale)

    toward_u = path[::-1]
    minus_v = msgs.chain(toward_u, {v: 1})
    lhs = z_t * _reduced(*minus_v[1], scale) - msgs.at(u)[1] * z(minus_v)
    # T - N[path]: the parts rebuilt with the hanging children pinned - too
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


def _det(rows) -> tuple[int, int]:
    """Determinant of a square matrix of Gaussian integers (re, im): Laplace
    expansion along the first row, intended for the small q used here."""
    if len(rows) == 1:
        return rows[0][0]
    re = im = 0
    for j, (ar, ai) in enumerate(rows[0]):
        mr, mi = _det([row[:j] + row[j + 1:] for row in rows[1:]])
        sign = -1 if j % 2 else 1
        re += sign * (ar * mr - ai * mi)
        im += sign * (ar * mi + ai * mr)
    return re, im


def exact_determinant(matrix: Sequence[Sequence[ExactComplex]]) -> ExactComplex:
    """Determinant of a square matrix: _det of the entries' numerators over
    their common denominator D, reduced once over D^q."""
    q = len(matrix)
    flat = [x for row in matrix for x in row]
    nums = _common_numerators(flat)
    rows = [nums[i * q:(i + 1) * q] for i in range(q)]
    return _reduced(*_det(rows), math.lcm(*[x._abd[2] for x in flat]) ** q)


def qspin_det_sides(t: Graph, p: Pinning, u: int, v: int, qp: QSpinParams) -> CdReport:
    """q-spin determinant identity on a tree.

    lhs = det [Z with u pinned to i, v pinned to j]_{i,j in 1..q}. When the
    u-v path avoids the pinned set, rhs = (det A)^d * (prod_i lambda_i)^{d+1}
    * prod over hanging subtrees s and spins t of sum_k a_{t,k} Z^k_s; the
    field power reads the product of all q field values raised to d+1, the
    reading validated against the brute-force determinant oracle.
    """
    _require_unpinned(t, p, u, v)
    _require_tree(t, u)
    path = t.tree_path(u, v)
    msgs = z_qspin_tree(t, p, qp, root=u, held=path)[1]
    columns = [msgs.chain(path[::-1], {v: s}) for s in range(qp.q)]
    lam_prod = math.prod(qp.lambdas)
    return _det_sides(t, p, path, columns, msgs, exact_determinant(qp.matrix),
                      lambda w: lam_prod)
