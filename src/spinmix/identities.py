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

All these values are Gaussian-integer numerators over known powers of the
pass's denominator D. Each side stays one numerator until it is reported
and is reduced once; cd_sides decides the forms verdict on numerators over
D^(2e), with no reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotATreeError, PinningError
from .graphs import Graph, Pinning
from .numerics import ONE, ZERO, ExactComplex, _common_numerators, _gmul, _reduced
from .partition import (Params, QSpinParams, TreeMessages, _absorb, _chain, _pin,
                        hardcore_params, z_qspin_tree, z_tree)


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


def _checked_path(t: Graph, p: Pinning, u: int, v: int) -> list[int]:
    """The u-v path of an identity call, after its checks: u and v distinct,
    in range and unpinned, and t a tree (the forest rooted at u, which
    tree_path and the pass read too, has one root and n - 1 edges)."""
    if u == v:
        raise ValueError("u and v must be distinct")
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise PinningError(f"u={u} or v={v} is out of range 0..{t.n - 1}")
    if u in p or v in p:
        raise PinningError("u and v must be unpinned")
    if len(t.bfs(u)[0]) != 1 or len(t.edges) != t.n - 1:
        raise NotATreeError("identity requires a connected acyclic graph")
    return t.tree_path(u, v)


def _scale(msgs: TreeMessages, u: int) -> int:
    """D ** e of the pass's root message at u, which every chain shares."""
    return msgs.denom ** msgs.msgs[u][1]


def _total(vec) -> tuple[int, int]:
    """The sum of a message's numerators: its vertex's partition value."""
    return sum(re for re, _ in vec), sum(im for _, im in vec)


def _cross(a, b, c, d) -> tuple[int, int]:
    """a b - c d on Gaussian integers (re, im)."""
    (xr, xi), (yr, yi) = _gmul(a, b), _gmul(c, d)
    return xr - yr, xi - yi


def _det_sides(t: Graph, p: Pinning, path: list[int], det: tuple[int, int],
               msgs: TreeMessages, det_a: ExactComplex,
               forms_equal: bool | None = None) -> CdReport:
    """Both sides of det [Z with u = i, v = j]_{i,j} on a tree.

    ``det`` is that determinant's numerator over D^(q e): the q chains
    toward u of ``msgs`` with v pinned to each spin, where ``msgs`` is the
    pass rooted at u under p that held ``path`` (u first) back and D^e its
    root's scale. lhs is det, reduced once. When the path avoids the pinned
    set, rhs = det_a^d * Phi * the edge factors of each subtree hanging off
    the path, Phi being the product over the path of every entry of the
    pass's weights[w] (over D; the 2-spin ones are (lambda_w, 1)): one
    numerator product, reduced once. When the path meets a pin, rhs = 0.
    ``forms_equal`` goes into the report.
    """
    q = len(msgs.matrix)
    lhs = _reduced(*det, _scale(msgs, path[0]) ** q)
    d = len(path) - 1
    hits = any(w in p for w in path)
    if hits:
        rhs = ZERO
    else:
        on_path = set(path)
        hanging = [y for x in path for y in t.neighbors(x) if y not in on_path]
        num, e = msgs.edge_product(hanging)
        a, b, den = det_a._abd
        for _ in range(d):
            num = _gmul(num, (a, b))
        for w in path:
            for x in msgs.weights[w]:
                num = _gmul(num, x)
        rhs = _reduced(*num, msgs.denom ** (e + q * (d + 1)) * den ** d)
    return CdReport(lhs=lhs, rhs=rhs, distance=d, path_hits_pinning=hits,
                    equal=lhs == rhs, forms_equal=forms_equal)


def cd_sides(t: Graph, p: Pinning, u: int, v: int, params: Params) -> CdReport:
    """Evaluate both sides of the pair-difference identity on a tree.

    lhs = Z^{u+,v+} Z^{u-,v-} - Z^{u+,v-} Z^{u-,v+}. When the u-v path
    avoids the pinned set, rhs = (beta*gamma - 1)^d * Phi * prod over
    hanging subtrees of (beta Z+ + Z-)(Z+ + gamma Z-), where Phi is
    lambda^{d+1} for a uniform field and the product of the path vertices'
    fields otherwise; when the path meets a pin, rhs = 0. ``forms_equal``
    reads Z+-_v from the chain toward v, not from the pair matrix, and is
    decided on numerators: Z, Z+-_u, Z+-_v and the pair matrix all lie over
    the root's D^e, so each single-pin form and the determinant lie over
    D^(2e).
    """
    path = _checked_path(t, p, u, v)
    msgs = z_tree(t, p, params, root=u, held=path)[1]
    # the chain toward u with v pinned to s is column s of the pair matrix
    (zpp, zmp), (zpm, zmm) = (msgs.chain(path[::-1], {v: s}) for s in (0, 1))
    det = _cross(zpp, zmm, zpm, zmp)
    zp_u, zm_u = root = msgs.msgs[u][0]
    zp_v, zm_v = msgs.chain(path)
    z = _total(root)
    return _det_sides(t, p, path, det, msgs, params.beta * params.gamma - ONE,
                      _cross(z, zpp, zp_u, zp_v) == det == _cross(z, zmm, zm_u, zm_v))


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
    entry of u's message is then Z_{T-S-u}. Every Z_{T-S} is a numerator
    over the root's D^e, so each side is one numerator, reduced once.
    """
    path = _checked_path(t, Pinning(), u, v)
    params = hardcore_params(lam)
    d = len(path) - 1
    msgs = z_tree(t, Pinning(), params, root=u, held=path)[1]
    scale = _scale(msgs, u)
    root = msgs.msgs[u][0]
    toward_u = path[::-1]
    minus_v = msgs.chain(toward_u, {v: 1})
    lhs = _reduced(*_cross(_total(root), minus_v[1], root[1], _total(minus_v)), scale * scale)
    # T - N[path]: the parts rebuilt with the hanging children pinned - too
    on_path = set(path)
    closed = []
    for w in toward_u:
        part = _pin(msgs.weights[w], 1)
        for y in t.neighbors(w):
            if y not in on_path:
                part = _absorb(msgs.matrix, part, _pin(msgs.msgs[y][0], 1))
        closed.append(part)
    num = _gmul(_total(msgs.chain(toward_u, dict.fromkeys(path, 1))),
                _total(_chain(msgs.matrix, closed)))
    # -(-lambda)^{d+1} = (-1)^d lambda^{d+1}, lambda over D
    for w in path:
        num = _gmul(num, msgs.weights[w][0])
    if d % 2:
        num = -num[0], -num[1]
    rhs = _reduced(*num, scale * scale * msgs.denom ** (d + 1))
    return CdReport(lhs=lhs, rhs=rhs, distance=d, path_hits_pinning=False,
                    equal=lhs == rhs)


def _det(rows) -> tuple[int, int]:
    """Determinant of a square matrix of Gaussian integers (re, im), by
    fraction-free elimination (Bareiss 1968).

    Step k replaces each entry x right of and below the pivot p by
    (x p - y z) / p', y its row's entry in the pivot column, z its column's
    entry in the pivot row and p' the previous pivot: an exact division, so
    every entry stays a Gaussian integer (a minor of the matrix), and the
    last pivot is the determinant. A zero pivot swaps in a lower row with a
    nonzero entry in its column, flipping the sign; with none, det = 0.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    qr, qi = 1, 0  # the previous pivot
    for k in range(n - 1):
        pivot = a[k]
        if pivot[k] == (0, 0):
            for i in range(k + 1, n):
                if a[i][k] != (0, 0):
                    a[k], a[i] = a[i], pivot
                    pivot = a[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        pr, pi = pivot[k]
        norm = qr * qr + qi * qi
        for row in a[k + 1:]:
            yr, yi = row[k]
            for j in range(k + 1, n):
                (xr, xi), (zr, zi) = row[j], pivot[j]
                tr = xr * pr - xi * pi - yr * zr + yi * zi
                ti = xr * pi + xi * pr - yr * zi - yi * zr
                # t / (qr + qi i) = t (qr - qi i) / norm; the first divisor is 1
                row[j] = ((tr * qr + ti * qi) // norm, (ti * qr - tr * qi) // norm) if k else (tr, ti)
        qr, qi = pr, pi
    re, im = a[-1][-1]
    return sign * re, sign * im


def exact_determinant(matrix: Sequence[Sequence[ExactComplex]]) -> ExactComplex:
    """Determinant of a square matrix: _det of the entries' numerators over
    their common denominator D, reduced once over D^q."""
    q = len(matrix)
    nums, den = _common_numerators([x for row in matrix for x in row])
    return _reduced(*_det([nums[i * q:(i + 1) * q] for i in range(q)]), den ** q)


def qspin_det_sides(t: Graph, p: Pinning, u: int, v: int, qp: QSpinParams) -> CdReport:
    """q-spin determinant identity on a tree.

    lhs = det [Z with u pinned to i, v pinned to j]_{i,j in 1..q}. When the
    u-v path avoids the pinned set, rhs = (det A)^d * (prod_i lambda_i)^{d+1}
    * prod over hanging subtrees s and spins t of sum_k a_{t,k} Z^k_s; the
    field power reads the product of all q field values raised to d+1, the
    reading validated against the brute-force determinant oracle.
    """
    path = _checked_path(t, p, u, v)
    msgs = z_qspin_tree(t, p, qp, root=u, held=path)[1]
    # the chains are the pair matrix's columns; a determinant is transpose-free
    det = _det([msgs.chain(path[::-1], {v: s}) for s in range(qp.q)])
    return _det_sides(t, p, path, det, msgs, exact_determinant(qp.matrix))
