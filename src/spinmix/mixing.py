"""Marginal ratios, Taylor-coefficient locality, decay profiling, Weitz trees.

The marginal ratio P = Z+_v / Z is computed exactly; its truncated Taylor
series in the field variable (around 0) or in the edge activity (around a
chosen center) are built from exact polynomials and formal series division.
A locality verdict divides none: two series P = N / D first differ where the
integer numerators' N_s D_t - N_t D_s first has a nonzero coefficient.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotATreeError, PinningError, SeriesDivisionError, ZeroPartitionError
from .graphs import (Graph, MINUS, PLUS, Pinning, _check_saw_root,
                     disagreement_distance, is_proper)
from .numerics import ONE, ZERO, ExactComplex, PowerSeries, _gmul, _reduced, series_div
from .partition import (Params, _fold, _horner, _lambda_tables, _term, _walk_pass,
                        z_brute, z_tree)


@dataclass(frozen=True)
class MarginalSeries:
    """Truncated Taylor series of a marginal ratio at a named center."""

    series: PowerSeries
    variable: str
    center: ExactComplex
    vertex: int

    @property
    def order(self) -> int:
        return self.series.order


@dataclass(frozen=True)
class LdcReport:
    """Coefficientwise comparison of two marginal series.

    ``first_difference`` is the first index where the coefficients differ,
    or ``order`` when they agree throughout (the valuation of P^s - P^t). The locality contract asks for
    agreement on indices 0..d-1, i.e. first_difference >= min(d, order).
    """

    first_difference: int
    order: int
    distance: int | float
    satisfied: bool


def marginal(g: Graph, p: Pinning, v: int, params: Params) -> ExactComplex:
    """Exact marginal ratio Z+_v / Z; v must be proper and Z nonzero.

    One evaluation: on a forest, one message pass rooted at v; otherwise one
    enumeration that probes v.
    """
    if not is_proper(g, p, v, params.beta_is_zero, params.gamma_is_zero):
        raise PinningError(f"vertex {v} is not proper to the pinning")
    try:
        z, msgs = z_tree(g, p, params, root=v)
    except NotATreeError:
        z, zp = z_brute(g, p, params, probe=v)
        zv = z
    else:
        zp, zm = msgs.at(v)
        # v's component alone: the other components cancel from the ratio
        zv = zp + zm
    if z.is_zero():
        raise ZeroPartitionError("partition value is zero at these parameters")
    return zp / zv


def saw_tree_marginal(g: Graph, p: Pinning, v: int, params: Params
                      ) -> ExactComplex:
    """Marginal of v at the root of the SAW tree of g rooted at v, from one
    walk over g (partition._walk_pass); no tree is built."""
    _check_saw_root(g, v, p, params.beta_is_zero, params.gamma_is_zero)
    return _walk_marginal(g, p, v, params, None, "SAW tree")[0]


def _walk_marginal(g: Graph, p: Pinning, v: int, params: Params,
                   depth: int | None, what: str) -> tuple[ExactComplex, bool]:
    """Z+ / Z at the root of the (depth-cut) SAW tree, and whether a walk was cut."""
    (zp, zm), cut = _walk_pass(g, p, params, v, depth)
    z = zp + zm
    if z.is_zero():
        raise ZeroPartitionError(f"{what} partition value is zero")
    return zp / z, cut


def verify_saw_marginal(g: Graph, p: Pinning, v: int, params: Params) -> bool:
    """True iff the marginal on g equals the SAW-tree marginal, exactly."""
    return marginal(g, p, v, params) == saw_tree_marginal(g, p, v, params)


# ---------------------------------------------------------------------------
# Series in the field variable around 0
# ---------------------------------------------------------------------------


def _default_order(g: Graph) -> int:
    return g.diameter() + 2


def _lambda_vectors(g: Graph, ps: Sequence[Pinning], v: int, beta, gamma,
                    order: int | None, scale: Sequence[ExactComplex] | None = None):
    """Per pinning of ps, in turn: Z+_v's and Z's lambda-coefficient numerators
    from Z's valuation k on, ``order`` of each, and each index's denominator.
    Raises as marginal_series_lambda, pinning by pinning; one power table."""
    term = None
    for p in ps:
        if v in p:
            raise PinningError(f"vertex {v} is pinned")
        if term is None:
            order = _default_order(g) if order is None else order
            term, den, nums, dw = _lambda_tables(g, beta, gamma, scale)
        zs, zp = _fold(g, p, nums, v, g.n + 1, term)
        k = next((i for i, c in enumerate(zs) if c != (0, 0)), None)
        if k is None:
            raise ZeroPartitionError("partition polynomial is identically zero")
        if order < 1:
            raise SeriesDivisionError("denominator is zero through the truncation order")
        vn = next((i for i, c in enumerate(zp[:k]) if c != (0, 0)), None)
        if vn is not None:
            raise SeriesDivisionError(
                f"valuation mismatch: numerator x^{vn} vs denominator x^{k}")
        pad = [(0, 0)] * order
        yield ((zp[k:] + pad)[:order], (zs[k:] + pad)[:order],
               [den * dw ** (k + i) for i in range(order)])


def _series(num, den, over) -> PowerSeries:
    """num / den by series_div, each numerator reduced over its denominator."""
    return series_div(*[PowerSeries(_reduced(re, im, d) for (re, im), d in zip(vec, over))
                        for vec in (num, den)])


def _report(a, b, distance: int | float) -> LdcReport:
    """The LdcReport of marginals a = N_a / D_a and b as _lambda_vectors or
    _beta_vectors give them: first_difference is the first index below the
    order where N_a D_b and N_b D_a differ, as D_a(0) D_b(0) != 0."""
    (na, da, _), (nb, db, _) = a, b

    def conv(x, y, i):  # coefficient i of x y
        return [sum(c) for c in zip(*map(_gmul, x[:i + 1], y[i::-1]))]
    order = len(na)
    first = next((i for i in range(order) if conv(na, db, i) != conv(nb, da, i)), order)
    return LdcReport(first_difference=first, order=order, distance=distance,
                     satisfied=first >= min(distance, order))


def marginal_series_lambda(g: Graph, p: Pinning, v: int, beta, gamma,
                           order: int | None = None,
                           scale: Sequence[ExactComplex] | None = None
                           ) -> MarginalSeries:
    """Series of Z+_v(lambda) / Z(lambda) around lambda = 0.

    Any shared lambda-valuation of numerator and denominator is cancelled
    before dividing (this implements the P(0) = 0 convention when the
    all-minus term anchors Z(0) != 0, i.e. when gamma != 0). ``scale``
    passes through to the polynomial builder for non-uniform fields scanned
    along a single scaling variable.
    """
    # Properness of v is not required here: a hard constraint may zero the
    # numerator (e.g. v adjacent to a + pin at beta=0), and the coefficient
    # comparisons still need that identically-zero series.
    (vectors,) = _lambda_vectors(g, (p,), v, beta, gamma, order, scale)
    return MarginalSeries(series=_series(*vectors), variable="lambda", center=ZERO,
                          vertex=v)


def ldc_report(g: Graph, s: Pinning, t: Pinning, v: int, beta, gamma,
               order: int | None = None) -> LdcReport:
    """Compare the field-variable series of P under two pinnings.

    The coefficients must agree on indices 0..d-1 where d is the distance
    from v to the set on which the pinnings disagree; no series is built.
    """
    a, b = _lambda_vectors(g, (s, t), v, beta, gamma, order)
    return _report(a, b, disagreement_distance(g, v, s, t))


# ---------------------------------------------------------------------------
# Series in the edge activity around a center
# ---------------------------------------------------------------------------


def _beta_vectors(g: Graph, ps: Sequence[Pinning], v: int, gamma, lam, center,
                  order: int | None):
    """Per pinning of ps, in turn: Z+_v's and Z's first ``order`` coefficient
    numerators in t = beta - center, and each index's denominator. Raises as
    marginal_series_beta, pinning by pinning; one power table."""
    term = None
    for p in ps:
        if v in p:
            raise PinningError(f"vertex {v} is pinned")
        if term is None:
            center, lam = ExactComplex._coerce(center), ExactComplex._coerce(lam)
            if lam.is_zero():
                raise ValueError("the field value must be nonzero")
            if gamma is not None:
                gamma = ExactComplex._coerce(gamma)
                if gamma.is_zero():
                    raise ValueError("gamma must be nonzero")
                if center != ONE / gamma:
                    raise ValueError("center must equal 1/gamma")
            elif center != ONE and center != -ONE:
                raise ValueError("tied (Ising) activities need center 1 or -1")
            order = _default_order(g) if order is None else order
            term, den = _term(g, None, gamma, lam)
            over = [den * center._abd[2] ** len(g.edges)] * order
        # at least the constant term, so that Z at the center is always checked
        zs, zp = [_horner(w, center, max(order, 1))
                  for w in _fold(g, p, None, v, len(g.edges) + 1, term)]
        if zs[0] == (0, 0):
            raise ZeroPartitionError("partition value is zero at the expansion center")
        if order < 1:
            raise SeriesDivisionError("denominator is zero through the truncation order")
        yield zp, zs, over


def marginal_series_beta(g: Graph, p: Pinning, v: int, gamma, lam,
                         center, order: int | None = None) -> MarginalSeries:
    """Series of P in t = beta - center.

    With ``gamma`` a scalar, the center must be 1/gamma (the locality
    center); with gamma None the edge activities are tied (Ising) and the
    center must be 1 or -1. Raises ZeroPartitionError when Z vanishes at
    the center; such singular instances are surfaced, never skipped.
    """
    (vectors,) = _beta_vectors(g, (p,), v, gamma, lam, center, order)
    return MarginalSeries(series=_series(*vectors), variable="beta",
                          center=ExactComplex._coerce(center), vertex=v)


def ldc_report_beta(g: Graph, s: Pinning, t: Pinning, v: int, gamma, lam,
                    center, order: int | None = None) -> LdcReport:
    """Edge-activity analogue of ldc_report at the given center."""
    a, b = _beta_vectors(g, (s, t), v, gamma, lam, center, order)
    return _report(a, b, disagreement_distance(g, v, s, t))


# ---------------------------------------------------------------------------
# Decay profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayInstance:
    """One row of a decay experiment: a graph with two boundary pinnings at
    disagreement distance k from the probe vertex."""

    k: int
    graph: Graph
    vertex: int
    boundary_a: Pinning
    boundary_b: Pinning


@dataclass(frozen=True)
class DecayRow:
    k: int
    gap: float
    log_gap: float | None


@dataclass(frozen=True)
class DecayProfile:
    """Gap-vs-distance table with a least-squares exponential fit.

    The fit runs on log gaps over rows with nonzero gap: log gap ~ log C -
    k log r. ``rate`` is r (> 1 means exponential decay); both are None
    when fewer than two usable rows exist.
    """

    rows: tuple[DecayRow, ...]
    rate: float | None
    constant: float | None

    def __post_init__(self):
        ks = [r.k for r in self.rows]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("distances must be strictly increasing")

    def sidecar(self) -> dict:
        return {"rate": self.rate, "constant": self.constant}


def fit_decay(rows: Iterable[DecayRow]) -> tuple[float | None, float | None]:
    pts = [(r.k, r.log_gap) for r in rows if r.log_gap is not None]
    if len(pts) < 2:
        return None, None
    n = len(pts)
    mean_x = sum(k for k, _ in pts) / n
    mean_y = sum(y for _, y in pts) / n
    var = sum((k - mean_x) ** 2 for k, _ in pts)
    if var == 0:
        return None, None
    cov = sum((k - mean_x) * (y - mean_y) for k, y in pts)
    slope = cov / var
    intercept = mean_y - slope * mean_x
    return math.exp(-slope), math.exp(intercept)


def decay_profile(instances: Iterable[DecayInstance], params: Params) -> DecayProfile:
    """Evaluate |P^a - P^b| for every instance and fit the decay rate.

    Marginals are computed exactly and only the gap is floated (its log is
    taken from the exact value when the float is subnormal or 0.0); exact zero
    gaps are recorded with an empty log column and excluded from the fit.
    Raises ZeroPartitionError (tagged with k) when either boundary makes
    the partition value vanish.
    """
    rows = []
    for inst in sorted(instances, key=lambda i: i.k):
        try:
            pa = marginal(inst.graph, inst.boundary_a, inst.vertex, params)
            pb = marginal(inst.graph, inst.boundary_b, inst.vertex, params)
        except ZeroPartitionError as exc:
            raise ZeroPartitionError(f"zero partition value at k={inst.k}: {exc}") from exc
        diff = pa - pb
        gap = abs(diff.to_complex())
        if diff.is_zero():
            log_gap = None
        elif gap >= sys.float_info.min:
            log_gap = math.log(gap)
        else:
            sq = diff.abs2()
            log_gap = (math.log(sq.numerator) - math.log(sq.denominator)) / 2
        rows.append(DecayRow(k=inst.k, gap=gap, log_gap=log_gap))
    rate, constant = fit_decay(rows)
    return DecayProfile(rows=tuple(rows), rate=rate, constant=constant)


def path_decay_instances(k_max: int, mode: str = "ssm",
                         k_min: int = 1) -> list[DecayInstance]:
    """Path graphs probed at one end with boundaries at the other.

    Modes: "ssm" pins the far end to + versus -; "psm" compares the far end
    pinned + against the empty pinning (both all-plus); "msm" mirrors psm
    with -. Pass k_min=2 for hard-core boundaries with a + pin, where the
    probe vertex must keep its distance to stay proper.
    """
    if mode not in ("ssm", "psm", "msm"):
        raise ValueError(f"unknown decay mode {mode!r}")
    out = []
    for k in range(k_min, k_max + 1):
        g = Graph(k + 1, tuple((i, i + 1) for i in range(k)))
        if mode == "ssm":
            a, b = Pinning.of({k: PLUS}), Pinning.of({k: MINUS})
        elif mode == "psm":
            a, b = Pinning.of({k: PLUS}), Pinning()
        else:
            a, b = Pinning.of({k: MINUS}), Pinning()
        out.append(DecayInstance(k=k, graph=g, vertex=0, boundary_a=a, boundary_b=b))
    return out


# ---------------------------------------------------------------------------
# Weitz truncated-SAW approximation
# ---------------------------------------------------------------------------


def weitz_approx_marginal(g: Graph, v: int, p: Pinning, params: Params,
                          depth: int) -> tuple[ExactComplex, bool]:
    """Marginal of v on the depth-truncated SAW tree.

    Walk vertices cut at the depth bound are pinned to "-" (always feasible
    for hard-core instances, and irrelevant once nothing is truncated).
    Returns (value, exact); exact is True when no truncation occurred, and
    the value then equals the true marginal. Raises ValueError for depth < 1:
    at depth 0 the root itself would be cut and pinned.
    """
    if depth < 1:
        raise ValueError(f"weitz depth must be at least 1, got {depth}")
    bz, gz = params.beta_is_zero, params.gamma_is_zero
    if not is_proper(g, p, v, bz, gz):
        raise PinningError(f"vertex {v} is not proper to the pinning")
    _check_saw_root(g, v, p, bz, gz)
    value, cut = _walk_marginal(g, p, v, params, depth, "truncated tree")
    return value, not cut
