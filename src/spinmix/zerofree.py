"""Zero-location experiments: root scans, annulus checks, modulus sweeps.

These are contrapositive tests: a zero-free statement about a region is
checked by locating every root of the exact field polynomial and verifying
none falls inside the region (up to the root-finder tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PinningError
from .graphs import Graph, MINUS, PLUS, Pinning
from .numerics import ExactComplex, ONE, Polynomial, _gmul, poly_roots
from .partition import eliminate_pins, z_poly_lambda

MODULUS_TOL = 1e-9


@dataclass(frozen=True)
class RootReport:
    """Roots of a scanned field polynomial with modulus statistics.

    ``roots`` carries the full multiset including exact zeros from a forced
    lambda power (one per + pin); ``band`` and ``annulus_violations`` are
    populated by checks that query a zero-free modulus band, counting the
    nonzero roots whose modulus escapes the band widened by MODULUS_TOL.
    """

    roots: tuple[complex, ...]
    moduli: tuple[float, ...]
    min_modulus: float
    max_modulus: float
    band: tuple[float, float] | None = None
    annulus_violations: int | None = None
    cross_check_mismatch: float | None = None

    def to_json(self) -> dict:
        doc = {
            "roots": [[r.real, r.imag] for r in self.roots],
            "moduli": list(self.moduli),
            "min_modulus": self.min_modulus,
            "max_modulus": self.max_modulus,
        }
        if self.band is not None:
            doc["band"] = list(self.band)
            doc["annulus_violations"] = self.annulus_violations
        if self.cross_check_mismatch is not None:
            doc["cross_check_mismatch"] = self.cross_check_mismatch
        return doc


def _report(roots: list[complex], band: tuple[float, float] | None = None,
            cross_check_mismatch: float | None = None) -> RootReport:
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    moduli = tuple(sorted(abs(r) for r in roots))
    violations = None
    if band is not None:
        lo, hi = band
        violations = sum(1 for m in moduli if m > MODULUS_TOL
                         and (m < lo - MODULUS_TOL or m > hi + MODULUS_TOL))
    return RootReport(roots=tuple(roots), moduli=moduli,
                      min_modulus=moduli[0], max_modulus=moduli[-1],
                      band=band, annulus_violations=violations,
                      cross_check_mismatch=cross_check_mismatch)


def _proportional(a: Polynomial, b: Polynomial) -> bool:
    """Whether a is a constant multiple of b, exactly: a_i b_n == b_i a_n on
    their Gaussian-integer numerators, n the common degree."""
    x, y = a.numerators, b.numerators
    return len(x) == len(y) and all(_gmul(u, y[-1]) == _gmul(v, x[-1]) for u, v in zip(x, y))


def _poly_root_multiset(poly: Polynomial) -> list[complex]:
    """Roots with multiplicity; a forced lambda^k factor yields k exact zeros."""
    if poly.degree < 1:
        raise ValueError("the field polynomial must have degree >= 1")
    k = poly.valuation()
    roots: list[complex] = [0j] * k
    reduced = poly.shifted_down(k)
    if reduced.degree >= 1:
        roots.extend(poly_roots(reduced))
    return roots


def lambda_root_scan(g: Graph, p: Pinning, beta, gamma) -> RootReport:
    """All roots of the pinned partition polynomial in the uniform field."""
    poly = z_poly_lambda(g, p, beta, gamma)
    return _report(_poly_root_multiset(poly))


def pinned_annulus_check(g: Graph, p: Pinning, beta, d: int | None = None) -> RootReport:
    """Root-modulus band check for pinned ferromagnetic Ising instances.

    For edge activity beta > 1 on a graph of maximum degree <= d, every
    nonzero root of the pinned field polynomial must have modulus inside
    [beta^-d, beta^d]. The polynomial is recomputed through the
    pin-elimination route and compared exactly: one zero root per + pin,
    times the eliminated polynomial up to a constant factor. Proportional
    polynomials have the same roots, so the routes share one root solve.
    The report records the violation count and a cross-check mismatch of
    0.0 when the routes agree, None when they differ. The elimination's
    fields are powers of beta, one per distinct exponent, and its prefactor
    is not read. A square-free polynomial's split ends at
    its certificate, one gcd modulo a prime, so the subresultant sequence
    runs only on a polynomial with a repeated factor or one that prime
    cannot decide.
    """
    beta = ExactComplex._coerce(beta)
    # on beta's canonical triple (a, im, den), den > 0: beta > 1 iff im == 0 and a > den
    a, im, den = beta._abd
    if im or a <= den:
        raise ValueError("the annulus statement needs a real edge activity > 1")
    if d is None:
        d = max(2, g.max_degree())
    elif g.max_degree() > d:
        raise ValueError(f"graph degree {g.max_degree()} exceeds the bound {d}")
    poly = z_poly_lambda(g, p, beta, beta)
    roots = _poly_root_multiset(poly)
    reduced, rescaled, _prefactor = eliminate_pins(g, p, beta, (ONE,) * g.n)
    plus_pins = sum(1 for _, s in p.items() if s == PLUS)
    reduced_poly = z_poly_lambda(reduced, Pinning(), beta, beta, scale=rescaled)
    agree = (poly.valuation() == plus_pins
             and _proportional(poly.shifted_down(plus_pins), reduced_poly))
    # int / int rounds correctly, as float(Fraction(a, den)) does
    b = a / den
    return _report(roots, band=(b ** (-d), b ** d),
                   cross_check_mismatch=0.0 if agree else None)


def single_pin_check(g: Graph, p: Pinning, beta, side: str = "auto") -> RootReport:
    """Root count in the single-pin zero-free region.

    With at most one + pin the region is 0 < |lambda| < 1/beta; mirrored,
    with at most one - pin it is |lambda| > beta (ferromagnetic Ising,
    beta > 1). The band is the region's complement, so annulus_violations
    counts the nonzero roots inside the region; a nonzero count would
    falsify the implementation rather than the statement.
    """
    beta = ExactComplex._coerce(beta)
    a, im, den = beta._abd  # beta > 1, read as in pinned_annulus_check
    if im or a <= den:
        raise ValueError("the single-pin statement needs a real edge activity > 1")
    n_plus = sum(1 for _, s in p.items() if s == PLUS)
    n_minus = sum(1 for _, s in p.items() if s == MINUS)
    if side == "auto":
        side = "small" if n_plus <= 1 else "large"
    if side == "small" and n_plus > 1:
        raise PinningError("the small-field region allows at most one + pin")
    if side == "large" and n_minus > 1:
        raise PinningError("the large-field region allows at most one - pin")
    if side not in ("small", "large"):
        raise ValueError(f"unknown side {side!r}")

    b = a / den
    band = (1 / b, math.inf) if side == "small" else (0.0, b)
    return _report(_poly_root_multiset(z_poly_lambda(g, p, beta, beta)), band=band)


def region_min_modulus(instances: list[tuple[Graph, Pinning]], beta, gamma,
                       grid: list[complex]) -> list[tuple[complex, float]]:
    """Minimum |Z| over a finite instance family at every grid field value.

    Zeros are data here: the table maps out where the family's partition
    values get small, with no pass/fail judgement.
    """
    polys = [z_poly_lambda(g, p, beta, gamma) for g, p in instances]
    out = []
    for lam in grid:
        if polys:
            m = min(abs(poly.evaluate_complex(lam)) for poly in polys)
        else:
            m = math.inf
        out.append((lam, m))
    return out
