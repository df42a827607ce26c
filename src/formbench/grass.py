"""Degree of the bivector embedding along a Schubert line.

For the pencil of n-planes W(a:b) = span{x_1, .., x_{n-1}, a x_n + b x_{n+1}}
inside a 2n-dimensional space, the coordinates of the big wedge of a basis of
wedge^2 W are homogeneous polynomials in (a, b); after removing common
content their shared degree is the pullback degree of the hyperplane class.

The bivectors y_ij = x_i ^ x_j are treated as degree-one generators of a
fresh free algebra, which reuses all the sign bookkeeping of the exterior
module instead of a bespoke minor expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exterior import Coframe, Generator
from .scalars import PolyScalar, VariableTable, without_content


@dataclass(frozen=True)
class PlueckerCurve:
    """The reduced coordinate vector of the curve (a:b) -> wedge^2 W."""

    n: int
    coordinates: dict  # key: tuple of (i,j) pairs -> PolyScalar
    distinguished: tuple

    def degrees(self):
        return sorted(
            {
                sum(e)
                for poly in self.coordinates.values()
                for e in poly.terms
            }
        )

    def degree(self):
        degrees = self.degrees()
        if len(degrees) != 1:
            raise ValueError(f"coordinates are not equi-homogeneous: {degrees}")
        return degrees[0]

    def alpha_vanishing_order(self):
        """Order of vanishing of the distinguished coordinate at a = 0."""
        poly = self.coordinates.get(self.distinguished)
        if poly is None or not poly:
            raise ValueError("the distinguished coordinate vanishes identically")
        return min(poly.coefficients_in("a"))


def pluecker_curve(n):
    """Coordinates of the big wedge of a basis of wedge^2 W(a:b) against the
    standard basis, with common content removed."""
    if n < 2:
        raise ValueError("n must be at least 2")
    pairs = list(combinations(range(1, 2 * n + 1), 2))
    table = VariableTable([("a", "a"), ("b", "b")])
    generators = [Generator(f"y{i}_{j}", (1, 0)) for i, j in pairs]
    coframe = Coframe(generators, table)
    alpha = table.variable("a")
    beta = table.variable("b")

    def bivector(i, j):
        return coframe.generator_form(f"y{i}_{j}")

    vectors = []
    for i, j in combinations(range(1, n), 2):
        vectors.append(bivector(i, j))
    for k in range(1, n):
        vectors.append(
            bivector(k, n).scaled(alpha) + bivector(k, n + 1).scaled(beta)
        )
    big = coframe.unit()
    for vector in vectors:
        big = big.wedge(vector)
    coordinates = {
        tuple(pairs[p] for p in mon): coeff for mon, coeff in big.terms.items()
    }
    coordinates = _remove_content(coordinates, table)
    distinguished = tuple(combinations(range(1, n + 1), 2))
    return PlueckerCurve(n=n, coordinates=coordinates, distinguished=distinguished)


def _remove_content(coordinates, table):
    """Divide all coordinates by their common rational content and the
    largest common variable monomial.  The coordinates here are integer
    multiples of monomials in (a, b), so no polynomial gcd is needed."""
    polys = [p for p in coordinates.values() if p]
    if not polys:
        return coordinates
    shift = [min(column) for column in zip(*(e for poly in polys for e in poly.terms))]
    return {
        key: PolyScalar(table, {tuple(e - s for e, s in zip(exps, shift)): c
                                for exps, c in poly.terms.items()})
        for key, poly in zip(coordinates, without_content(list(coordinates.values())))
    }
