import random
from itertools import combinations

import pytest

from formbench.grass import pluecker_curve
from formbench.scalars import VariableTable
from support import determinant_ring


def test_embedding_degrees():
    for n in range(2, 6):
        assert pluecker_curve(n).degree() == n - 1


def test_coordinates_equi_homogeneous_and_nonzero():
    for n in range(2, 6):
        curve = pluecker_curve(n)
        assert curve.degrees() == [n - 1]
        assert any(poly for poly in curve.coordinates.values())


def test_distinguished_coordinate_is_unit_alpha_power():
    for n in range(2, 6):
        curve = pluecker_curve(n)
        poly = curve.coordinates.get(curve.distinguished)
        assert poly is not None and len(poly.terms) == 1
        (exps, coeff), = poly.terms.items()
        table = poly.table
        assert exps[table.index("a")] == n - 1
        assert exps[table.index("b")] == 0
        assert coeff.norm() == 1  # +-1 up to the wedge-order unit
        assert curve.alpha_vanishing_order() == n - 1


def test_pure_beta_coordinate_exists():
    # choosing the (k, n+1) column for every pencil vector gives +-b^(n-1)
    for n in range(2, 6):
        curve = pluecker_curve(n)
        key = tuple(
            sorted(
                list(combinations(range(1, n), 2))
                + [(k, n + 1) for k in range(1, n)]
            )
        )
        poly = curve.coordinates[key]
        (exps, _), = poly.terms.items()
        assert exps[poly.table.index("b")] == n - 1


def _coefficient_matrix(n, table):
    """Rows of the basis of wedge^2 W over the y_(ij) columns."""
    pairs = list(combinations(range(1, 2 * n + 1), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    alpha = table.variable("a")
    beta = table.variable("b")
    zero = table.zero()
    one = table.one()
    rows = []
    for i, j in combinations(range(1, n), 2):
        row = [zero] * len(pairs)
        row[index[(i, j)]] = one
        rows.append(row)
    for k in range(1, n):
        row = [zero] * len(pairs)
        row[index[(k, n)]] = alpha
        row[index[(k, n + 1)]] = beta
        rows.append(row)
    return pairs, rows


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coordinates_match_minor_determinants(n):
    """Independent oracle: every coordinate is the determinant of the
    corresponding column minor of the coefficient matrix."""
    table = VariableTable([("a", "a"), ("b", "b")])
    pairs, rows = _coefficient_matrix(n, table)
    index = {pair: k for k, pair in enumerate(pairs)}
    curve = pluecker_curve(n)
    for key, poly in curve.coordinates.items():
        cols = [index[pair] for pair in key]
        minor = [[row[c] for c in cols] for row in rows]
        assert determinant_ring(minor, table.one()) == poly
    # absent keys have vanishing minors: sample a few
    rng = random.Random(n)
    present = set(curve.coordinates)
    for _ in range(10):
        key = tuple(sorted(rng.sample(pairs, len(rows))))
        if key in present:
            continue
        cols = [index[pair] for pair in key]
        minor = [[row[c] for c in cols] for row in rows]
        assert not determinant_ring(minor, table.one())


def test_small_n_rejected():
    with pytest.raises(ValueError):
        pluecker_curve(1)


def test_n2_curve_is_the_pencil():
    curve = pluecker_curve(2)
    table = next(iter(curve.coordinates.values())).table
    assert curve.coordinates[((1, 2),)] == table.variable("a")
    assert curve.coordinates[((1, 3),)] == table.variable("b")
