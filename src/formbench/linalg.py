"""Exact linear algebra over the Gaussian rationals.

Dense matrices are lists of row lists of GaussianRational; ``rref`` and
``solve`` work on them.  The cohomology tables use ``nullspace`` and
``quotient_representatives``, which take and return sparse rows:
``{column: value}`` dicts holding only the nonzero entries.  Inside, these
two eliminate on Gaussian-integer rows ``{column: (re, im)}``: each input
row is cleared of denominators once, each echelon row is kept primitive with
a positive-integer pivot, and a row becomes GaussianRational again only when
it is returned, divided by its pivot.  Elimination pivots on the first
nonzero entry in column order; there is no numerical tolerance anywhere in
the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import ONE, ZERO, GaussianRational, _integer_terms


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _integer_row(vec):
    """A sparse GaussianRational row as a Gaussian-integer row
    {column: (re, im)}: the row times the common denominator of its parts."""
    terms, _ = _integer_terms(vec)
    return {c: (re, im) for c, re, im in terms}


def _eliminate(v, echelon):
    """v with the pivot column of every (pivot, (s, row)) item cleared, each
    by the cross-multiplication s*v - v[pivot]*row.

    Each row is s at its pivot and 0 at the pivots listed before it, so one
    pass in order clears all of them.  The result is a positive integer
    multiple of the remainder over Q(i), which is unique.
    """
    for pivot, (s, row) in echelon:
        lead = v.get(pivot)
        if lead is None:
            continue
        a, b = lead
        if s != 1:
            v = {c: (s * x, s * y) for c, (x, y) in v.items()}
        for c, (x, y) in row.items():
            re, im = v.get(c, (0, 0))
            re -= a * x - b * y
            im -= a * y + b * x
            if re or im:
                v[c] = (re, im)
            else:
                del v[c]
    return v


def _primitive(v):
    """(pivot, s, row): v times the conjugate of its first nonzero entry,
    divided by the integer gcd of all parts, so the pivot entry is the
    positive integer s."""
    pivot = min(v)
    a, b = v[pivot]
    if b or a < 0:
        v = {c: (x * a + y * b, y * a - x * b) for c, (x, y) in v.items()}
    s = v[pivot][0]
    if s != 1:
        g = gcd(*(part for xy in v.values() for part in xy))
        if g != 1:
            v = {c: (x // g, y // g) for c, (x, y) in v.items()}
            s //= g
    return pivot, s, v


def _divided(x, y, s):
    return GaussianRational(Fraction(x, s), Fraction(y, s))


def nullspace(rows, n_cols):
    """A basis of the kernel of the sparse rows acting on column vectors of
    length n_cols: one vector per free column of the reduced row echelon
    form, in column order."""
    reduced = {}  # pivot column -> (s, row): s there and 0 at other pivots
    for vec in rows:
        v = _eliminate(_integer_row(vec), reduced.items())
        if v:
            pivot, s, v = _primitive(v)
            for p, (_, row) in reduced.items():
                if pivot in row:
                    reduced[p] = _primitive(_eliminate(row, [(pivot, (s, v))]))[1:]
            reduced[pivot] = (s, v)
    basis = []
    for f in range(n_cols):
        if f not in reduced:
            vec = {f: ONE}
            for p, (s, row) in reduced.items():
                if f in row:
                    x, y = row[f]
                    vec[p] = _divided(-x, -y, s)
            basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One solution of matrix @ x = rhs, or None when inconsistent."""
    if not matrix:
        return [] if not any(rhs) else None
    n = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(augmented)
    if n in pivots:
        return None
    x = [ZERO] * n
    for r, p in enumerate(pivots):
        x[p] = reduced[r][n]
    return x


def quotient_representatives(cocycles, boundaries):
    """Representatives of span(cocycles) modulo span(boundaries).

    Reduces each cocycle against an echelon of the boundaries; nonzero
    remainders become echelon-form representatives, 1 at their first nonzero
    column.  Vectors are sparse ``{column: value}`` dicts over
    GaussianRational.
    """
    echelon = {}  # pivot column -> (s, row), in insertion order

    def insert(vec):
        v = _eliminate(_integer_row(vec), echelon.items())
        if not v:
            return None
        pivot, s, row = _primitive(v)
        echelon[pivot] = (s, row)
        return s, row

    for b in boundaries:
        insert(b)
    return [{c: _divided(x, y, s) for c, (x, y) in row.items()}
            for s, row in filter(None, map(insert, cocycles))]
