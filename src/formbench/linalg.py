"""Exact linear algebra over the Gaussian rationals.

Dense matrices are lists of row lists of GaussianRational; ``rref`` and
``solve`` work on them.  The cohomology tables use ``nullspace`` and
``quotient_representatives``, which take and return sparse Gaussian-integer
rows ``{column: (re, im)}`` holding only the nonzero entries.  Both clear a
pivot by cross-multiplication and keep each echelon row primitive with a
positive-integer pivot, so no fraction is formed.  A returned row is a
positive integer multiple of the vector the reduced row echelon form over
Q(i) gives, which changes no kernel and no span; the caller divides once.
Elimination pivots on the first nonzero entry in column order; there is no
numerical tolerance anywhere in the package.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import ONE, ZERO


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


def _eliminate(v, echelon):
    """A copy of v with the pivot column of every (pivot, (s, row)) item
    cleared, each by the cross-multiplication s*v - v[pivot]*row; v itself,
    which may be a memoized operator image, is left alone.

    Each row is s at its pivot and 0 at the pivots listed before it, so one
    pass in order clears all of them.  The result is a positive integer
    multiple of the remainder over Q(i), which is unique.
    """
    v = dict(v)
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


def nullspace(rows, n_cols):
    """A basis of the kernel of the Gaussian-integer rows acting on column
    vectors of length n_cols: one row per free column f of the reduced row
    echelon form, in column order, each a positive integer multiple of the
    kernel vector that is 1 at f and 0 at the other free columns."""
    reduced = {}  # pivot column -> (s, row): s there and 0 at other pivots
    for vec in rows:
        v = _eliminate(vec, reduced.items())
        if v:
            pivot, s, v = _primitive(v)
            for p, (_, row) in reduced.items():
                if pivot in row:
                    reduced[p] = _primitive(_eliminate(row, [(pivot, (s, v))]))[1:]
            reduced[pivot] = (s, v)
    basis = []
    for f in range(n_cols):
        if f not in reduced:
            hits = [(p, s, row[f]) for p, (s, row) in reduced.items() if f in row]
            m = lcm(*(s for _, s, _ in hits))
            vec = {p: (-x * (m // s), -y * (m // s)) for p, s, (x, y) in hits}
            vec[f] = (m, 0)
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
    """Representatives of span(cocycles) modulo span(boundaries), all
    Gaussian-integer rows.

    Reduces each cocycle against an echelon of the boundaries.  Each nonzero
    remainder is returned as a pair (s, row): a primitive row whose first
    nonzero entry is the positive integer s, so that row / s is the
    echelon-form representative, 1 at its first nonzero column.
    """
    echelon = {}  # pivot column -> (s, row), in insertion order

    def insert(vec):
        v = _eliminate(vec, echelon.items())
        if not v:
            return None
        pivot, s, row = _primitive(v)
        echelon[pivot] = (s, row)
        return s, row

    for b in boundaries:
        insert(b)
    return list(filter(None, map(insert, cocycles)))
