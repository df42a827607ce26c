"""Exact linear algebra over the Gaussian rationals.

Dense matrices are lists of row lists of GaussianRational; ``rref``,
``rank``, ``solve`` and the determinants work on them.  The cohomology
tables use ``nullspace`` and ``quotient_representatives``, which work on
sparse rows: ``{column: value}`` dicts holding only the nonzero entries.
Elimination pivots on the first nonzero entry in column order; there is no
numerical tolerance anywhere in the package.
"""

from __future__ import annotations

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


def rank(matrix):
    return len(rref(matrix)[1])


def _subtract(row, factor, pivot_row):
    """row -= factor * pivot_row on sparse rows, dropping entries that cancel."""
    for c, x in pivot_row.items():
        value = row.get(c, ZERO) - factor * x
        if value:
            row[c] = value
        else:
            del row[c]


def _reduce(vec, echelon):
    """A copy of vec with every pivot column of the echelon cleared.

    ``echelon`` maps pivot columns to rows that are 1 there and 0 at every
    pivot inserted before them, so one pass in insertion order clears all
    pivots; the remainder is unique, so the order does not change it.
    """
    v = dict(vec)
    for pivot, row in echelon.items():
        if pivot in v:
            _subtract(v, v[pivot], row)
    return v


def _normalized(v):
    """(pivot, row): v scaled to 1 at its first nonzero column."""
    pivot = min(v)
    inv = ONE / v[pivot]
    return pivot, {c: x * inv for c, x in v.items()}


def nullspace(rows, n_cols):
    """A basis of the kernel of the sparse rows acting on column vectors of
    length n_cols: one vector per free column of the reduced row echelon
    form, in column order."""
    reduced = {}  # pivot column -> row that is 1 there and 0 at other pivots
    for vec in rows:
        v = _reduce(vec, reduced)
        if v:
            pivot, v = _normalized(v)
            for row in reduced.values():
                if pivot in row:
                    _subtract(row, row[pivot], v)
            reduced[pivot] = v
    basis = []
    for f in range(n_cols):
        if f not in reduced:
            vec = {f: ONE}
            for p, row in reduced.items():
                if f in row:
                    vec[p] = -row[f]
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


def determinant(matrix):
    """Determinant by Gaussian elimination over Q(i), dividing by each
    pivot; tests use it as an independent oracle (Pf(A)^2 = det(A))."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    det = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        pivot = rows[c][c]
        det = det * pivot
        inv = ONE / pivot
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = rows[i][c] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return det


def determinant_ring(matrix, one):
    """Cofactor-expansion determinant for matrices over any commutative ring
    (used for symbolic entries, where division is unavailable)."""
    n = len(matrix)
    if n == 0:
        return one

    def minor_det(row_indices, col_indices):
        if len(row_indices) == 1:
            return matrix[row_indices[0]][col_indices[0]]
        i = row_indices[0]
        rest_rows = row_indices[1:]
        total = None
        for k, j in enumerate(col_indices):
            entry = matrix[i][j]
            if not entry:
                continue
            rest_cols = col_indices[:k] + col_indices[k + 1:]
            piece = entry * minor_det(rest_rows, rest_cols)
            if k % 2:
                piece = -piece
            total = piece if total is None else total + piece
        if total is None:
            return matrix[i][col_indices[0]] * 0
        return total

    return minor_det(tuple(range(n)), tuple(range(n)))


def quotient_representatives(cocycles, boundaries):
    """Representatives of span(cocycles) modulo span(boundaries).

    Reduces each cocycle against an echelon of the boundaries; nonzero
    remainders become echelon-form representatives.  Vectors are sparse
    ``{column: value}`` dicts over GaussianRational.
    """
    echelon = {}  # pivot column -> row normalized there, in insertion order

    def insert(vec):
        v = _reduce(vec, echelon)
        if not v:
            return None
        pivot, row = _normalized(v)
        echelon[pivot] = row
        return row

    for b in boundaries:
        insert(b)
    return [row for row in map(insert, cocycles) if row is not None]
