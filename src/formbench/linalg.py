"""Exact linear algebra over the Gaussian rationals.

Dense matrices are lists of row lists of GaussianRational; ``rref`` and
``solve`` work on them.  ``rank``, the size of the echelon of some rows, and
``quotient_representatives``, which takes each operator as its image columns
and returns the kernel modulo the boundaries from one echelon, work on sparse
Gaussian-integer rows ``{column: (re, im)}`` holding only the nonzero entries;
``nullspace`` is its case without boundaries.  The echelon is a dict {pivot:
(s, row)}, each row pivoting on its least key.  A vector is reduced in key
order: a heap holds the keys of the vector that are pivots, and each
subtracted row can only bring in larger keys, so an insert costs the rows it
meets, not the size of the echelon, and one that meets none is not copied.  A
pivot is cleared by cross-multiplication and each echelon row is kept
primitive with a positive-integer pivot, so no fraction is formed.  A returned
row is a positive integer multiple of the vector the reduced row echelon form
over Q(i) gives, which changes no kernel and no span; the caller divides once.
There is no numerical tolerance anywhere in the package.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

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


def _eliminate(v, heap, echelon):
    """A fresh copy of v with every pivot of the echelon {pivot: (s, row)},
    listed in heap, cleared by the cross-multiplication s*v - v[pivot]*row;
    v itself, which may be a memoized operator image, is left alone.

    A row's pivot is its least key, so subtracting it brings in only larger
    keys: clearing the pivots of v in increasing key order, from a heap that
    each subtracted row's new pivots join, touches only the rows v meets and
    never undoes a cleared pivot.  The result is a positive integer multiple
    of the remainder over Q(i), which is unique.
    """
    v = dict(v)
    heapify(heap)
    while heap:
        pivot = heappop(heap)
        lead = v.get(pivot)
        if lead is None:  # cancelled, or a key pushed twice
            continue
        s, row = echelon[pivot]
        if len(row) == 1:  # the unit row {pivot: 1} clears its pivot alone
            del v[pivot]
            continue
        a, b = lead
        if s != 1:
            v = {c: (s * x, s * y) for c, (x, y) in v.items()}
        for c, (x, y) in row.items():
            old = v.get(c)
            if old is None:
                re, im = -(a * x - b * y), -(a * y + b * x)
                if c in echelon:
                    heappush(heap, c)
            else:
                re = old[0] - (a * x - b * y)
                im = old[1] - (a * y + b * x)
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
    if len(v) == 1:
        return pivot, 1, {pivot: (1, 0)}
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


def _insert(vec, echelon):
    """The pivot of vec's remainder, now in the echelon; -1 if it is 0."""
    heap = []
    for c in vec:  # a loop: most vectors are too short to pay for a comprehension
        if c in echelon:
            heap.append(c)
    v = _eliminate(vec, heap, echelon) if heap else vec
    if not v:
        return -1
    pivot, s, row = _primitive(v)
    echelon[pivot] = (s, row)
    return pivot


def rank(vectors):
    """The dimension of the span of Gaussian-integer rows: their echelon size."""
    echelon = {}
    for v in filter(None, vectors):
        _insert(v, echelon)
    return len(echelon)


def nullspace(operators):
    """A basis of the common kernel of the operators, given as in
    ``quotient_representatives``: one primitive Gaussian-integer row per
    dependent column, in column order."""
    return [row for _, row in quotient_representatives(operators, [])]


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


def quotient_representatives(operators, boundaries):
    """Representatives of the common kernel of the operators modulo
    span(boundaries), as Gaussian-integer rows from one echelon.

    ``operators[j][i]`` is the image {r: (re, im)} of basis vector i under
    operator j, r any nonnegative int key, such as a target index or mask.
    The boundaries must lie in the common kernel, as they do when d^2,
    delbar^2 and the deldelbar compositions vanish.  The nonzero ones go in
    first; then each basis vector i, in order, goes in as 1 at i plus its
    images under the keys ~(r * len(operators) + j), which sort below every
    basis index and so pivot first: the representatives depend on the basis
    order and not on the image keys.  A remainder whose images cancel is a
    new class, returned as (s, row): primitive, with the positive integer s
    at its first nonzero column, so that row / s is the echelon-form
    representative.
    """
    width = len(operators)
    echelon = {}  # pivot key -> (s, row)
    for b in filter(None, boundaries):
        _insert(b, echelon)
    reps = []
    for i, images in enumerate(zip(*operators)):
        vec = {}
        for j, image in enumerate(images):
            for r, xy in image.items():
                vec[~(r * width + j)] = xy
        vec[i] = (1, 0)
        pivot = _insert(vec, echelon)
        if pivot >= 0:
            reps.append(echelon[pivot])
    return reps
