import random
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from formbench import linalg
from formbench.scalars import GaussianRational
from support import (
    dense,
    determinant,
    determinant_ring,
    divided,
    exact_rows,
    gaussian,
    integer_row,
    nonzero_gaussian,
    rank,
    reference_nullspace,
    reference_quotient_representatives,
    scan_quotient_representatives,
)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def random_matrix(rng, rows, cols):
    return [[gaussian(rng) for _ in range(cols)] for _ in range(rows)]


def image_columns(rows, n):
    """Sparse rows as the n image columns {row: value} of one operator."""
    return [{r: row[c] for r, row in enumerate(rows) if c in row}
            for c in range(n)]


def operators(rng, matrix, n):
    """The dense matrix as two operators of image columns, its
    Gaussian-integer rows split at a random point.  Each row is scaled by its
    own denominators, which keeps the kernel."""
    rows = [integer_row(row) for row in matrix]
    k = rng.randint(0, len(rows))
    return [image_columns(rows[:k], n), image_columns(rows[k:], n)]


def kernel_combinations(rng, kernel, n, count, coefficient):
    """count vectors inside span(kernel), each a sparse combination of the
    kernel vectors, so some are zero and some repeat up to a factor."""
    vectors = []
    for _ in range(count):
        vec = [ZERO] * n
        for k in kernel:
            if rng.random() < 0.4:
                c = coefficient(rng)
                vec = [a + c * b for a, b in zip(vec, k)]
        vectors.append(vec)
    return vectors


def kernel_vectors(basis, n):
    """Kernel rows divided by their first nonzero entry, which must be a
    positive integer: dense vectors that are 1 there."""
    vectors = []
    for vec in basis:
        s, zero = vec[min(vec)]
        assert type(s) is int and s > 0 and zero == 0
        vectors.append(dense(divided(s, vec), n))
    return vectors


def echelon_kernel(matrix, n):
    """The kernel basis the sparse elimination returns, from the dense
    references: the rref kernel in echelon form, 1 at each first entry."""
    return reference_quotient_representatives(reference_nullspace(matrix, n), [])


def representatives(reps, n):
    """(s, row) representatives as dense vectors row / s."""
    return [dense(divided(s, row), n) for s, row in reps]


def mat_vec(matrix, vec):
    return [
        sum((row[i] * vec[i] for i in range(len(vec))), ZERO) for row in matrix
    ]


def test_rref_and_rank():
    matrix = [
        [ONE, GaussianRational(2), GaussianRational(3)],
        [GaussianRational(2), GaussianRational(4), GaussianRational(6)],
        [ZERO, ONE, ONE],
    ]
    reduced, pivots = linalg.rref(matrix)
    assert pivots == [0, 1]
    assert rank(matrix) == 2


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(25):
        matrix = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        n = len(matrix[0])
        rows = [integer_row(row) for row in matrix]
        basis = linalg.nullspace([image_columns(rows, n)])
        assert len(basis) == n - rank(matrix)
        for vec in kernel_vectors(basis, n):
            assert all(not x for x in mat_vec(matrix, vec))


def test_nullspace_of_empty_matrix():
    assert len(linalg.nullspace([[{}, {}, {}]])) == 3


def test_solve_consistent_and_inconsistent():
    rng = random.Random(5)
    for _ in range(25):
        matrix = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = [gaussian(rng) for _ in range(len(matrix[0]))]
        b = mat_vec(matrix, x)
        solution = linalg.solve(matrix, b)
        assert solution is not None
        assert mat_vec(matrix, solution) == b
    assert linalg.solve([[ZERO]], [ONE]) is None


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(15):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        product = [
            [sum((a[i][k] * b[k][j] for k in range(3)), ZERO) for j in range(3)]
            for i in range(3)
        ]
        assert determinant(product) == determinant(a) * determinant(b)


def test_determinant_ring_matches_field_version():
    rng = random.Random(11)
    for _ in range(15):
        a = random_matrix(rng, 4, 4)
        assert determinant_ring(a, ONE) == determinant(a)


def test_quotient_representatives():
    e1 = {0: (1, 0)}
    e2 = {1: (1, 0)}
    zero = [[{}, {}]]  # the zero operator on a two-dimensional space
    assert linalg.quotient_representatives(zero, [e1]) == [(1, e2)]
    # no boundaries: representatives span the kernel
    assert len(linalg.quotient_representatives(zero, [])) == 2
    total = [[{0: (1, 0)}, {0: (1, 0)}]]  # (x, y) -> x + y
    difference = {0: (1, 0), 1: (-1, 0)}
    assert linalg.quotient_representatives(total, []) == [(1, difference)]
    assert linalg.quotient_representatives(
        total, [{0: (2, 0), 1: (-2, 0)}]) == []


def random_sparse_matrix(rng, rows, cols, density):
    """A dense matrix whose entries are nonzero with probability density,
    with some rows replaced by zero rows or by multiples of earlier rows."""
    matrix = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.1:
            matrix.append([ZERO] * cols)
        elif roll < 0.25 and matrix:
            factor = rng.choice((ONE, nonzero_gaussian(rng)))
            matrix.append([factor * x for x in rng.choice(matrix)])
        else:
            matrix.append([nonzero_gaussian(rng) if rng.random() < density
                           else ZERO for _ in range(cols)])
    return matrix


def full_rank_matrix(rng, n, density):
    """An n x n unit upper-triangular matrix with sparse entries above the
    diagonal, rows shuffled."""
    matrix = [[ONE if i == j else
               nonzero_gaussian(rng) if j > i and rng.random() < density
               else ZERO for j in range(n)] for i in range(n)]
    rng.shuffle(matrix)
    return matrix


def test_sparse_elimination_matches_dense_reference():
    rng = random.Random(23)
    cases = [([], 0), ([], 4), ([[]], 0), ([[], []], 0)]
    for _ in range(120):
        density = rng.choice((0.05, 0.1, 0.2, 0.3))
        cols = rng.randint(1, 12)
        cases.append((random_sparse_matrix(rng, rng.randint(1, 10), cols,
                                           density), cols))
    for n in (1, 5, 9):
        cases.append((full_rank_matrix(rng, n, 0.3), n))
    for matrix, n in cases:
        ops = operators(rng, matrix, n)
        basis = linalg.nullspace(ops)
        assert kernel_vectors(basis, n) == echelon_kernel(matrix, n)
        assert_integer_rows(basis)

        kernel = reference_nullspace(matrix, n)
        boundaries = kernel_combinations(rng, kernel, n, rng.randint(0, 6),
                                         nonzero_gaussian)
        reps = linalg.quotient_representatives(
            ops, [integer_row(b) for b in boundaries])
        assert representatives(reps, n) == reference_quotient_representatives(
            kernel, boundaries
        )


def disjoint_matrix(rng, rows, cols):
    """Gaussian-integer rows on disjoint columns, so that no row meets the
    pivot of another, each scaled by a Gaussian prime, 6 or -1: leads that
    are negative, not real or not 1, and parts that share a factor."""
    matrix = [[ZERO] * cols for _ in range(rows)]
    for c in range(cols):
        value = ZERO
        while not value:
            value = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
        matrix[rng.randrange(rows)][c] = value
    factors = GAUSSIAN_PRIMES + (GaussianRational(6), GaussianRational(-1))
    return [[factor * x for x in row]
            for row, factor in zip(matrix, rng.choices(factors, k=rows))]


def test_rank_matches_the_dense_reference(monkeypatch):
    # seeded Gaussian-integer rows with zero rows, rows repeated up to a
    # factor, combinations of earlier rows and rows that meet no pivot,
    # against the dense rref; the rows are read-only views, as the memoized
    # operator images are never to be written
    rng = random.Random(37)
    cases = [[], [[]], [[ZERO] * 3, [ZERO] * 3]]
    for _ in range(120):
        cases.append(random_sparse_matrix(rng, rng.randint(1, 10), rng.randint(1, 12),
                                          rng.choice((0.1, 0.2, 0.3, 0.5))))
    for _ in range(30):
        cases.append(hard_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
    for n in (1, 5, 9):
        cases.append(full_rank_matrix(rng, n, 0.3))
    disjoint = [disjoint_matrix(rng, rng.randint(1, 6), rng.randint(1, 12))
                for _ in range(30)]
    eliminations = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: eliminations.append(1) or eliminate(*args))
    deficient = 0
    for k, matrix in enumerate(cases + disjoint):
        rows = [MappingProxyType(integer_row(row)) for row in matrix]
        copies = [dict(row) for row in rows]
        expected = rank(matrix)
        del eliminations[:]
        assert linalg.rank(rows) == expected, matrix
        assert rows == copies
        deficient += expected < len(matrix)
        if k >= len(cases):  # rows that meet no pivot go in with no elimination
            assert not eliminations and expected == sum(map(any, matrix))
    assert deficient > 50


def wide_gaussian(rng):
    """A Gaussian rational with parts near 10**12 over denominators up to
    10**6; one part in five is zero and the value is never zero."""

    def part():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.choice((-1, 1)) * (10**12 + rng.randint(-999, 999)),
                        rng.randint(1, 10**6))

    while True:
        value = GaussianRational(part(), part())
        if value:
            return value


GAUSSIAN_PRIMES = (GaussianRational(1, 1), GaussianRational(2, 1),
                   GaussianRational(3), GaussianRational(1, -2))


def hard_matrix(rng, rows, cols):
    """Wide entries, non-real first entries, rows multiplied by Gaussian
    primes, duplicated rows and combinations of earlier rows."""
    matrix = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.2 and matrix:
            matrix.append(list(rng.choice(matrix)))
        elif roll < 0.45 and matrix:
            prime = rng.choice(GAUSSIAN_PRIMES)
            matrix.append([prime * x for x in rng.choice(matrix)])
        elif roll < 0.6 and len(matrix) > 1:
            a, b = rng.sample(matrix, 2)
            c = wide_gaussian(rng)
            matrix.append([x + c * y for x, y in zip(a, b)])
        else:
            row = [wide_gaussian(rng) if rng.random() < 0.5 else ZERO
                   for _ in range(cols)]
            lead = rng.randrange(cols)
            row[lead] = GaussianRational(rng.randint(-9, 9), rng.choice((-1, 1)))
            matrix.append([rng.choice(GAUSSIAN_PRIMES) * x for x in row])
    return matrix


def assert_integer_rows(vectors):
    """Every entry an (int, int) pair other than (0, 0)."""
    for vec in vectors:
        for value in vec.values():
            assert type(value) is tuple and len(value) == 2 and any(value)
            assert all(type(part) is int for part in value)


def test_integer_row_elimination_matches_dense_reference():
    rng = random.Random(101)
    for _ in range(30):
        cols = rng.randint(1, 7)
        matrix = hard_matrix(rng, rng.randint(1, 7), cols)
        ops = operators(rng, matrix, cols)
        basis = linalg.nullspace(ops)
        assert kernel_vectors(basis, cols) == echelon_kernel(matrix, cols)
        assert_integer_rows(basis)

        kernel = reference_nullspace(matrix, cols)
        boundaries = kernel_combinations(rng, kernel, cols, rng.randint(0, 4),
                                         wide_gaussian)
        reps = linalg.quotient_representatives(
            ops, [integer_row(b) for b in boundaries])
        assert representatives(reps, cols) == reference_quotient_representatives(
            kernel, boundaries
        )
        rows = [row for _, row in reps]
        assert_integer_rows(rows)
        for s, row in reps:  # primitive, with the positive integer s first
            assert type(s) is int and s > 0 and row[min(row)] == (s, 0)
            assert gcd(*(part for xy in row.values() for part in xy)) == 1


def test_integer_row_elimination_leaves_inputs_alone():
    # unit boundaries come first, so echelon rows with pivot s = 1 exist;
    # that is where the elimination works on a row in place.  Without them,
    # the zero image columns 0, 2 and 5 take the unit path, and an empty
    # boundary is skipped
    rng = random.Random(103)
    matrix = [[ZERO if c in (0, 2, 5) else x for c, x in enumerate(row)]
              for row in hard_matrix(rng, 3, 7)]
    ops = operators(rng, matrix, 7)
    units = [{c: (1, 0)} for c in (0, 2, 5)]
    copies = [[dict(image) for image in op] for op in ops]
    kernel = linalg.nullspace(ops)
    kernel_copies = [dict(v) for v in kernel]
    assert len(kernel) > 3
    empty = {}
    inputs = [image for op in ops for image in op] + units + kernel + [empty]
    for boundaries in (units, kernel, [empty], [empty, *units]):
        reps = linalg.quotient_representatives(ops, boundaries)
        assert not any(row is vec for _, row in reps for vec in inputs)
        if boundaries == [empty]:
            assert all((1, {c: (1, 0)}) in reps for c in (0, 2, 5))
        for _, row in reps:  # a caller may keep and change what it gets
            row.clear()
    assert ops == copies
    assert units == [{c: (1, 0)} for c in (0, 2, 5)]
    assert kernel == kernel_copies
    assert empty == {}


def with_zero_columns(rng, matrix, n):
    """The matrix with one to three zero columns put in at random places,
    and its new width."""
    width = n + rng.randint(1, 3)
    zero = set(rng.sample(range(width), width - n))
    rows = []
    for row in matrix:
        entries = iter(row)
        rows.append([ZERO if c in zero else next(entries) for c in range(width)])
    return rows, width


def test_key_ordered_elimination_matches_the_scan():
    # reference route: the insertion-order scan over the whole echelon gives
    # the same integers, with zero image columns (the unit path when no
    # boundary pivots there) and empty boundaries added
    rng = random.Random(29)
    cases = []
    for _ in range(60):
        cols = rng.randint(1, 12)
        density = rng.choice((0.05, 0.1, 0.2, 0.3))
        cases.append((random_sparse_matrix(rng, rng.randint(1, 10), cols, density),
                      cols, nonzero_gaussian))
    for _ in range(30):
        cols = rng.randint(1, 7)
        cases.append((hard_matrix(rng, rng.randint(1, 7), cols), cols,
                      wide_gaussian))
    for matrix, n, coefficient in cases:
        matrix, n = with_zero_columns(rng, matrix, n)
        ops = operators(rng, matrix, n)
        kernel = reference_nullspace(matrix, n)
        boundaries = [integer_row(b) for b in kernel_combinations(
            rng, kernel, n, rng.randint(0, 6), coefficient)]
        for _ in range(rng.randint(1, 2)):
            boundaries.insert(rng.randint(0, len(boundaries)), {})
        for bounds in (boundaries, []):
            assert exact_rows(linalg.quotient_representatives(ops, bounds)) == (
                exact_rows(scan_quotient_representatives(ops, bounds)))
