import random
from fractions import Fraction
from math import gcd

from formbench import linalg
from formbench.scalars import GaussianRational
from support import (
    dense,
    determinant,
    determinant_ring,
    divided,
    gaussian,
    integer_row,
    nonzero_gaussian,
    rank,
    reference_nullspace,
    reference_quotient_representatives,
)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def random_matrix(rng, rows, cols):
    return [[gaussian(rng) for _ in range(cols)] for _ in range(rows)]


def kernel_vectors(basis, n):
    """Kernel rows divided by their entry at their last column, the free
    column, which must be a positive integer: the dense kernel vectors that
    are 1 there."""
    vectors = []
    for vec in basis:
        s, zero = vec[max(vec)]
        assert type(s) is int and s > 0 and zero == 0
        vectors.append(dense(divided(s, vec), n))
    return vectors


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
        basis = linalg.nullspace([integer_row(row) for row in matrix], n)
        assert len(basis) == n - rank(matrix)
        for vec in kernel_vectors(basis, n):
            assert all(not x for x in mat_vec(matrix, vec))


def test_nullspace_of_empty_matrix():
    assert len(linalg.nullspace([], 3)) == 3


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
    e12 = {0: (1, 0), 1: (1, 0)}
    reps = linalg.quotient_representatives([e1, e2, e12], [e1])
    assert reps == [(1, e2)]
    # no boundaries: representatives span the cocycles
    reps = linalg.quotient_representatives([e1, e12], [])
    assert len(reps) == 2


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
        basis = linalg.nullspace([integer_row(row) for row in matrix], n)
        assert kernel_vectors(basis, n) == reference_nullspace(matrix, n)
        assert_integer_rows(basis)

        boundaries = random_sparse_matrix(rng, rng.randint(0, 6), n, 0.3)
        cocycles = reference_nullspace(matrix, n)
        cocycles += [[a + b for a, b in zip(x, y)]
                     for x, y in zip(cocycles, boundaries)]
        reps = linalg.quotient_representatives(
            [integer_row(z) for z in cocycles],
            [integer_row(b) for b in boundaries])
        assert representatives(reps, n) == reference_quotient_representatives(
            cocycles, boundaries
        )


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
        basis = linalg.nullspace([integer_row(row) for row in matrix], cols)
        assert kernel_vectors(basis, cols) == reference_nullspace(matrix, cols)
        assert_integer_rows(basis)

        boundaries = hard_matrix(rng, rng.randint(0, 4), cols)
        cocycles = hard_matrix(rng, rng.randint(1, 5), cols)
        cocycles += [[x + wide_gaussian(rng) * y for x, y in zip(z, b)]
                     for z, b in zip(cocycles, boundaries)]
        reps = linalg.quotient_representatives(
            [integer_row(z) for z in cocycles],
            [integer_row(b) for b in boundaries])
        assert representatives(reps, cols) == reference_quotient_representatives(
            cocycles, boundaries
        )
        rows = [row for _, row in reps]
        assert_integer_rows(rows)
        for s, row in reps:  # primitive, with the positive integer s first
            assert type(s) is int and s > 0 and row[min(row)] == (s, 0)
            assert gcd(*(part for xy in row.values() for part in xy)) == 1


def test_integer_row_elimination_leaves_inputs_alone():
    # unit rows come first, so echelon rows with pivot s = 1 exist; that is
    # where the elimination works on a row in place
    rng = random.Random(103)
    units = [[ONE if c == j else ZERO for c in range(7)] for j in (0, 2, 5)]
    matrix = units + hard_matrix(rng, 3, 7)
    rows = [integer_row(row) for row in matrix]
    copies = [dict(row) for row in rows]
    kernel = linalg.nullspace(rows, 7)
    kernel_copies = [dict(v) for v in kernel]
    assert kernel
    linalg.quotient_representatives(rows[3:], rows[:3])
    linalg.quotient_representatives(kernel, rows[:3])
    assert rows == copies
    assert kernel == kernel_copies
