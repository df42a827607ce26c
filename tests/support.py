"""Shared helpers for the test suite: seeded random exact values and forms."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from formbench.linalg import _primitive, rref
from formbench.scalars import (
    ONE,
    ZERO,
    GaussianRational,
    PolyScalar,
    ScalarFraction,
    VariableTable,
)


def rational(rng, lo=-4, hi=4, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def gaussian(rng, lo=-4, hi=4):
    return GaussianRational(rational(rng, lo, hi), rational(rng, lo, hi))


def nonzero_gaussian(rng):
    while True:
        value = gaussian(rng)
        if value:
            return value


def random_poly(rng, table, max_terms=3, max_exp=2):
    poly = table.zero()
    for _ in range(rng.randint(0, max_terms)):
        exponents = {
            name: rng.randint(0, max_exp)
            for name in rng.sample(list(table.names), min(2, len(table.names)))
        }
        poly = poly + table.monomial(exponents, gaussian(rng))
    return poly


def wide_poly(rng, table, max_terms=4, max_exp=2):
    """A polynomial whose coefficient parts have numerators near 10**12 and
    denominators 1-9; some parts are zero."""

    def part():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.choice((-1, 1)) * (10**12 + rng.randint(-99, 99)),
                        rng.randint(1, 9))

    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponents = tuple(rng.randint(0, max_exp) for _ in table.names)
        terms[exponents] = GaussianRational(part(), part())
    return PolyScalar(table, terms)


def seeded_table(rng, size):
    """A table of ``size`` variables in a seeded order, each declared
    self-conjugate or paired with a seeded mate, so a pair need not sit in
    neighbouring fields."""
    names = [f"v{i}" for i in range(size)]
    rng.shuffle(names)
    rest = rng.sample(names, size)
    pairs = []
    while rest:
        a = rest.pop()
        pairs.append((a, rest.pop() if rest and rng.random() < 0.6 else a))
    return VariableTable([*names, *pairs])


def exponent_poly(rng, table, exponents, max_terms=3):
    """A polynomial of up to max_terms terms whose exponents are drawn from
    ``exponents`` variable by variable, with small Gaussian coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[tuple(rng.choice(exponents) for _ in table.names)] = gaussian(rng)
    return PolyScalar(table, terms)


def schoolbook_product(left, right):
    """The product of two polynomials term pair by term pair in Q(i), an
    independent route for the integer kernel of PolyScalar.__mul__."""
    terms = {}
    for e1, c1 in left.terms.items():
        for e2, c2 in right.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = terms.get(e, ZERO) + c1 * c2
            if c:
                terms[e] = c
            else:
                terms.pop(e, None)
    return PolyScalar(left.table, terms)


def schoolbook_sum(left, right):
    """The sum of two polynomials term by term in Q(i), an independent route
    for the integer kernel of PolyScalar.__add__."""
    terms = dict(left.terms)
    for e, c in right.terms.items():
        terms[e] = terms.get(e, ZERO) + c
    return PolyScalar(left.table, terms)


def schoolbook_coefficients(poly, name):
    """{power: coefficient polynomial} of poly in one variable, built term by
    term in Q(i) through the PolyScalar constructor: an independent route for
    PolyScalar.coefficients_in."""
    i = poly.table.index(name)
    split = {}
    for e, c in poly.terms.items():
        split.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {k: PolyScalar(poly.table, terms) for k, terms in split.items()}


def schoolbook_conjugate(poly):
    """The conjugate of a polynomial term by term on exponent tuples: each
    exponent moved to the declared conjugate of its variable."""
    table = poly.table
    terms = {}
    for e, c in poly.terms.items():
        moved = [0] * len(e)
        for name, k in zip(table.names, e):
            if k:
                moved[table.index(table.conjugate_of(name))] = k
        terms[tuple(moved)] = c.conjugate()
    return PolyScalar(table, terms)


def schoolbook_substitute(poly, values):
    """A polynomial with the variables of ``values`` set to exact numbers,
    term by term in Q(i); no conjugate value is implied."""
    table = poly.table
    at = {table.index(name): GaussianRational.of(v) for name, v in values.items()}
    terms = {}
    for e, c in poly.terms.items():
        for i, k in enumerate(e):
            if i in at:
                c = c * at[i] ** k
        key = tuple(0 if i in at else k for i, k in enumerate(e))
        terms[key] = terms.get(key, ZERO) + c
    return PolyScalar(table, terms)


def reference_rational_content(poly):
    """The positive rational content of a nonzero polynomial, from the
    Fraction parts of its coefficients."""
    num = 0
    den = 1
    for coeff in poly.terms.values():
        for part in (coeff.re, coeff.im):
            if part == 0:
                continue
            num = gcd(num, abs(part.numerator))
            den = den * part.denominator // gcd(den, part.denominator)
    if num == 0:
        raise ValueError("zero polynomial has no content")
    return Fraction(num, den)


def reference_content_removed(numerator, denominator):
    """Both polynomials divided by the gcd of their rational contents, with
    Fraction arithmetic: the content removal of ScalarFraction."""
    a = reference_rational_content(numerator)
    b = reference_rational_content(denominator)
    common = Fraction(gcd(a.numerator, b.numerator),
                      lcm(a.denominator, b.denominator))
    inv = GaussianRational(1 / common)
    return tuple(PolyScalar(p.table, {e: c * inv for e, c in p.terms.items()})
                 for p in (numerator, denominator))


def fraction_quotient(a, b):
    """a / b for two ScalarFractions, by cross-multiplication."""
    return ScalarFraction(a.numerator * b.denominator, a.denominator * b.numerator)


def random_form(rng, model, degree=None, bidegree=None, max_terms=2):
    """A random constant-coefficient form with monomials in one slot."""
    if bidegree is not None:
        monomials = model.monomials_of_bidegree(*bidegree)
    else:
        monomials = model.monomials_of_degree(degree)
    form = model.coframe.zero_form()
    if not monomials:
        return form
    count = rng.randint(1, max_terms)
    for mon in rng.sample(monomials, min(count, len(monomials))):
        names = [model.coframe.generators[p].name for p in mon]
        form = form + model.coframe.monomial_form(names, gaussian(rng))
    return form


def random_closed_two_form(rng, model, max_terms=3):
    """Random degree-2 form on a model with zero differential (all closed)."""
    return random_form(rng, model, degree=2, max_terms=max_terms)


# -- dense reference routes of the sparse elimination in formbench.linalg -------


def dense(vec, n):
    """A sparse {column: value} vector as a dense list of length n."""
    return [vec.get(c, ZERO) for c in range(n)]


def integer_row(row):
    """A dense list of Gaussian rationals times the lcm of its denominators,
    as a sparse Gaussian-integer row {column: (re, im)}."""
    den = lcm(1, *(part.denominator for x in row for part in (x.re, x.im)))
    return {c: (int(x.re * den), int(x.im * den))
            for c, x in enumerate(row) if x}


def divided(s, row):
    """A sparse Gaussian-integer row divided by s, as a sparse
    {column: GaussianRational} vector."""
    return {c: GaussianRational(Fraction(x, s), Fraction(y, s))
            for c, (x, y) in row.items()}


def reference_nullspace(matrix, n_cols):
    """The kernel basis of a dense matrix from the dense rref: one vector per
    free column, in column order."""
    if not matrix:
        return [[ONE if i == j else ZERO for j in range(n_cols)]
                for i in range(n_cols)]
    reduced, pivots = rref(matrix)
    n = len(matrix[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * n
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def reference_quotient_representatives(cocycles, boundaries):
    """Representatives of span(cocycles) modulo span(boundaries) on dense
    vectors, reducing against an echelon re-sorted after every insert."""
    echelon = []  # list of (pivot index, normalized row)

    def reduce(vec):
        v = list(vec)
        for pivot, row in echelon:
            if v[pivot]:
                factor = v[pivot]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def insert(vec):
        v = reduce(vec)
        for i, x in enumerate(v):
            if x:
                inv = ONE / x
                row = [y * inv for y in v]
                echelon.append((i, row))
                echelon.sort(key=lambda item: item[0])
                return row
        return None

    for b in boundaries:
        insert(b)
    reps = []
    for z in cocycles:
        row = insert(z)
        if row is not None:
            reps.append(row)
    return reps


# -- the insertion-order scan: reference route of the key-ordered elimination ---


def scan_eliminate(v, echelon):
    """A copy of v with the pivot of every (pivot, (s, row)) item cleared, in
    insertion order, by the cross-multiplication s*v - v[pivot]*row.  Each
    row is s at its pivot and 0 at the pivots inserted before it, so one pass
    over the whole echelon clears all of them."""
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


def scan_quotient_representatives(operators, boundaries):
    """``linalg.quotient_representatives`` with every vector, empty ones and
    basis vectors without images included, reduced by the scan over the
    whole echelon in insertion order."""
    width = len(operators)
    echelon = {}

    def insert(vec):
        v = scan_eliminate(vec, echelon.items())
        if not v:
            return -1
        pivot, s, row = _primitive(v)
        echelon[pivot] = (s, row)
        return pivot

    for b in boundaries:
        insert(b)
    reps = []
    for i, images in enumerate(zip(*operators)):
        vec = {~(r * width + j): xy
               for j, image in enumerate(images) for r, xy in image.items()}
        vec[i] = (1, 0)
        pivot = insert(vec)
        if pivot >= 0:
            reps.append(echelon[pivot])
    return reps


def exact_rows(reps):
    """The text of (s, row) representatives with each row's entries in key
    order: equal texts mean the same integers, int for int."""
    return repr([(s, sorted(row.items())) for s, row in reps])


# -- position tuples: reference route of the monomial masks of formbench -----------


def sort_with_sign(positions):
    """Sort generator positions, counting transpositions.

    Returns (sign, tuple) with sign 0 when a generator repeats.
    """
    sign, monomial = 1, ()
    for pos in positions:
        step, monomial = merge_monomials(monomial, (pos,))
        if not step:
            return 0, None
        sign *= step
    return sign, monomial


def merge_monomials(left, right):
    """Merge two canonical monomials, counting the transpositions needed to
    interleave them.  Returns (sign, tuple) with sign 0 on a repeated
    generator."""
    if not left:
        return 1, right
    if not right:
        return 1, left
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def tuple_wedge(left, right):
    """The {position tuple: coefficient} terms of the wedge of two forms,
    term pair by term pair with ``merge_monomials``."""
    terms = {}
    for m1, c1 in left.terms.items():
        for m2, c2 in right.terms.items():
            sign, mon = merge_monomials(m1, m2)
            if sign:
                terms[mon] = terms.get(mon, 0) + (c1 * c2 if sign > 0 else -(c1 * c2))
    return {m: c for m, c in terms.items() if c}


def tuple_conjugate(form):
    """The {position tuple: coefficient} terms of the conjugate of a form,
    each mapped monomial sorted with ``sort_with_sign``."""
    mates = form.coframe.conjugate_position
    terms = {}
    for mon, c in form.terms.items():
        sign, mapped = sort_with_sign([mates[p] for p in mon])
        terms[mapped] = c.conjugate() if sign > 0 else -c.conjugate()
    return terms


def mask_of(monomial):
    """The bitmask of a position tuple, bit p for the generator at position p."""
    return sum(1 << p for p in monomial)


def positions_of(mask):
    """The increasing position tuple of a bitmask."""
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


# -- the tuple Leibniz rule: reference route of the bitmask loop in formbench.dga ---


def leibniz_terms(monomial, differentials):
    """(sign, monomial, coefficient) for each term of d(monomial) by the graded
    Leibniz rule on position tuples, the differentials given as
    {position: {monomial: coeff}}: a term merged into the rest of the
    monomial with ``merge_monomials``, sign 0 where they share a generator."""
    for i, pos in enumerate(monomial):
        dg = differentials.get(pos)
        if dg is None:
            continue
        # d(x_i) has degree two, so it commutes past x_0 ... x_(i-1)
        rest = monomial[:i] + monomial[i + 1:]
        for mon, coeff in dg.items():
            sign, merged = merge_monomials(mon, rest)
            if sign:
                yield (-sign if i % 2 else sign), merged, coeff


def summed_row(entries):
    """The Gaussian-integer row {key: (re, im)} of (key, re, im) entries, like
    keys summed in first-seen order and zeros dropped."""
    out = {}
    for c, x, y in entries:
        re, im = out.get(c, (0, 0))
        out[c] = (re + x, im + y)
    return {c: xy for c, xy in out.items() if xy != (0, 0)}


def reference_integer_d(model, monomial):
    """D times d(monomial) as a Gaussian-integer row {monomial: (re, im)} by the
    tuple route, D the lcm of the denominators of every generator
    differential's coefficients."""
    cf = model.coframe
    forms = {pos: model.differential_of(g.name) for pos, g in enumerate(cf.generators)}
    values = {(pos, mon): c.constant_value()
              for pos, form in forms.items() for mon, c in form.terms.items()}
    den = lcm(1, *(part.denominator for v in values.values() for part in (v.re, v.im)))
    cleared = {}
    for (pos, mon), v in values.items():
        cleared.setdefault(pos, {})[mon] = (int(v.re * den), int(v.im * den))
    return summed_row((m, sign * x, sign * y)
                      for sign, m, (x, y) in leibniz_terms(monomial, cleared))


# -- the per-pair signs: reference route of the pairing kernel in formbench.bbf ---


def reference_pairing_kernel(space):
    """The (dual_rows, end_rows) of ``bbf._pairing_kernel`` with two
    ``merge_monomials`` signs per (W0 term w, monomial m) pair: m merged
    into w, then the complement k of m and w merged into the product, and
    one sign per end-row term."""
    n = space.n
    s, sb = space.sigma_pow, space.sigma_bar_pow
    cf = space.model.coframe
    v = cf.table.variable(cf.volume_variable)
    top = cf.volume_monomial

    def integral_sign(mon, complement):
        # the sign of the volume monomial in complement ^ mon
        return merge_monomials(complement, mon)[0] * cf.volume_sign

    dual_rows = {}
    scale = space.volume * v * Fraction(n, 2)
    for w, coeff in s[n - 1].wedge(sb[n - 1]).terms.items():
        value = coeff * scale
        rest = tuple(p for p in top if p not in w)
        for m in combinations(rest, 2):
            sign, mw = merge_monomials(m, w)
            k = tuple(p for p in rest if p not in m)
            row = dual_rows.setdefault(m, {})
            row[k] = value if sign * integral_sign(mw, k) > 0 else -value
    end_rows = {}
    if n != 1:  # the (1-n) term vanishes on a surface
        for name, form, scale in (
            ("holo", s[n - 1].wedge(sb[n]), v * Fraction(1 - n, 2)),
            ("anti", s[n].wedge(sb[n - 1]), v),
        ):
            for mon, coeff in form.terms.items():
                k = tuple(p for p in top if p not in mon)
                value = coeff * scale
                end_rows.setdefault(k, {})[name] = (
                    value if integral_sign(mon, k) > 0 else -value)
    return dual_rows, end_rows


# -- dense oracles: rank, determinants and antisymmetric matrices ------------------


def rank(matrix):
    """The rank of a dense matrix from the dense rref."""
    return len(rref(matrix)[1])


def determinant(matrix):
    """Determinant by Gaussian elimination over Q(i), dividing by each
    pivot; an independent oracle for the Pfaffian (Pf(A)^2 = det(A))."""
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


def antisymmetric_rows(matrix):
    """The full square matrix of an AntisymmetricMatrix, entry by entry."""
    indices = range(1, matrix.size + 1)
    return [[matrix.entry(i, j) for j in indices] for i in indices]
