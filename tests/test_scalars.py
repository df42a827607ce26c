import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

import formbench.scalars as scalars
from formbench.errors import ConjugationMismatch, UnknownVariable
from formbench.scalars import (
    GaussianRational,
    PolyScalar,
    ScalarFraction,
    VariableTable,
    binary_power,
    substitute_fraction,
)
from support import (
    exponent_poly,
    gaussian,
    nonzero_gaussian,
    random_poly,
    reference_content_removed,
    schoolbook_coefficients,
    schoolbook_conjugate,
    schoolbook_product,
    schoolbook_substitute,
    schoolbook_sum,
    seeded_table,
    wide_poly,
)

I = GaussianRational(0, 1)

BOUND = 2 ** (scalars._FIELD - 1)  # every packed exponent stays below it
HALF = BOUND // 2
# factor exponents whose sums reach BOUND - 1 and no further
LEFT_EXPONENTS = (0, 0, 1, 2, HALF - 1, HALF)
RIGHT_EXPONENTS = (0, 0, 1, 3, HALF - 2, HALF - 1)
# values whose powers stay small at any exponent
UNITS = (GaussianRational(0), GaussianRational(1), GaussianRational(-1), I, -I)


def small_table():
    return VariableTable([("V", "V"), ("t1", "tb1"), ("t2", "tb2"), ("u", None)])


def test_gaussian_basics():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z + z == GaussianRational(1, Fraction(-3, 2))
    assert z - z == 0
    assert I * I == -1
    assert (1 + I) * (1 - I) == 2
    assert GaussianRational(3, 4) / GaussianRational(3, 4) == 1
    assert (2 + I) ** 3 == (2 + I) * (2 + I) * (2 + I)
    assert GaussianRational(2, -1).norm() == 5


def test_gaussian_division_and_errors():
    assert GaussianRational(1) / GaussianRational(0, 2) == GaussianRational(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)
    with pytest.raises(ValueError):
        GaussianRational(2) ** -1


def test_gaussian_hash_agrees_with_equality():
    # a real value hashes like the Fraction it equals, so dict and set
    # lookups treat 2, Fraction(2) and GaussianRational(2) as one key
    for q in (0, 2, -7, Fraction(3, 4), Fraction(-5, 3)):
        assert hash(GaussianRational(q)) == hash(q) == hash(Fraction(q))
    table = {GaussianRational(2): "two"}
    assert table[2] == "two"
    assert table[Fraction(2)] == "two"
    z = GaussianRational(Fraction(1, 2), -3)
    w = GaussianRational(1, Fraction(-6)) / 2
    assert z == w and hash(z) == hash(w)
    assert hash(I * I) == hash(-1)


def test_gaussian_str():
    assert str(GaussianRational(0)) == "0"
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(GaussianRational(1, 2)) == "1+2i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"


def test_conjugation_examples():
    table = small_table()
    # coefficient conjugation
    assert table.constant(I).conjugate() == table.constant(-I)
    # declared pairing
    assert table.variable("t1").conjugate() == table.variable("tb1")
    # antilinearity on a mixed term
    s = table.constant(3) + table.monomial({"t1": 1, "tb2": 1}, GaussianRational(0, 2))
    expected = table.constant(3) + table.monomial(
        {"tb1": 1, "t2": 1}, GaussianRational(0, -2)
    )
    assert s.conjugate() == expected
    # involution
    assert s.conjugate().conjugate() == s


def test_conjugation_requires_declaration():
    table = small_table()
    with pytest.raises(UnknownVariable):
        table.variable("u").conjugate()
    # unused undeclared variables do not block conjugation
    assert table.variable("t1").conjugate() == table.variable("tb1")


def test_substitute_examples():
    table = small_table()
    t1t2 = table.monomial({"t1": 1, "t2": 1})
    assert t1t2.substitute({"t1": 2, "t2": 3}) == table.constant(6)
    # the conjugate value is forced
    assert table.variable("tb1").substitute({"t1": I}) == table.constant(-I)
    # unassigned variables stay formal
    v2 = table.monomial({"V": 2})
    assert v2.substitute({}) == v2


def test_substitute_consistency():
    table = small_table()
    s = table.variable("t1") + table.variable("tb1")
    value = s.substitute({"t1": 1 + I, "tb1": 1 - I})
    assert value == table.constant(2)
    with pytest.raises(ConjugationMismatch):
        s.substitute({"t1": 1 + I, "tb1": 1 + I})
    with pytest.raises(ConjugationMismatch):
        table.variable("V").substitute({"V": I})
    with pytest.raises(UnknownVariable):
        s.substitute({"nope": 1})


def test_ring_axioms_randomized():
    rng = random.Random(101)
    table = small_table()
    for _ in range(120):
        a = random_poly(rng, table)
        b = random_poly(rng, table)
        c = random_poly(rng, table)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == table.zero()


def test_conjugation_is_multiplicative():
    rng = random.Random(7)
    table = small_table()
    # restrict to the conjugation-complete variables
    names = ("V", "t1", "tb1", "t2", "tb2")
    for _ in range(100):
        a = table.zero()
        b = table.zero()
        for _ in range(2):
            a = a + table.monomial({rng.choice(names): rng.randint(0, 2)}, gaussian(rng))
            b = b + table.monomial({rng.choice(names): rng.randint(0, 2)}, gaussian(rng))
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_substitute_commutes_with_ring_ops():
    rng = random.Random(17)
    table = small_table()
    for _ in range(100):
        a = random_poly(rng, table)
        b = random_poly(rng, table)
        assignment = {"t1": gaussian(rng), "V": Fraction(rng.randint(-3, 3))}
        lhs = (a * b + a).substitute(assignment)
        rhs = a.substitute(assignment) * b.substitute(assignment) + a.substitute(assignment)
        assert lhs == rhs


def test_polyscalar_structure_helpers():
    table = small_table()
    p = table.monomial({"t1": 2, "V": 1}, 5) + table.constant(1)
    assert not p.is_constant()
    assert p.variables_used() == {"t1", "V"}
    split = p.coefficients_in("V")
    assert split[0] == table.constant(1)
    assert split[1] == table.monomial({"t1": 2}, 5)
    assert table.constant(Fraction(7, 3)).constant_value() == Fraction(7, 3)
    with pytest.raises(ValueError):
        p.constant_value()


def test_rendering():
    table = small_table()
    p = table.monomial({"t1": 1, "t2": 1, "V": 2}, -16)
    assert str(p) == "-16*V^2*t1*t2"
    q = table.constant(3) - table.variable("t1") * GaussianRational(0, 2)
    assert str(q) == "3 - 2i*t1"
    mixed = table.monomial({"t1": 1}, GaussianRational(1, 2))
    assert str(mixed) == "(1+2i)*t1"
    assert str(table.zero()) == "0"


def test_reserved_imaginary_name():
    with pytest.raises(ValueError):
        VariableTable([("i", "i")])


def test_fraction_equality_is_equivalence():
    rng = random.Random(23)
    table = small_table()
    for _ in range(60):
        num = random_poly(rng, table)
        den = table.zero()
        while not den:
            den = random_poly(rng, table, max_terms=2) + table.constant(
                nonzero_gaussian(rng)
            )
        scale = table.constant(nonzero_gaussian(rng))
        a = ScalarFraction(num, den)
        b = ScalarFraction(num * scale, den * scale)
        c = ScalarFraction(num * scale * scale, den * scale * scale)
        assert a == a
        assert a == b and b == a
        assert b == c and a == c


def test_fraction_equality_rejects_other_tables():
    a = VariableTable([("V", "V")])
    b = VariableTable([("W", "W")])
    pairs = [
        (ScalarFraction(a.zero()), ScalarFraction(b.variable("W"))),
        (ScalarFraction(a.variable("V")), ScalarFraction(b.zero())),
        (ScalarFraction(a.zero()), ScalarFraction(b.zero())),
        # identical term maps over different tables
        (ScalarFraction(a.variable("V")), ScalarFraction(b.variable("W"))),
        (ScalarFraction(a.one(), a.variable("V")),
         ScalarFraction(b.one(), b.variable("W"))),
    ]
    for left, right in pairs:
        for x, y in ((left, right), (right, left)):
            with pytest.raises(ValueError, match="different variable tables"):
                x == y


def test_fraction_numerator_must_be_a_poly_scalar():
    table = small_table()
    for numerator in (3, Fraction(1, 2), ScalarFraction(table.variable("t1"))):
        with pytest.raises(TypeError, match="numerator must be a PolyScalar"):
            ScalarFraction(numerator, table.variable("u"))


def test_fraction_equality_shortcuts():
    table = small_table()
    t1, t2, u = (table.variable(n) for n in ("t1", "t2", "u"))
    zero_over_t1 = ScalarFraction(table.zero(), t1)
    zero_over_u = ScalarFraction(table.zero(), u + 1)
    assert zero_over_t1 == zero_over_u and zero_over_u == zero_over_t1
    assert zero_over_t1 == 0
    assert zero_over_t1 != ScalarFraction(t1, t1)
    assert ScalarFraction(t2, u) != zero_over_u
    assert ScalarFraction(t1, u) != ScalarFraction(t2, u)
    assert ScalarFraction(t1, u) != ScalarFraction(t1 * 2, u)
    assert ScalarFraction(t1 + t2, u) == ScalarFraction(t2 + t1, u)


def test_fraction_equality_with_a_zero_numerator_multiplies_nothing(monkeypatch):
    table = small_table()
    t1, u = table.variable("t1"), table.variable("u")
    products = []
    original = PolyScalar.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(PolyScalar, "__mul__", counted)
    monkeypatch.setattr(PolyScalar, "__rmul__", counted)
    zero = ScalarFraction(table.zero(), t1 + 2)
    nonzero = ScalarFraction(t1, u)
    for x, y, equal in ((zero, nonzero, False), (nonzero, zero, False),
                        (zero, ScalarFraction(table.zero(), u), True)):
        assert (x == y) is equal
    assert products == []


def test_fraction_equality_falls_back_to_cross_multiplying():
    rng = random.Random(29)
    table = small_table()
    for _ in range(40):
        num = random_poly(rng, table) + table.variable("t2")
        den = random_poly(rng, table, max_terms=2) + table.constant(
            nonzero_gaussian(rng)
        )
        p = random_poly(rng, table, max_terms=2) + table.variable("u")
        a = ScalarFraction(num, den)
        b = ScalarFraction(num * p, den * p)
        assert a.denominator != b.denominator
        assert a == b and b == a
        assert ScalarFraction(num + 1, den) != b


def product_cases(rng, table):
    """Seeded factor pairs: wide random polynomials, the zero polynomial,
    constants, and (p + q)(p - q) whose cross terms cancel to zero."""
    for _ in range(60):
        yield wide_poly(rng, table), wide_poly(rng, table)
    for _ in range(20):
        p, q = wide_poly(rng, table), wide_poly(rng, table)
        c = table.constant(wide_poly(rng, table, max_exp=0).constant_value())
        yield p + q, p - q
        yield table.zero(), p
        yield p, table.zero()
        yield c, p
        yield p, c
        yield c, table.constant(gaussian(rng))
    for _ in range(20):
        p = wide_poly(rng, table, max_terms=1) + table.variable("t1")
        q = wide_poly(rng, table, max_terms=1, max_exp=0) + 1
        yield p + q, p - q


def to_number(value):
    """A GaussianRational as a sympy number."""
    import sympy

    return sympy.Rational(value.re.numerator, value.re.denominator) + (
        sympy.I * sympy.Rational(value.im.numerator, value.im.denominator))


def to_sympy(poly):
    """A PolyScalar as a sympy Poly over QQ_I in the table's names, term by
    term."""
    import sympy

    terms = {e: to_number(c) for e, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *sympy.symbols(poly.table.names),
                                domain=sympy.QQ_I)


def test_product_matches_schoolbook_and_sympy_routes():
    # sums, differences and substitutions too, term by term in Q(i) and in
    # sympy's QQ_I
    import sympy

    rng = random.Random(67)
    table = small_table()
    symbols = sympy.symbols(table.names)
    t1, tb1, v = (symbols[table.index(n)] for n in ("t1", "tb1", "V"))
    cancelled = 0
    for left, right in product_cases(rng, table):
        got = left * right
        assert got.terms == schoolbook_product(left, right).terms
        assert to_sympy(left) * to_sympy(right) == to_sympy(got)
        negated = PolyScalar(table, {e: -c for e, c in right.terms.items()})
        for total, want, sym in ((left + right, schoolbook_sum(left, right),
                                  to_sympy(left) + to_sympy(right)),
                                 (left - right, schoolbook_sum(left, negated),
                                  to_sympy(left) - to_sympy(right))):
            assert total.terms == want.terms
            assert sym == to_sympy(total)
        z = gaussian(rng)
        q = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        values = {"t1": z, "tb1": z.conjugate(), "V": q}
        evaluated = left.substitute({"t1": z, "V": q})
        assert evaluated.terms == schoolbook_substitute(left, values).terms
        at = {t1: to_number(z), tb1: to_number(z.conjugate()), v: to_number(q)}
        # evaluated has no t1, tb1 or V left, so evaluating it at 0 only
        # drops them
        assert to_sympy(left).eval(at) == to_sympy(evaluated).eval(
            dict.fromkeys(at, 0))
        assert all(
            isinstance(c, GaussianRational) and c for c in got.terms.values()
        )
        pairs = {
            tuple(a + b for a, b in zip(e1, e2))
            for e1 in left.terms for e2 in right.terms
        }
        cancelled += len(pairs) - len(got.terms)
    assert cancelled > 0
    # packed keys on seeded tables of 1, 3, 7 and 13 variables, exponents up
    # to just below the field bound, against the tuple routes alone: sympy's
    # dense polynomials cannot hold such exponents
    reached, quotients = set(), Counter()
    for size in (1, 3, 7, 13):
        packed = seeded_table(rng, size)
        for _ in range(40):
            left = exponent_poly(rng, packed, LEFT_EXPONENTS)
            right = exponent_poly(rng, packed, RIGHT_EXPONENTS)
            quotients.update(assert_packed_routes(left, right, rng))
            reached.update(k for e in (left * right).terms for k in e)
    assert BOUND - 1 in reached
    assert quotients["divides"] > 80 and quotients["does not divide"] > 40


def assert_packed_routes(left, right, rng):
    """Every PolyScalar operation of two polynomials over one table, on
    packed keys, against the tuple routes of tests/support.py."""
    from formbench.expressions import parse_scalar

    table = left.table
    names = table.names
    got = left * right
    assert assert_canonical(got).terms == schoolbook_product(left, right).terms
    assert (left + right).terms == schoolbook_sum(left, right).terms
    negated = PolyScalar(table, {e: -c for e, c in right.terms.items()})
    assert (left - right).terms == schoolbook_sum(left, negated).terms
    assert (left == right) is (left.terms == right.terms)
    assert got == schoolbook_product(right, left)
    assignment = {}
    for name in rng.sample(names, min(2, len(names))):
        mate = table.conjugate_of(name)
        if mate not in assignment:
            assignment[name] = rng.choice(UNITS[:3] if mate == name else UNITS)
    values = dict(assignment)
    values.update((table.conjugate_of(n), v.conjugate()) for n, v in assignment.items())
    for p in (left, right, got):
        assert p == PolyScalar(table, p.terms)
        assert p.conjugate().terms == schoolbook_conjugate(p).terms
        assert p.substitute(assignment).terms == schoolbook_substitute(p, values).terms
        assert p.is_constant() is all(not any(e) for e in p.terms)
        assert p.variables_used() == {
            n for e in p.terms for n, k in zip(names, e) if k}
        assert parse_scalar(str(p), table) == p
        for name in names:
            assert {k: c.terms for k, c in p.coefficients_in(name).items()} == {
                k: c.terms for k, c in schoolbook_coefficients(p, name).items()}
    cases = []
    if right:
        assert scalars._exact_quotient(got, right).terms == left.terms
        cases.append("divides")
    if len(right.terms) > 1:
        # a divisor of two or more terms divides no single monomial
        stray = exponent_poly(rng, table, (0, 1, 2), max_terms=1) or table.one()
        assert scalars._exact_quotient(got + stray, right) is None
        cases.append("does not divide")
    return cases


def assert_canonical(poly):
    """den > 0, no (0, 0) entry and gcd(den, every part) == 1."""
    assert poly.den > 0
    assert (0, 0) not in poly.ints.values()
    assert gcd(poly.den, *chain.from_iterable(poly.ints.values())) == 1
    return poly


def test_canonical_form_on_every_route():
    rng = random.Random(71)
    table = VariableTable([("V", "V"), ("t1", "tb1"), ("t2", "tb2")])
    for _ in range(60):
        p, q, r = (wide_poly(rng, table) for _ in range(3))
        # the first term of p, scaled, then cancelled again
        head = PolyScalar(table, dict(list(p.terms.items())[:1]))
        cancelling = p - head * Fraction(1, 3) - head * Fraction(2, 3)
        values = {"t1": gaussian(rng), "V": Fraction(rng.randint(-9, 9), 4)}
        ops = [PolyScalar(table, p.terms), p + q, p - q, -p, p * q, p ** 3,
               p.conjugate(), p * Fraction(6, 7), cancelling, p - p,
               p.substitute(values), *p.coefficients_in("t1").values()]
        for result in ops:
            assert_canonical(result)
        zero = p - p
        assert (zero.den, zero.ints) == (1, {})
        routes = [((p + q) * r, p * r + q * r), (p ** 3, p * p * p),
                  (PolyScalar(table, p.terms), p), (cancelling, p - head),
                  ((p - q) + q, p), (-(-p), p),
                  (p.conjugate().conjugate(), p), (p * q, q * p)]
        for a, b in routes:
            assert (a.den, a.ints) == (b.den, b.ints)
        with pytest.raises(TypeError):
            hash(p)


def constant_factor_cases(rng, table):
    """Seeded (polynomial, constant) pairs: the constant a Gaussian rational,
    an int or a Fraction, among them zero and the unit in each type."""
    zeros_and_units = (0, 1, Fraction(0), Fraction(1), GaussianRational(0),
                       GaussianRational(1))
    for k in range(40):
        p = wide_poly(rng, table) if k % 2 else random_poly(rng, table)
        yield from ((p, c) for c in zeros_and_units)
        yield p, gaussian(rng)
        yield p, nonzero_gaussian(rng)
        yield p, rng.choice((-1, 1)) * rng.randint(2, 10**13)
        yield p, Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    yield table.zero(), 3
    yield table.zero(), table.zero()


def test_constant_factor_products_match_the_schoolbook_and_sympy_routes():
    # an int, Fraction or Gaussian factor on either side, coerced or not
    rng = random.Random(89)
    table = small_table()
    for p, c in constant_factor_cases(rng, table):
        as_poly = c if isinstance(c, PolyScalar) else table.constant(c)
        want = schoolbook_product(p, as_poly)
        assert to_sympy(p) * to_sympy(as_poly) == to_sympy(want)
        for got in (p * c, c * p, p * as_poly, as_poly * p):
            assert_canonical(got)
            assert (got.den, got.ints) == (want.den, want.ints), (p, c)

def test_coefficients_in_matches_the_schoolbook_split():
    # one-part splits (the variable homogeneous) are returned as stripped;
    # the parts of a mixed split are reduced
    import sympy

    rng = random.Random(97)
    table = small_table()
    symbols = sympy.symbols(table.names)
    v = table.variable("V")
    kinds = {"homogeneous": 0, "mixed": 0}
    for k in range(60):
        p = wide_poly(rng, table) if k % 2 else random_poly(rng, table)
        free = p.substitute({"V": 1})
        for poly in (free * v ** (k % 3), p, p + v ** 3 * Fraction(2, 3)):
            for name in table.names:
                split = poly.coefficients_in(name)
                want = schoolbook_coefficients(poly, name)
                assert split.keys() == want.keys()
                if name == "V" and poly:
                    kinds["homogeneous" if len(split) == 1 else "mixed"] += 1
                for power, part in split.items():
                    assert_canonical(part)
                    assert (part.den, part.ints) == (want[power].den, want[power].ints)
                    assert name not in part.variables_used()
                symbol = symbols[table.index(name)]
                assert sum((to_sympy(part) * symbol ** power
                            for power, part in split.items()),
                           to_sympy(table.zero())) == to_sympy(poly)
    assert kinds["homogeneous"] > 40 and kinds["mixed"] > 40


def test_reduced_matches_the_fraction_route():
    # integer parts over a denominator, with and without (0, 0) entries,
    # against the PolyScalar constructor on Gaussian rationals
    rng = random.Random(101)
    table = small_table()
    with_zero = 0
    for _ in range(300):
        den = rng.choice((1, 2, 6, 12, 10**12, rng.randint(1, 99)))

        def part():
            return rng.choice((0, rng.randint(-60, 60) * rng.choice((1, 2, 3, den))))

        parts = {tuple(rng.randint(0, 2) for _ in table.names): (part(), part())
                 for _ in range(rng.randint(0, 4))}
        with_zero += (0, 0) in parts.values()
        want = PolyScalar(table, {
            e: GaussianRational(Fraction(a, den), Fraction(b, den))
            for e, (a, b) in parts.items()})
        ints = {table._pack(e): p for e, p in parts.items()}
        got = assert_canonical(scalars._reduced(table, den, ints))
        assert (got.den, got.ints) == (want.den, want.ints)
    assert 30 < with_zero < 270


def quotient_cases(rng, table):
    """Seeded (q, r) pairs: random and wide factors, and constant divisors."""
    for _ in range(40):
        yield random_poly(rng, table), random_poly(rng, table)
    for _ in range(10):
        yield wide_poly(rng, table, max_terms=3), random_poly(rng, table)
    for _ in range(10):
        yield table.constant(nonzero_gaussian(rng)), wide_poly(rng, table)


def test_exact_quotient_recovers_the_cofactor():
    # over the gram benchmark's formal-pair table and a two-pair table, with
    # a few cases cross-checked against sympy's division over QQ_I
    import sympy

    for seed, pairs in ((83, [("l", "lb")]), (89, [("l", "lb"), ("m", "mb")])):
        rng = random.Random(seed)
        table = VariableTable([("V", "V"), *pairs])
        symbols = sympy.symbols(table.names)

        def to_sympy(poly):
            terms = {e: sympy.Rational(c.re.numerator, c.re.denominator)
                     + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
                     for e, c in poly.terms.items()}
            return sympy.Poly.from_dict(terms, *symbols, domain=sympy.QQ_I)

        stray = table.monomial({"V": 3, pairs[-1][1]: 2}, 2 + I)
        checked = 0
        for k, (q, r) in enumerate(quotient_cases(rng, table)):
            if not q:
                continue
            p = schoolbook_product(q, r)
            got = assert_canonical(scalars._exact_quotient(p, q))
            assert (got.den, got.ints) == (r.den, r.ints)
            assert scalars._exact_quotient(table.zero(), q) == table.zero()
            # a divisor of two or more terms divides no single monomial
            unrelated = len(q.ints) > 1
            if unrelated:
                checked += 1
                assert scalars._exact_quotient(p + stray, q) is None
            if k % 10 == 0:
                quotient, remainder = sympy.div(to_sympy(p), to_sympy(q))
                assert remainder.is_zero and quotient == to_sympy(got)
                if unrelated:
                    _, remainder = sympy.div(to_sympy(p + stray), to_sympy(q))
                    assert not remainder.is_zero
        assert checked >= 20


def test_packed_exponents_stop_below_the_guard_bit():
    # t ** k and a product of monomials raise OverflowError, naming the
    # variable, once an exponent would reach BOUND; up to BOUND - 1 they work
    # and no exponent carries into a neighbouring field
    rng = random.Random(131)
    for size in (1, 3, 7, 13):
        table = seeded_table(rng, size)
        for name in table.names:
            t = table.variable(name)
            top = t ** (BOUND - 1)
            assert top.terms == {tuple(BOUND - 1 if n == name else 0
                                       for n in table.names): 1}
            for k in (BOUND, BOUND + 1, 2 * BOUND - 1, 2 * BOUND, 2 ** 40):
                with pytest.raises(OverflowError, match=f"of {name} "):
                    t ** k
            with pytest.raises(OverflowError, match=f"of {name} "):
                table.variable(name, BOUND)
            others = {n: rng.choice((0, 1, BOUND - 1)) for n in table.names if n != name}
            left = table.monomial({**others, name: HALF}, 3)
            assert (left * table.monomial({name: HALF - 1})).terms == {
                tuple(BOUND - 1 if n == name else others[n] for n in table.names): 3}
            for right in (table.monomial({name: HALF}), top):
                with pytest.raises(OverflowError, match=f"of {name} "):
                    left * right
                with pytest.raises(OverflowError, match=f"of {name} "):
                    right * (left + 1)
    # the exponents are checked whatever the coefficient, zero included
    name = table.names[0]
    for coefficient in (1, 0):
        with pytest.raises(ValueError, match="nonnegative"):
            table.monomial({name: -1}, coefficient)
        with pytest.raises(OverflowError, match=f"of {name} "):
            table.monomial({name: BOUND}, coefficient)
        with pytest.raises(OverflowError, match=f"of {name} "):
            PolyScalar(table, {(BOUND,) + (0,) * (len(table.names) - 1):
                               GaussianRational(coefficient)})


def test_exact_quotient_reads_each_packed_field():
    # divisibility is decided field by field: an exponent short by one in any
    # variable refuses the division, whatever the fields around it hold
    rng = random.Random(137)
    for size in (1, 3, 7, 13):
        table = seeded_table(rng, size)
        names = table.names
        for _ in range(30):
            f = {n: rng.choice((0, 1, HALF, BOUND - 1)) for n in names}
            r = {n: rng.randint(0, BOUND - 1 - f[n]) for n in names}
            q = table.monomial(f, nonzero_gaussian(rng))
            p = table.monomial({n: f[n] + r[n] for n in names}, 2 + I)
            assert scalars._exact_quotient(p, q) == schoolbook_quotient(p, q)
            short = rng.choice([n for n in names if f[n]] or [None])
            if short is not None:
                p = table.monomial({**f, short: f[short] - 1, **{
                    n: BOUND - 1 for n in names if n != short and rng.random() < 0.5}})
                assert scalars._exact_quotient(p, q) is None


def schoolbook_quotient(p, q):
    """p / q for monomials p and q, on exponent tuples."""
    (e, c), = p.terms.items()
    (f, d), = q.terms.items()
    return PolyScalar(p.table, {tuple(a - b for a, b in zip(e, f)): c / d})


def test_content_removal_matches_fraction_reference():
    rng = random.Random(79)
    table = small_table()
    for _ in range(80):
        scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        num = wide_poly(rng, table) * GaussianRational(scale)
        den = wide_poly(rng, table, max_terms=2) + table.constant(nonzero_gaussian(rng))
        if not num:
            continue
        frac = ScalarFraction(num, den)
        want = reference_content_removed(num, den)
        assert (frac.numerator, frac.denominator) == want
        assert frac.numerator.den == frac.denominator.den == 1


def test_content_removal_does_not_depend_on_scaling():
    rng = random.Random(151)
    table = small_table()
    for _ in range(60):
        num = wide_poly(rng, table, max_terms=3)
        den = wide_poly(rng, table, max_terms=2) + table.constant(nonzero_gaussian(rng))
        scale = table.constant(Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        other = ScalarFraction(random_poly(rng, table) + table.variable("t2"),
                               random_poly(rng, table, max_terms=1) + 1)
        plain = ScalarFraction(num, den)
        scaled = ScalarFraction(num * scale, den * scale)
        assert bool(scaled) == bool(num) and scaled == plain and plain == scaled
        pair = (scaled.numerator, scaled.denominator)
        assert pair == (plain.numerator, plain.denominator)
        assert str(scaled) == str(plain)
        if num:
            assert pair == reference_content_removed(num, den)
        else:
            assert pair == (table.zero(), table.one()) and str(scaled) == "0"
        for op in (lambda a, b: a * b, lambda a, b: -a):
            got, want = op(scaled, other), op(plain, other)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert str(got) == str(want) and got == want


def test_polynomial_arithmetic_makes_no_fraction(monkeypatch):
    # the integer kernels of PolyScalar and ScalarFraction build no Fraction;
    # reading terms or str() may
    rng = random.Random(83)
    table = small_table()
    polys = [wide_poly(rng, table) + table.monomial({"t1": 1}, Fraction(1, 3))
             for _ in range(12)]
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(scalars, "Fraction", CountingFraction)
    assert table.constant(3) * polys[0] == polys[0] + polys[0] + polys[0]
    assert table.coerce(1) == table.one()
    assert ScalarFraction(polys[0]) == ScalarFraction(polys[0] * 2, 2)
    for p, q, r in zip(polys, polys[1:], polys[2:]):
        assert p * (q + r) == p * q + p * r
        assert (p - q) + q == p
        assert p.coefficients_in("t1")[1] * q != q
        assert ScalarFraction(p * r, q * r) == ScalarFraction(p, q)
        assert ScalarFraction(p, q) != ScalarFraction(p + r, q)
    assert made == []


def test_constant_matches_the_gaussian_route():
    table = small_table()
    constant_exponents = (0,) * len(table.names)
    values = [0, 1, -1, 7, -12, 10**15 + 1, Fraction(0), Fraction(3, 4),
              Fraction(-5, 6), Fraction(12, 8), GaussianRational(0),
              GaussianRational(Fraction(1, 2), 3), GaussianRational(0, Fraction(-2, 9))]
    for value in values:
        got = table.constant(value)
        expected = PolyScalar(table, {constant_exponents: GaussianRational.of(value)})
        assert (got.den, got.ints) == (expected.den, expected.ints), value
        assert got == table.coerce(value) == expected
    # bool counts as the int it equals, with plain int parts, at the packed
    # key 0 of the constant monomial
    assert table._pack(constant_exponents) == 0
    assert table.constant(True).ints == {0: (1, 0)}
    assert all(type(part) is int for part in table.constant(True).ints[0])
    assert table.constant(False) == table.zero()
    with pytest.raises(TypeError):
        table.constant(0.5)


def test_fraction_arithmetic():
    table = small_table()
    t1 = table.variable("t1")
    half = ScalarFraction(table.one(), table.constant(2))
    assert half * 2 == table.one()
    with pytest.raises(ZeroDivisionError):
        ScalarFraction(t1, table.zero())


def test_fraction_content_reduction():
    table = small_table()
    frac = ScalarFraction(table.constant(4) * table.variable("t1"), table.constant(6))
    assert frac.numerator == table.variable("t1") * 2
    assert frac.denominator == table.constant(3)
    assert frac == ScalarFraction(table.variable("t1") * 2, table.constant(3))


def test_substitute_fraction():
    table = small_table()
    # a V^2 + b V + c at V -> 1/u
    poly = (
        table.monomial({"V": 2}, 3)
        + table.monomial({"V": 1, "t1": 1}, 1)
        + table.constant(5)
    )
    u = table.variable("u")
    result = substitute_fraction(poly, "V", ScalarFraction(table.one(), u))
    expected_num = table.constant(3) + table.variable("t1") * u + u * u * 5
    assert result == ScalarFraction(expected_num, u * u)


class Counting:
    """A multiplicand that records every product made from it."""

    def __init__(self, log, exponent=1):
        self.log = log
        self.exponent = exponent

    def __mul__(self, other):
        self.log.append((self.exponent, other.exponent))
        return Counting(self.log, self.exponent + other.exponent)


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)])
def test_binary_power_product_count(k, products):
    log = []
    result = binary_power(Counting(log), k, Counting(log, 0))
    assert result.exponent == k
    assert len(log) == products
    assert (0, 1) not in log and (1, 0) not in log  # never multiplies by the unit


def test_binary_power_rejects_bad_exponent():
    for k in (-1, 1.5, "2"):
        with pytest.raises(ValueError):
            binary_power(GaussianRational(2), k, GaussianRational(1))


def test_powers_equal_repeated_multiplication():
    from formbench.models import torus

    rng = random.Random(61)
    table = small_table()
    model = torus(4)
    z = nonzero_gaussian(rng)
    p = random_poly(rng, table) + table.variable("t1")
    sigma = model.coframe.form(
        {("x1", "x2"): nonzero_gaussian(rng), ("x3", "x4"): nonzero_gaussian(rng),
         ("x1", "x3"): nonzero_gaussian(rng)}
    )
    for base, one in ((z, GaussianRational(1)), (p, table.one()),
                      (sigma, model.coframe.unit())):
        product = one
        for k in range(9):
            assert base ** k == product
            product = product * base


def test_scalar_rendering_roundtrip():
    from formbench.expressions import parse_scalar

    rng = random.Random(59)
    table = small_table()
    for _ in range(80):
        p = random_poly(rng, table)
        assert parse_scalar(str(p), table) == p
