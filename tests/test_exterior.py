import random
import re
from fractions import Fraction

import pytest

from formbench.errors import ModelMismatch, UnknownVariable
from formbench.expressions import parse_form
from formbench.exterior import Form
from formbench.models import nakamura, torus
from formbench.scalars import GaussianRational
from support import gaussian, merge_monomials, random_form, sort_with_sign

I = GaussianRational(0, 1)


def test_sort_with_sign():
    assert sort_with_sign([0, 1, 2]) == (1, (0, 1, 2))
    assert sort_with_sign([1, 0]) == (-1, (0, 1))
    assert sort_with_sign([2, 0, 1]) == (1, (0, 1, 2))
    assert sort_with_sign([0, 0]) == (0, None)
    assert sort_with_sign([]) == (1, ())
    rng = random.Random(53)
    for _ in range(300):
        size = rng.randint(0, 8)
        positions = [rng.randrange(12) for _ in range(size)]
        if rng.random() < 0.5:
            positions = rng.sample(range(12), size)
        if len(set(positions)) < size:
            assert sort_with_sign(positions) == (0, None)
            continue
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size)
            if positions[i] > positions[j]
        )
        expected = -1 if inversions % 2 else 1
        assert sort_with_sign(positions) == (expected, tuple(sorted(positions)))


def test_merge_monomials():
    assert merge_monomials((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))
    assert merge_monomials((0, 1), (2, 3)) == (1, (0, 1, 2, 3))
    assert merge_monomials((1,), (1,)) == (0, None)


def test_wedge_examples():
    model = torus(4)
    cf = model.coframe
    x = cf.generator_form
    assert not (x("x1") * x("x1"))
    assert x("x2") * x("x1") == -(x("x1") * x("x2"))
    sigma = cf.form({("x1", "x2"): 1, ("x3", "x4"): 1})
    assert sigma * sigma == cf.monomial_form(("x1", "x2", "x3", "x4"), 2)


def test_power_examples():
    model = torus(4)
    cf = model.coframe
    sigma = cf.form({("x1", "x2"): 1, ("x3", "x4"): 1})
    assert sigma.power(2) == cf.monomial_form(("x1", "x2", "x3", "x4"), 2)
    f = random_form(random.Random(3), model, degree=2)
    assert f.power(0) == cf.unit()
    assert not cf.monomial_form(("x1", "xb1")).power(2)
    with pytest.raises(ValueError):
        f.power(-1)


def test_conjugation_examples():
    model = torus(2)
    cf = model.coframe
    assert cf.generator_form("x1").conjugate() == cf.generator_form("xb1")
    # x1 ^ xb2 -> xb1 ^ x2 = -(x2 ^ xb1)
    assert cf.monomial_form(("x1", "xb2")).conjugate() == cf.monomial_form(
        ("x2", "xb1"), -1
    )
    rng = random.Random(5)
    for _ in range(50):
        f = random_form(rng, model, degree=rng.randint(0, 4))
        assert f.conjugate().conjugate() == f


def test_conjugation_needs_pairing():
    family = nakamura(Fraction(1, 2))
    with pytest.raises(UnknownVariable):
        family.model.coframe.generator_form("phi1").conjugate()


def test_integrate_examples():
    model = torus(2)
    cf = model.coframe
    vol = cf.monomial_form(("x1", "x2", "xb1", "xb2"))
    assert vol.integrate() == cf.table.variable("V")
    assert cf.monomial_form(("x1", "x2")).integrate() == cf.table.zero()
    model4 = torus(4)
    cf4 = model4.coframe
    sigma = cf4.form({("x1", "x2"): 1, ("x3", "x4"): 1})
    pairing = (sigma * sigma.conjugate()).power(2).integrate()
    assert pairing == cf4.table.constant(4) * cf4.table.variable("V")


def test_integrate_is_linear():
    rng = random.Random(11)
    model = torus(2)
    for _ in range(100):
        f = random_form(rng, model, degree=4)
        g = random_form(rng, model, degree=4)
        c = gaussian(rng)
        lhs = (f.scaled(c) + g).integrate()
        assert lhs == f.integrate() * c + g.integrate()


def test_integrate_conjugation_compatibility():
    rng = random.Random(13)
    for model in (torus(2), torus(4)):
        top = len(model.coframe.generators)
        for _ in range(60):
            f = random_form(rng, model, degree=top)
            assert f.conjugate().integrate() == f.integrate().conjugate()


def test_bidegree_components():
    model = torus(2)
    cf = model.coframe
    f = cf.form({("x1", "x2"): 1, ("x1", "xb1"): 1})
    assert f.component(1, 1) == cf.monomial_form(("x1", "xb1"))
    assert not f.component(0, 2)
    assert f.bidegree() is None
    assert f.total_degree() == 2
    rng = random.Random(19)
    for _ in range(50):
        parts = cf.zero_form()
        g = random_form(rng, model, degree=rng.randint(0, 4))
        for p in range(3):
            for q in range(3):
                parts = parts + g.component(p, q)
        assert parts == g


def test_graded_commutativity():
    rng = random.Random(29)
    model = torus(3)
    for _ in range(120):
        da = rng.randint(0, 4)
        db = rng.randint(0, 4)
        a = random_form(rng, model, degree=da)
        b = random_form(rng, model, degree=db)
        sign = -1 if (da * db) % 2 else 1
        assert a * b == (b * a).scaled(sign)


def test_wedge_associativity():
    rng = random.Random(31)
    model = torus(3)
    for _ in range(100):
        a = random_form(rng, model, degree=rng.randint(0, 2))
        b = random_form(rng, model, degree=rng.randint(0, 2))
        c = random_form(rng, model, degree=rng.randint(0, 2))
        assert (a * b) * c == a * (b * c)


def test_conjugation_respects_wedge():
    rng = random.Random(37)
    model = torus(2)
    for _ in range(100):
        a = random_form(rng, model, degree=rng.randint(0, 2))
        b = random_form(rng, model, degree=rng.randint(0, 2))
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_model_mismatch():
    a = torus(2).coframe.generator_form("x1")
    b = torus(2).coframe.generator_form("x1")
    with pytest.raises(ModelMismatch):
        a * b


def test_rendering_and_parsing_roundtrip():
    model = torus(2)
    cf = model.coframe
    f = (
        cf.form({("x1", "x2"): 1})
        + cf.monomial_form(("x1", "xb1"), GaussianRational(1, 2))
        - cf.monomial_form(("x2", "xb2"), Fraction(3, 2))
    )
    text = str(f)
    assert text == "x1^x2 + (1+2i)*x1^xb1 - 3/2*x2^xb2"
    assert parse_form(text, cf) == f
    rng = random.Random(41)
    for _ in range(40):
        g = random_form(rng, model, degree=rng.randint(0, 4), max_terms=3)
        assert parse_form(str(g), cf) == g


def test_scalar_multiplication_forms():
    cf = torus(2).coframe
    f = cf.monomial_form(("x1", "x2"))
    assert f.scaled(2) == cf.monomial_form(("x1", "x2"), 2)
    assert (2 * f) == f * 2
    t = cf.table.variable("V")
    assert (t * f).terms[(0, 1)] == t


def test_form_keys_are_strictly_increasing_positions_of_the_coframe():
    # x2^x1 is neither x1^x2 nor its negative and x1^x1 is no monomial: each
    # key is rejected, by name, rather than kept as a term of its own
    cf = torus(2).coframe
    one = cf.table.one()
    x1x2 = cf.monomial_form(("x1", "x2"))
    for mon in ((1, 0), (0, 0), (0, 4), (-1, 2)):
        with pytest.raises(ValueError, match=re.escape(repr(mon))):
            x1x2 + Form(cf, {mon: one})
    assert Form(cf, {(0, 1): one}) == x1x2


def test_coframe_validation_errors():
    from formbench.exterior import Coframe, Generator
    from formbench.scalars import VariableTable

    table = VariableTable([("V", "V")])
    with pytest.raises(ValueError, match="before"):
        Coframe(
            [Generator("a", (0, 1)), Generator("b", (1, 0))], table
        )
    with pytest.raises(ValueError, match="unique"):
        Coframe(
            [Generator("a", (1, 0)), Generator("a", (1, 0))], table
        )
    with pytest.raises(ValueError, match="shared"):
        Coframe([Generator("V", (1, 0))], table)
    with pytest.raises(ValueError, match="every generator"):
        Coframe(
            [Generator("a", (1, 0)), Generator("ab", (0, 1))],
            table,
            volume=["a"],
        )
    # the conjugation pairing must be an involution between the two types
    pair = [Generator("a", (1, 0)), Generator("b", (1, 0)), Generator("ab", (0, 1))]
    with pytest.raises(ValueError, match="inconsistent conjugate pairing at ab"):
        Coframe(pair, table, conjugates={"a": "ab", "b": "ab"})
    with pytest.raises(ValueError, match="unknown conjugate 'nope'"):
        Coframe(pair, table, conjugates={"a": "nope"})
    with pytest.raises(ValueError, match="a and b have the same type"):
        Coframe(pair, table, conjugates={"a": "b"})
    with pytest.raises(ValueError, match="inconsistent conjugate pairing at t"):
        VariableTable([("t", "tb"), ("t", "tc")])


def test_unknown_generator_names_raise_unknown_variable():
    # every constructor that takes generator names names the unknown one
    from formbench.exterior import Coframe, Generator
    from formbench.scalars import VariableTable

    cf = torus(2).coframe
    calls = [lambda: cf.generator_form("nope"),
             lambda: cf.monomial_form(("x1", "nope")),
             lambda: cf.form({("nope",): 1}),
             lambda: Coframe([Generator("a", (1, 0)), Generator("ab", (0, 1))],
                             VariableTable([("V", "V")]), volume=["a", "nope"])]
    for call in calls:
        with pytest.raises(UnknownVariable, match="nope"):
            call()


def test_integrate_requires_volume():
    from formbench.exterior import Coframe, Generator
    from formbench.scalars import VariableTable

    table = VariableTable([])
    cf = Coframe([Generator("a", (1, 0))], table)
    with pytest.raises(ValueError, match="volume"):
        cf.generator_form("a").integrate()
