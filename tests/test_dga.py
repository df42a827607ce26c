import gc
import hashlib
import importlib.util
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from pathlib import Path

import pytest

from formbench import dga, exterior, linalg
from formbench.dga import (
    AEPPLI,
    BOTT_CHERN,
    DE_RHAM,
    DOLBEAULT,
    OPERATORS,
    THEORIES,
    StructureModel,
    _derivation,
    _leibniz_table,
    _shift,
)
from formbench.errors import (
    IntegrabilityError,
    ModelMismatch,
    NotClosed,
    UnspecializedParameters,
)
from formbench.exterior import Coframe, Form, Generator
from formbench.models import (chain_nilmanifold, kodaira, model_from_dict, nakamura,
                               torus)
from formbench.scalars import (ZERO, GaussianRational, PolyScalar, VariableTable,
                               join_terms)
from support import (
    exact_rows,
    gaussian,
    leibniz_terms,
    mask_of,
    nonzero_gaussian,
    positions_of,
    random_form,
    random_poly,
    reference_integer_d,
    reference_nullspace,
    reference_quotient_representatives,
    scan_quotient_representatives,
    sort_with_sign,
    tuple_conjugate,
    tuple_wedge,
)

I = GaussianRational(0, 1)


def four_generator_coframe(variables=()):
    table = VariableTable([("V", "V"), *variables])
    gens = [
        Generator("g1", (1, 0)),
        Generator("g2", (1, 0)),
        Generator("g3", (0, 1)),
        Generator("g4", (0, 1)),
    ]
    return Coframe(gens, table, volume=["g1", "g2", "g3", "g4"])


def all_models():
    return [torus(2), kodaira(), nakamura(Fraction(1, 2)).model]


# -- validation -----------------------------------------------------------------


def test_validate_torus_and_kodaira():
    assert torus(2).validate() == ["d(x1) = 0", "d(x2) = 0",
                                   "d(xb1) = 0", "d(xb2) = 0"]
    diagnostics = kodaira().validate()
    assert "d(w2) = w1^wb1" in diagnostics


def test_validate_rejects_non_integrable():
    cf = four_generator_coframe()
    differentials = {
        "g1": cf.form({("g2", "g3"): 1}),
        "g3": cf.form({("g1", "g4"): 1}),
    }
    with pytest.raises(IntegrabilityError) as err:
        StructureModel(cf, differentials)
    assert any(name == "g1" for name, _ in err.value.violations)


def test_validate_rejects_bidegree_violation():
    cf = four_generator_coframe()
    # a (1,0) generator with a (0,2) differential component
    with pytest.raises(IntegrabilityError):
        StructureModel(cf, {"g1": cf.form({("g3", "g4"): 1})})


def test_validate_rejects_wrong_degree():
    cf = four_generator_coframe()
    with pytest.raises(IntegrabilityError):
        StructureModel(cf, {"g1": cf.form({("g2",): 1})})


def test_validate_rejects_differential_not_commuting_with_conjugation():
    cf = kodaira().coframe
    w1_wb1 = cf.monomial_form(("w1", "wb1"))
    # d(wb2) must be conj(d w2) = -w1^wb1; the sign flip breaks the pairing
    with pytest.raises(IntegrabilityError) as err:
        StructureModel(cf, {"w2": w1_wb1, "wb2": w1_wb1})
    assert err.value.violations == [("w2", w1_wb1.scaled(2))]
    assert "w2" in str(err.value)


# -- the operators ----------------------------------------------------------------


def test_operator_examples():
    model = kodaira()
    cf = model.coframe
    assert model.delbar(cf.generator_form("w2")) == cf.monomial_form(
        ("w1", "wb1")
    )
    assert not model.del_(cf.generator_form("w2"))
    assert not model.d(cf.unit(7))
    family = nakamura(Fraction(1, 2))
    assert not family.model.d(family.sigma)


def test_operator_model_mismatch():
    model = kodaira()
    with pytest.raises(ModelMismatch):
        model.d(torus(2).coframe.generator_form("x1"))


def test_operators_without_differentials_give_zero():
    # torus(4) has no differential, so d, del_, delbar and deldelbar give the
    # zero form on every seeded form; a form of another model still raises
    rng = random.Random(139)
    model, other = torus(4), torus(4)
    operators = (model.d, model.del_, model.delbar, model.deldelbar)
    v = model.table.variable("V")
    for degree in range(9):
        for _ in range(4):
            form = random_form(rng, model, degree=degree, max_terms=4)
            for f in (form, form.scaled(v + 1)):
                for op in operators:
                    image = op(f)
                    assert not image and image.coframe is model.coframe
    foreign = random_form(rng, other, degree=2)
    for op in operators:
        with pytest.raises(ModelMismatch):
            op(foreign)


def test_bott_chern_and_aeppli_are_conjugation_symmetric():
    # on a model with a declared conjugation, h_BC^{p,q} = h_BC^{q,p} and
    # h_A^{p,q} = h_A^{q,p}; Dolbeault has no such symmetry, as the Iwasawa
    # manifold and the Kodaira surface show
    models = [torus(2), torus(3), kodaira(), chain_nilmanifold(3),
              chain_nilmanifold(4), *pool_models(20)]
    checked = 0
    for model in models:
        n = model.coframe.n_holomorphic
        for theory in (BOTT_CHERN, AEPPLI):
            for p, q in combinations(range(n + 1), 2):
                assert (model.cohomology(theory, (p, q)).dimension
                        == model.cohomology(theory, (q, p)).dimension), (
                    model, theory, p, q)
                checked += 1
    assert checked == 2 * (3 + 6 + 3 + 6 + 10 + 20 * 10)
    for model, h10, h01 in ((chain_nilmanifold(3), 3, 2), (kodaira(), 1, 2)):
        assert model.cohomology(DOLBEAULT, (1, 0)).dimension == h10
        assert model.cohomology(DOLBEAULT, (0, 1)).dimension == h01


def test_differential_identities_randomized():
    rng = random.Random(43)
    for model in all_models():
        top = len(model.coframe.generators)
        for _ in range(40):
            f = random_form(rng, model, degree=rng.randint(0, top))
            df = model.d(f)
            assert not model.d(df)
            assert not model.del_(model.del_(f))
            assert not model.delbar(model.delbar(f))
            assert df == model.del_(f) + model.delbar(f)
            anticommute = model.del_(model.delbar(f)) + model.delbar(model.del_(f))
            assert not anticommute


def test_leibniz_randomized():
    rng = random.Random(47)
    for model in all_models():
        top = len(model.coframe.generators)
        for _ in range(40):
            da = rng.randint(0, top // 2)
            a = random_form(rng, model, degree=da)
            b = random_form(rng, model, degree=rng.randint(0, top // 2))
            sign = -1 if da % 2 else 1
            lhs = model.d(a.wedge(b))
            rhs = model.d(a).wedge(b) + a.wedge(model.d(b)).scaled(sign)
            assert lhs == rhs


def test_unit_monomials_make_no_unit_products(monkeypatch):
    # a unit coefficient multiplies nothing: on unit monomials d, del_ and
    # delbar make no product, and deldelbar multiplies only by the
    # coefficients of delbar(f), never by the unit
    model = nakamura(Fraction(1, 2)).model
    cf = model.coframe
    one = model.table.one()
    forms = [Form(cf, {mon: one})
             for k in range(len(cf.generators) + 1)
             for mon in model.monomials_of_degree(k)]
    operators = (model.d, model.del_, model.delbar, model.deldelbar)
    products = []
    original = PolyScalar.__mul__

    def counted(self, other):
        products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(PolyScalar, "__mul__", counted)
    monkeypatch.setattr(PolyScalar, "__rmul__", counted)
    for op in operators[:3]:
        assert any(op(form) for form in forms)
    assert products == []
    assert any(model.deldelbar(form) for form in forms)
    assert products
    assert not any(one in pair for pair in products)


# -- cohomology -------------------------------------------------------------------


def test_torus_cohomology_dimensions():
    model = torus(2)
    for k in range(5):
        assert model.betti(k) == comb(4, k)
    assert model.betti(2) == 6
    for p in range(3):
        for q in range(3):
            expected = comb(2, p) * comb(2, q)
            for theory in (DOLBEAULT, BOTT_CHERN, AEPPLI):
                assert model.cohomology(theory, (p, q)).dimension == expected


def test_torus_report_contents():
    model = torus(2)
    report = model.cohomology(DOLBEAULT, (1, 0))
    assert report.dimension == len(report.basis) == 2
    cf = model.coframe
    assert list(report.basis) == [cf.generator_form("x1"), cf.generator_form("x2")]


def test_kodaira_dimensions_match_span_lists():
    model = kodaira()
    assert [model.betti(k) for k in range(5)] == [1, 3, 4, 3, 1]
    hodge = {
        (p, q): model.cohomology(DOLBEAULT, (p, q)).dimension
        for p in range(3) for q in range(3)
    }
    assert hodge[(1, 0)] == 1
    assert hodge[(0, 1)] == 2
    assert hodge[(2, 0)] == 1
    assert hodge[(1, 1)] == 2
    assert hodge[(0, 2)] == 1
    cf = model.coframe
    assert list(model.cohomology(DOLBEAULT, (1, 0)).basis) == [
        cf.generator_form("w1")
    ]
    basis_11 = model.cohomology(DOLBEAULT, (1, 1)).basis
    assert list(basis_11) == [cf.monomial_form(("w1", "wb2")),
                              cf.monomial_form(("w2", "wb1"))]
    degree_one = model.cohomology(DE_RHAM, 1)
    assert cf.generator_form("w1") in list(degree_one.basis)
    combined = cf.generator_form("w2") + cf.generator_form("wb2")
    assert model.class_of(combined, DE_RHAM, 1) is not None


def test_representatives_are_cocycles():
    for model in all_models():
        top = len(model.coframe.generators)
        for k in range(top + 1):
            for rep in model.cohomology(DE_RHAM, k).basis:
                assert not model.d(rep)
        for p in range(model.coframe.n_holomorphic + 1):
            for q in range(model.coframe.n_antiholomorphic + 1):
                for rep in model.cohomology(DOLBEAULT, (p, q)).basis:
                    assert not model.delbar(rep)
                for rep in model.cohomology(BOTT_CHERN, (p, q)).basis:
                    assert not model.del_(rep)
                    assert not model.delbar(rep)
                for rep in model.cohomology(AEPPLI, (p, q)).basis:
                    assert not model.deldelbar(rep)


# -- brute-force oracle for the Kodaira Bott-Chern / Aeppli dimensions -------------
#
# The bases and operator matrices below are transcribed by hand from the
# structure equations dw2 = w1^wb1, dwb2 = -w1^wb1 and reduced with a local
# row-echelon routine over plain fractions, independent of the package's
# linear algebra.


def _rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def _null_dim(rows, n_cols):
    if not rows:
        return n_cols
    return n_cols - _rank(rows)


def test_kodaira_bott_chern_aeppli_oracle():
    # bases: A10=[w1,w2], A01=[wb1,wb2], A11=[w1wb1,w1wb2,w2wb1,w2wb2],
    #        A21=[w1w2wb1,w1w2wb2], A12=[w1wb1wb2,w2wb1wb2]
    del_10_to_20 = [[0, 0]]                       # del on A10
    delbar_10_to_11 = [[0, 1], [0, 0], [0, 0], [0, 0]]
    del_01_to_11 = [[0, -1], [0, 0], [0, 0], [0, 0]]
    delbar_01_to_02 = [[0, 0]]
    del_11_to_21 = [[0, 0, 0, -1], [0, 0, 0, 0]]
    delbar_11_to_12 = [[0, 0, 0, 1], [0, 0, 0, 0]]
    deldelbar_10_to_21 = [[0, 0], [0, 0]]
    deldelbar_01_to_12 = [[0, 0], [0, 0]]
    deldelbar_11_to_22 = [[0, 0, 0, 0]]

    # Bott-Chern numerators: ker(del) cap ker(delbar)
    bc_10 = _null_dim(del_10_to_20 + delbar_10_to_11, 2)      # 1
    bc_01 = _null_dim(del_01_to_11 + delbar_01_to_02, 2)      # 1
    bc_11 = _null_dim(del_11_to_21 + delbar_11_to_12, 4)      # 3 (no im deldelbar)
    assert (bc_10, bc_01, bc_11) == (1, 1, 3)

    # Aeppli: ker(deldelbar) modulo im(del) + im(delbar)
    a_10 = _null_dim(deldelbar_10_to_21, 2) - 0               # nothing maps in
    a_01 = _null_dim(deldelbar_01_to_12, 2) - 0
    # im del from A01 and im delbar from A10 inside A11, as column vectors
    image_cols = [
        [row[1] for row in del_01_to_11],   # del(wb2)
        [row[1] for row in delbar_10_to_11],  # delbar(w2)
    ]
    a_11 = _null_dim(deldelbar_11_to_22, 4) - _rank(
        [list(col) for col in image_cols]
    )
    assert (a_10, a_01, a_11) == (2, 2, 3)

    # the degree-1 and degree-2 counts against 2 b_k
    b1, b2 = 3, 4
    assert 2 * b1 == (bc_10 + bc_01) + (a_10 + a_01)          # equality at k=1
    k2_total = (1 + bc_11 + 1) + (1 + a_11 + 1)
    assert 2 * b2 < k2_total and k2_total == 10               # strict at k=2

    # the engine agrees with the oracle
    model = kodaira()
    assert model.cohomology(BOTT_CHERN, (1, 0)).dimension == bc_10
    assert model.cohomology(BOTT_CHERN, (0, 1)).dimension == bc_01
    assert model.cohomology(BOTT_CHERN, (1, 1)).dimension == bc_11
    assert model.cohomology(AEPPLI, (1, 0)).dimension == a_10
    assert model.cohomology(AEPPLI, (0, 1)).dimension == a_01
    assert model.cohomology(AEPPLI, (1, 1)).dimension == a_11


def test_ddbar_criterion_profiles():
    model = torus(2)
    for k in range(5):
        check = model.ddbar_criterion(k)
        assert check.holds and check.betti_doubled == 2 * comb(4, k)
    model = kodaira()
    profile = {k: model.ddbar_criterion(k).holds for k in range(5)}
    assert profile == {0: True, 1: True, 2: False, 3: True, 4: True}
    check2 = model.ddbar_criterion(2)
    assert (check2.betti_doubled, check2.bott_chern_aeppli) == (8, 10)


def test_frolicher_inequality_and_degeneration():
    for model in all_models():
        h = model.coframe.n_holomorphic
        a = model.coframe.n_antiholomorphic
        for k in range(h + a + 1):
            total = sum(
                model.cohomology(DOLBEAULT, (p, k - p)).dimension
                for p in range(max(0, k - a), min(h, k) + 1)
            )
            assert total >= model.betti(k)
    for model in (torus(2), kodaira()):
        h = model.coframe.n_holomorphic
        a = model.coframe.n_antiholomorphic
        for k in range(h + a + 1):
            total = sum(
                model.cohomology(DOLBEAULT, (p, k - p)).dimension
                for p in range(max(0, k - a), min(h, k) + 1)
            )
            assert total == model.betti(k)


def test_zero_differential_theories_agree():
    model = torus(3)
    for p in range(4):
        for q in range(4):
            dims = {
                model.cohomology(theory, (p, q)).dimension
                for theory in (DOLBEAULT, BOTT_CHERN, AEPPLI)
            }
            assert dims == {comb(3, p) * comb(3, q)}


# -- classes and wedge maps --------------------------------------------------------


def test_class_of_examples():
    model = kodaira()
    cf = model.coframe
    image = cf.monomial_form(("w1", "wb1", "wb2"))
    assert model.class_of(image, DOLBEAULT, (1, 2)) == (GaussianRational(0),)
    vol = cf.monomial_form(("w1", "w2", "wb1", "wb2"))
    assert model.class_of(vol, DE_RHAM, 4) == (GaussianRational(1),)
    t = torus(2)
    assert t.class_of(t.coframe.generator_form("x1"), DOLBEAULT, (1, 0)) == (
        GaussianRational(1),
        GaussianRational(0),
    )


def test_class_of_rejects_non_cocycles():
    model = kodaira()
    with pytest.raises(NotClosed):
        model.class_of(model.coframe.generator_form("w2"), DOLBEAULT, (1, 0))
    with pytest.raises(NotClosed):
        model.class_of(model.coframe.monomial_form(("w2", "wb2")), DE_RHAM, 2)


@pytest.mark.parametrize("names, theory, slot, message", [
    (("x1",), DE_RHAM, 2, "x1 is not in de_rham slot 2"),
    (("x1", "xb1"), DOLBEAULT, (2, 0), "x1^xb1 is not in dolbeault slot (2, 0)"),
    ((), AEPPLI, (1, 1), "1 is not in aeppli slot (1, 1)"),
])
def test_class_of_names_the_monomial_outside_the_slot(names, theory, slot, message):
    model = torus(2)
    form = model.coframe.monomial_form(names)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model.class_of(form, theory, slot)


def test_class_of_kills_coboundaries():
    rng = random.Random(53)
    model = kodaira()
    for _ in range(60):
        p = rng.randint(0, 2)
        q = rng.randint(0, 1)
        g = random_form(rng, model, bidegree=(p, q))
        image = model.delbar(g)
        if not image:
            continue
        coords = model.class_of(image, DOLBEAULT, (p, q + 1))
        assert all(not c for c in coords)


def test_lambda_map_kodaira_vanishes():
    model = kodaira()
    omega = model.coframe.monomial_form(("w1", "w2"))
    lam = model.lambda_map(omega.conjugate(), DOLBEAULT, (1, 0))
    assert lam.source.dimension == 1
    assert lam.target.dimension == 1
    assert lam.is_zero() and lam.rank() == 0


def test_lambda_map_torus_invertible():
    model = torus(2)
    omega = model.coframe.monomial_form(("x1", "x2"))
    for q in range(3):
        lam = model.lambda_map(omega, DOLBEAULT, (0, q))
        assert lam.source.dimension == comb(2, q)
        assert lam.target.dimension == comb(2, q)
        assert lam.rank() == comb(2, q)


@pytest.mark.parametrize("source, target", [((1, 0), (3, 0)),
                                             ((3, 0), (5, 0))])
def test_lambda_map_rank_at_zero_dimensional_slots(source, target):
    # a map into, or out of, a zero-dimensional slot has rank 0 whatever the
    # other side's dimension; transposing the empty matrix loses that side
    model = torus(2)
    omega = model.coframe.monomial_form(("x1", "x2"))
    lam = model.lambda_map(omega, DOLBEAULT, source)
    assert lam.target.slot == target and lam.target.dimension == 0
    assert lam.source.dimension == (2 if source == (1, 0) else 0)
    assert lam.rank() == 0


def test_lambda_map_torus4_rank_by_enumeration():
    model = torus(4)
    cf = model.coframe
    omega_bar = cf.monomial_form(("x1", "x2", "x3", "x4")).conjugate()
    # oracle: the images x_i ^ conj(volume) are four distinct nonzero monomials
    images = set()
    for i in range(1, 5):
        image = cf.generator_form(f"x{i}").wedge(omega_bar)
        assert len(image.terms) == 1
        images.add(next(iter(image.terms)))
    assert len(images) == 4
    lam = model.lambda_map(omega_bar, DOLBEAULT, (1, 0))
    assert lam.rank() == 4


def test_lambda_map_requires_closed_omega():
    model = kodaira()
    with pytest.raises(NotClosed):
        model.lambda_map(model.coframe.generator_form("w2"), DOLBEAULT, (1, 0))


@pytest.mark.parametrize("theory, source", [(DE_RHAM, 1), (DOLBEAULT, (1, 0))])
def test_lambda_map_names_a_zero_omega(theory, source):
    model = kodaira()
    with pytest.raises(ValueError, match="^omega is zero$"):
        model.lambda_map(model.coframe.zero_form(), theory, source)


# Each theory's cocycle operators and boundary sources, written out here
# independently of the engine's own table.


def _cocycle_operators(model, theory):
    return {
        DE_RHAM: [model.d],
        DOLBEAULT: [model.delbar],
        BOTT_CHERN: [model.del_, model.delbar],
        AEPPLI: [model.deldelbar],
    }[theory]


def _boundary_sources(model, theory, slot):
    if theory == DE_RHAM:
        return [(model.d, model.monomials_of_degree(slot - 1))]
    p, q = slot
    if theory == DOLBEAULT:
        return [(model.delbar, model.monomials_of_bidegree(p, q - 1))]
    if theory == BOTT_CHERN:
        return [(model.deldelbar, model.monomials_of_bidegree(p - 1, q - 1))]
    return [(model.del_, model.monomials_of_bidegree(p - 1, q)),
            (model.delbar, model.monomials_of_bidegree(p, q - 1))]


def _slots_and_spaces(model, theory):
    cf = model.coframe
    if theory == DE_RHAM:
        return [(k, model.monomials_of_degree(k))
                for k in range(len(cf.generators) + 1)]
    return [((p, q), model.monomials_of_bidegree(p, q))
            for p in range(cf.n_holomorphic + 1)
            for q in range(cf.n_antiholomorphic + 1)]


@pytest.mark.parametrize("theory", THEORIES)
def test_class_of_and_lambda_map_every_theory(theory):
    rng = random.Random(59)
    non_cocycles = 0
    models = (kodaira(), nakamura(Fraction(1, 2)).model, chain_nilmanifold(3),
              *pool_models(3))
    for model in models:
        cf = model.coframe
        one = cf.table.one()
        for slot, space in _slots_and_spaces(model, theory):
            for mon in space:
                form = Form(cf, {mon: one})
                if any(op(form) for op in _cocycle_operators(model, theory)):
                    with pytest.raises(NotClosed):
                        model.class_of(form, theory, slot)
                    non_cocycles += 1
                    break
            basis = model.cohomology(theory, slot).basis
            if not basis:
                continue
            coords = tuple(nonzero_gaussian(rng) for _ in basis)
            form = cf.zero_form()
            for c, rep in zip(coords, basis):
                form = form + rep.scaled(c)
            for op, sources in _boundary_sources(model, theory, slot):
                for mon in rng.sample(sources, min(3, len(sources))):
                    form = form + op(Form(cf, {mon: cf.table.constant(gaussian(rng))}))
            assert model.class_of(form, theory, slot) == coords, (slot, str(form))
    assert non_cocycles > 0

    model = torus(2)
    omega = model.coframe.monomial_form(("x1", "x2"))
    source = 0 if theory == DE_RHAM else (0, 0)
    lam = model.lambda_map(omega, theory, source)
    target = (2, 6) if theory == DE_RHAM else ((2, 0), 1)
    assert (lam.target.slot, lam.target.dimension) == target
    assert lam.source.dimension == lam.rank() == 1
    mixed = omega + model.coframe.generator_form("x1")
    with pytest.raises(ValueError, match="homogeneous"):
        model.lambda_map(mixed, theory, source)


def bench_shape_nilpotent(rng):
    """A nilpotent model of the benchmark's document shape: z1..z3 closed,
    dz4 a seeded combination of two (2,0) or (1,1) monomials of z1..z3, and
    the conjugate equation for zb4."""
    holo = [Generator(f"z{i}", (1, 0)) for i in range(1, 5)]
    anti = [Generator(f"zb{i}", (0, 1)) for i in range(1, 5)]
    cf = Coframe(holo + anti, VariableTable([("V", "V")]),
                 conjugates={f"z{i}": f"zb{i}" for i in range(1, 5)},
                 volume=[g.name for g in holo + anti])
    monomials = [(f"z{a}", f"z{b}") for a, b in combinations(range(1, 4), 2)]
    monomials += [(f"z{a}", f"zb{b}") for a in range(1, 4) for b in range(1, 4)]
    dz4 = cf.zero_form()
    for mon in rng.sample(monomials, 2):
        coeff = GaussianRational(rng.choice((-1, 1)), rng.randint(-1, 1))
        dz4 = dz4 + cf.monomial_form(mon, coeff)
    return StructureModel(cf, {"z4": dz4, "zb4": dz4.conjugate()})


def mixed_denominator_model():
    """Generator differentials over the denominators 3, 5 and 7 and the
    Nakamura-style factor a = 1/(1 - |t|^2) = 36/23 at t = 1/3 + i/2, with
    (2,0) and (1,1) parts and conjugate equations."""
    holo = [Generator(f"phi{i}", (1, 0)) for i in range(1, 5)]
    anti = [Generator(f"phib{i}", (0, 1)) for i in range(1, 5)]
    cf = Coframe(holo + anti, VariableTable([("V", "V")]),
                 conjugates={f"phi{i}": f"phib{i}" for i in range(1, 5)},
                 volume=[g.name for g in holo + anti])
    t = GaussianRational(Fraction(1, 3), Fraction(1, 2))
    a = GaussianRational(1 / (1 - t.norm()))
    dphi3 = cf.form({("phi1", "phi2"): Fraction(1, 3), ("phi1", "phib2"): a})
    dphi4 = cf.form({("phi1", "phi3"): GaussianRational(Fraction(2, 5),
                                                        Fraction(-1, 7)),
                     ("phi2", "phib1"): a * t})
    return StructureModel(cf, {"phi3": dphi3, "phib3": dphi3.conjugate(),
                               "phi4": dphi4, "phib4": dphi4.conjugate()})


def common_denominator(model):
    """The lcm of the denominators of every generator differential's
    coefficients."""
    den = 1
    for gen in model.coframe.generators:
        for coeff in model.differential_of(gen.name).terms.values():
            value = coeff.constant_value()
            den = lcm(den, value.re.denominator, value.im.denominator)
    return den


def dense_route_basis(model, theory, slot, space):
    """The representatives of one slot from dense matrices of the public
    operator images, reduced by the dense reference routes."""
    cf = model.coframe
    one = cf.table.one()
    index = {m: i for i, m in enumerate(space)}

    def image(op, mon):
        return {m: c.constant_value()
                for m, c in op(Form(cf, {mon: one})).terms.items()}

    rows = {}  # (operator number, target monomial) -> dense row
    for k, op in enumerate(_cocycle_operators(model, theory)):
        for col, mon in enumerate(space):
            for m, value in image(op, mon).items():
                rows.setdefault((k, m), [ZERO] * len(space))[col] = value
    boundaries = []
    for op, sources in _boundary_sources(model, theory, slot):
        for mon in sources:
            vec = [ZERO] * len(space)
            for m, value in image(op, mon).items():
                vec[index[m]] = value
            boundaries.append(vec)
    cocycles = reference_nullspace(list(rows.values()), len(space))
    reps = reference_quotient_representatives(cocycles, boundaries)
    return tuple(
        Form(cf, {m: cf.table.constant(x) for m, x in zip(space, rep) if x})
        for rep in reps
    )


def test_reports_match_dense_reference_route():
    models = [torus(2), kodaira(), nakamura(Fraction(1, 2)).model,
              bench_shape_nilpotent(random.Random(41)), mixed_denominator_model()]
    assert common_denominator(models[-1]) == 3 * 5 * 7 * 23
    for model in models:
        for theory in THEORIES:
            for slot, space in _slots_and_spaces(model, theory):
                expected = dense_route_basis(model, theory, slot, space)
                assert model.cohomology(theory, slot).basis == expected, (
                    model, theory, slot)


def test_tables_never_reach_dense_elimination(monkeypatch):
    # the dimensions come from integer ranks, one elimination per shared
    # rank, on the mask-keyed rows; the representatives, one
    # quotient_representatives per slot, come only when the rows are read
    def dense_elimination(*args):
        raise RuntimeError("a cohomology table reached dense elimination")

    monkeypatch.setattr(linalg, "rref", dense_elimination)
    monkeypatch.setattr(linalg, "solve", dense_elimination)
    calls = Counter()

    def counted(name):
        original = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("nullspace", "quotient_representatives", "_eliminate"):
        monkeypatch.setattr(linalg, name, counted(name))
    rank = linalg.rank

    def counted_rank(vectors):
        vectors = list(vectors)
        calls["rank"] += 1
        calls["nonzero rank"] += any(vectors)
        return rank(vectors)

    monkeypatch.setattr(linalg, "rank", counted_rank)

    def index_keyed(*args):
        raise RuntimeError("a cohomology table built an index-keyed image")

    model = nakamura(Fraction(1, 2)).model
    monkeypatch.setattr(model, "_images", index_keyed)
    reports = [model.cohomology(theory, slot) for theory in THEORIES
               for slot, _ in _slots_and_spaces(model, theory)]
    dimensions = sum(report.dimension for report in reports)
    # one rank per distinct set of images serves the 2 x 84 cocycle and
    # boundary counts; 72 of them have a nonzero row, and of their 520 rows
    # only the 80 that meet a pivot are eliminated
    ranks = {"rank": 124, "nonzero rank": 72}
    assert calls == {**ranks, "_eliminate": 80} and len(reports) == 84
    assert sum(len(report.rows) for report in reports) == dimensions > 0
    del calls["_eliminate"]  # the rows eliminate too
    assert calls == {**ranks, "quotient_representatives": len(reports)}


def test_a_wrong_rank_fails_the_first_read_of_rows(monkeypatch):
    # the rows are the second route to the dimension: a rank that is off
    # shows on the first read, with the theory, the slot and both counts
    monkeypatch.setattr(linalg, "rank", lambda vectors: 0)
    report = kodaira().cohomology(DE_RHAM, 2)
    assert report.dimension == 6  # the whole slot; b_2 of Kodaira is 4
    message = r"de_rham slot 2: 4 representatives but dimension 6"
    with pytest.raises(RuntimeError, match=message):
        report.rows
    with pytest.raises(RuntimeError, match=message):
        report.basis


def gaussian_integer(value):
    """The (re, im) pair of a Gaussian rational that is a Gaussian integer."""
    assert value.re.denominator == 1 and value.im.denominator == 1, value
    return value.re.numerator, value.im.numerator


@pytest.mark.parametrize("make", [
    kodaira, lambda: nakamura(Fraction(1, 2)).model, lambda: torus(2),
    lambda: chain_nilmanifold(5), mixed_denominator_model],
    ids=["kodaira", "nakamura", "torus2", "chain5", "mixed"])
def test_images_match_public_operators(make):
    # second route: each memoized image is the public operator applied to the
    # unit monomial, written over the monomials of the target slot and scaled
    # by exactly D, the common denominator of the differentials (D squared
    # for del delbar)
    model = make()
    cf = model.coframe
    one = cf.table.one()
    den = common_denominator(model)
    operators = {1: model.d, (1, 0): model.del_, (0, 1): model.delbar,
                 (1, 1): model.deldelbar}
    checked = 0
    for slot, space in _slots_and_spaces(model, DE_RHAM) + _slots_and_spaces(
            model, DOLBEAULT):
        steps = [1] if isinstance(slot, int) else [(1, 0), (0, 1), (1, 1)]
        for step in steps:
            scale = den * den if step == (1, 1) else den
            target = model._space(_shift(slot, step))
            index = {positions_of(m): i for i, m in enumerate(target)}
            expected = [
                {index[m]: gaussian_integer(c.constant_value() * scale)
                 for m, c in operators[step](Form(cf, {mon: one})).terms.items()}
                for mon in space
            ]
            assert model._images(slot, step) == expected, (slot, step)
            checked += len(space)
    assert checked == 4 * 2 ** len(cf.generators)


def test_full_table_makes_no_operator_wedge_or_polynomial_product(monkeypatch):
    # the tables read the images off the integer differentials, so after
    # construction no public operator, wedge or PolyScalar product runs
    model = nakamura(Fraction(1, 2)).model
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("d", "del_", "delbar", "deldelbar"):
        monkeypatch.setattr(model, name, counted(name, getattr(model, name)))
    monkeypatch.setattr(Form, "wedge", counted("wedge", Form.wedge))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(PolyScalar, name,
                            counted(name, getattr(PolyScalar, name)))
    monkeypatch.setattr(Form, "__init__", counted("Form", Form.__init__))
    monkeypatch.setattr(VariableTable, "constant",
                        counted("constant", VariableTable.constant))
    for module in (exterior, dga):  # the unchecked constructor, by either name
        monkeypatch.setattr(module, "_form", counted("_form", module._form))
    builds = Counter()

    def derivation(mask, table):
        assert table is model._integer_table
        builds[mask] += 1
        return _derivation(mask, table)

    monkeypatch.setattr(dga, "_derivation", derivation)
    tables = {theory: [model.cohomology(theory, slot).dimension
                       for slot, _ in _slots_and_spaces(model, theory)]
              for theory in THEORIES}
    assert sum(map(sum, tables.values())) > 0
    assert calls == Counter()
    # the integer d of each monomial is built once, whatever images read it
    assert len(builds) == 2 ** len(model.coframe.generators) == 256
    assert set(builds.values()) == {1}


def test_basis_forms_are_built_once_on_first_read(monkeypatch):
    model = nakamura(Fraction(1, 2)).model
    reports = [model.cohomology(theory, slot) for theory in THEORIES
               for slot, _ in _slots_and_spaces(model, theory)]
    built = Counter()

    def counted(*args):
        built["Form"] += 1
        original(*args)

    original = Form.__init__
    monkeypatch.setattr(Form, "__init__", counted)
    first = [report.basis for report in reports]
    assert built["Form"] == sum(report.dimension for report in reports) > 0
    assert all(report.basis is basis for report, basis in zip(reports, first))
    assert built["Form"] == sum(report.dimension for report in reports)


def test_cold_model_is_freed_without_the_cycle_collector():
    # a report keeps its rows and the coframe, never the model, so a model
    # with full tables goes as soon as its last reference does
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (lambda: nakamura(Fraction(1, 2)).model,
                     lambda: bench_shape_nilpotent(random.Random(41))):
            model = make()
            for theory in THEORIES:
                for k, (slot, _) in enumerate(_slots_and_spaces(model, theory)):
                    report = model.cohomology(theory, slot)
                    if k % 2:
                        assert len(report.basis) == report.dimension
            refs = weakref.ref(model), weakref.ref(model.coframe)
            del model, report
            assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_reports_compare_by_rows():
    def tables(model):
        return {(theory, slot): model.cohomology(theory, slot)
                for theory in THEORIES
                for slot, _ in _slots_and_spaces(model, theory)}

    first = tables(nakamura(Fraction(1, 2)).model)
    assert first == tables(nakamura(Fraction(1, 2)).model)
    # the Kodaira surface with the roles of w1 and w2 swapped: the same
    # dimensions, and other bases at some slots
    model = kodaira()
    cf = model.coframe
    swapped = StructureModel(cf, {"w1": cf.monomial_form(("w2", "wb2")),
                                  "wb1": -cf.monomial_form(("w2", "wb2"))})
    ours, theirs = tables(model), tables(swapped)
    for key, report in ours.items():
        assert report.dimension == theirs[key].dimension, key
        assert (report == theirs[key]) == (report.basis == theirs[key].basis), key
    assert ours != theirs


def test_full_tables_leave_the_image_memo_as_built():
    # neither the ranks nor the rows may write into the memoized rows they
    # read: a boundary row overwritten there gives a wrong basis of the right
    # size.  The memo sizes are pinned so that the comparisons are not empty
    model = bench_shape_nilpotent(random.Random(41))
    for theory in THEORIES:
        for slot, _ in _slots_and_spaces(model, theory):
            model.cohomology(theory, slot).rows
    assert (len(model._row_cache), len(model._d_row_cache)) == (152, 256)
    fresh = bench_shape_nilpotent(random.Random(41))
    assert model._row_cache == {key: fresh._rows(*key) for key in model._row_cache}
    assert model._d_row_cache == {
        mask: fresh._integer_d(mask) for mask in model._d_row_cache}


def bench_generators():
    """bench/generators.py of the checkout, loaded by path: it needs only the
    standard library."""
    path = Path(__file__).resolve().parent.parent / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pool_models(count):
    """The first count model documents of the cohomology benchmark's pool
    at one label prefix, through the model file format."""
    gen = bench_generators()
    shapes = gen.POOL_SHAPES
    return [model_from_dict(gen.pool_document(
        gen.make_rng("cohomology", f"test.{i}"), shapes[i % len(shapes)]))
        for i in range(count)]


def test_key_ordered_elimination_matches_the_scan_on_every_slot():
    # reference route: every slot of the bundled models and of pool documents
    # gives the same integers under the insertion-order scan
    models = [torus(4), kodaira(), nakamura(0).model,
              nakamura(Fraction(1, 2)).model, *pool_models(12)]
    slots = 0
    for model in models:
        for theory in THEORIES:
            for slot, _ in _slots_and_spaces(model, theory):
                operators = [model._images(slot, step)
                             for step in OPERATORS[theory][0]]
                boundaries = model._boundary_vectors(theory, slot)
                assert exact_rows(linalg.quotient_representatives(
                    operators, boundaries)) == exact_rows(
                    scan_quotient_representatives(operators, boundaries)), (
                    model, theory, slot)
                slots += 1
    # fifteen models of complex dimension 4 and the Kodaira surface
    assert slots == 15 * (9 + 3 * 25) + (5 + 3 * 9)


def test_rows_do_not_depend_on_the_image_keys():
    # the reports eliminate cocycle images keyed by target mask (and, for
    # Bott-Chern, d in place of del and delbar); the image keys sort below
    # every basis index, so the rows must equal the representatives over the
    # index-keyed images of every cocycle operator
    models = [*pool_models(120), torus(2), kodaira(), torus(4), nakamura(0).model,
              nakamura(Fraction(1, 2)).model, chain_nilmanifold(5),
              chain_nilmanifold(6)]
    slots = 0
    for model in models:
        for theory in THEORIES:
            for slot, _ in _slots_and_spaces(model, theory):
                rows = model.cohomology(theory, slot).rows
                space = model._space(slot)
                operators = [model._images(slot, step)
                             for step in OPERATORS[theory][0]]
                reps = linalg.quotient_representatives(
                    operators, model._boundary_vectors(theory, slot))
                index = {m: i for i, m in enumerate(space)}
                assert exact_rows(reps) == exact_rows(
                    (s, {index[mask_of(mon)]: (x, y)
                         for mon, x, y in zip(row[::3], row[1::3], row[2::3])})
                    for s, *row in rows), (model, theory, slot)
                slots += 1
    assert slots == 123 * 84 + 2 * (5 + 3 * 9) + (11 + 3 * 36) + (13 + 3 * 49)


def test_space_memo_hands_out_tuples():
    # a tuple of the slot's monomial masks, in the order of the position
    # tuples of monomials_of_degree and monomials_of_bidegree
    model = kodaira()
    n, h = len(model.coframe.generators), model.coframe.n_holomorphic
    for slot in (-1, 0, 2, 5, (1, 0), (2, 2), (3, 0), (0, -1)):
        space = model._space(slot)
        assert type(space) is tuple and model._space(slot) is space
        if isinstance(slot, int):
            expected = list(combinations(range(n), slot)) if 0 <= slot else []
        else:
            expected = [mon for k in range(n + 1)
                        for mon in combinations(range(n), k)
                        if (sum(p < h for p in mon), sum(p >= h for p in mon)) == slot]
        assert space == tuple(map(mask_of, expected)), slot


def _terms(form):
    return {mon: coeff.constant_value() for mon, coeff in form.terms.items()}


def _on(model, terms):
    table = model.coframe.table
    return Form(model.coframe, {mon: table.constant(c) for mon, c in terms.items()})


def test_image_memo_leaves_classes_and_images_unchanged():
    # the tables fill only the mask-keyed row memos and class_of keys the
    # boundaries by slot index without memoizing them; no read writes the
    # memos, and they equal what a fresh model builds
    rng = random.Random(67)
    warm = nakamura(Fraction(1, 2)).model
    for theory in THEORIES:
        for slot, _ in _slots_and_spaces(warm, theory):
            warm.cohomology(theory, slot)
    assert (len(warm._row_cache), len(warm._d_row_cache)) == (152, 256)
    after_tables = {key: [dict(v) for v in rows]
                    for key, rows in warm._row_cache.items()}
    d_rows = {mask: dict(row) for mask, row in warm._d_row_cache.items()}
    queries = 0
    for theory in THEORIES:
        for slot, _ in _slots_and_spaces(warm, theory):
            basis = warm.cohomology(theory, slot).basis
            if not basis:
                continue
            form = warm.coframe.zero_form()
            for rep in basis:
                form = form + rep.scaled(nonzero_gaussian(rng))
            for op, sources in _boundary_sources(warm, theory, slot):
                for mon in rng.sample(sources, min(2, len(sources))):
                    form = form + op(_on(warm, {mon: gaussian(rng)}))
            cold = nakamura(Fraction(1, 2)).model
            expected = cold.class_of(_on(cold, _terms(form)), theory, slot)
            assert warm.class_of(form, theory, slot) == expected, (theory, slot)
            queries += 1
    assert queries == 84
    assert warm._row_cache == after_tables and warm._d_row_cache == d_rows
    fresh = nakamura(Fraction(1, 2)).model
    assert warm._row_cache == {key: fresh._rows(*key) for key in warm._row_cache}
    assert warm._d_row_cache == {
        mask: fresh._integer_d(mask) for mask in warm._d_row_cache}


def chain_betti_numbers(n):
    """The Betti numbers of chain_nilmanifold(n), after the theorem checks on
    its four tables: Poincare, Serre and Bott-Chern/Aeppli duality, Euler
    characteristic zero, the Frolicher and Angella-Tomassini inequalities,
    and b_1 = 4 (phi1, phi2 and their conjugates are the closed 1-forms)."""
    model = chain_nilmanifold(n)
    b = [model.betti(k) for k in range(2 * n + 1)]
    assert b[1] == 4
    assert sum((-1) ** k * x for k, x in enumerate(b)) == 0
    assert b == b[::-1]  # Poincare duality
    slots = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    h, bc, a = ({s: model.cohomology(theory, s).dimension for s in slots}
                for theory in (DOLBEAULT, BOTT_CHERN, AEPPLI))
    for p, q in slots:
        assert h[(p, q)] == h[(n - p, n - q)]  # Serre duality
        assert bc[(p, q)] == a[(n - p, n - q)]  # Bott-Chern/Aeppli duality
    for p in range(n + 1):
        assert sum((-1) ** q * h[(p, q)] for q in range(n + 1)) == 0
    for k in range(2 * n + 1):
        degree_k = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
        assert sum(h[s] for s in degree_k) >= b[k]  # Frolicher
        assert sum(bc[s] + a[s] for s in degree_k) >= 2 * b[k]
    return b


def test_integer_d_matches_the_tuple_route_on_every_monomial():
    # reference route: D times d of each monomial by the tuple Leibniz rule
    # (merge_monomials on position tuples), entry for entry and in order
    models = [torus(2), kodaira(), nakamura(Fraction(1, 2)).model,
              mixed_denominator_model(), chain_nilmanifold(5), *pool_models(12)]
    checked = 0
    for model in models:
        n = len(model.coframe.generators)
        for k in range(n + 1):
            for mon in combinations(range(n), k):
                expected = [(mask_of(m), xy)
                            for m, xy in reference_integer_d(model, mon).items()]
                assert list(model._integer_d(mask_of(mon)).items()) == expected, (
                    model, mon)
                checked += 1
    assert checked == 2 * 16 + 2 * 256 + 1024 + 12 * 256


def test_bitmask_signs_match_merge_monomials():
    # the sign of each Leibniz term read off one bit count against the tuple
    # route, on random differentials over coframes of 2 x 1 to 2 x 9
    # generators; a term that shares a generator with the rest of the
    # monomial (merge sign 0) must be dropped
    rng = random.Random(73)
    overlapping = kept = 0
    for _ in range(300):
        n = 2 * rng.randint(1, 9)
        differentials = {}
        for pos in rng.sample(range(n), rng.randint(1, n)):
            degrees = [rng.choice((1, 2, 2, 2, 3)) for _ in range(rng.randint(1, 4))]
            differentials[pos] = {
                tuple(sorted(rng.sample(range(n), min(k, n)))): rng.randint(1, 9)
                for k in degrees}
        table = _leibniz_table((pos, mask_of(mon), (c, -c))
                               for pos, terms in differentials.items()
                               for mon, c in terms.items())
        for _ in range(20):
            mon = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            expected = [(mask_of(m), sign * c)
                        for sign, m, c in leibniz_terms(mon, differentials)]
            assert list(_derivation(mask_of(mon), table)) == expected, (
                differentials, mon)
            kept += len(expected)
            overlapping += sum(1 for i in mon for term in differentials.get(i, ())
                               if set(term) & set(mon) - {i})
    assert kept > 1000 and overlapping > 1000


def test_form_masks_match_the_tuple_route():
    # Form keeps its terms on bitmasks; wedge, conjugate, component,
    # bidegree, integrate and str against merge_monomials and sort_with_sign
    # on the position tuples of the terms view, with polynomial coefficients
    # over coframes of 2 x 1 to 2 x 9 generators, every other one with the
    # first and last generator of its volume swapped
    rng = random.Random(79)
    table = VariableTable([("V", "V"), ("t", "tb")])
    overlapping = kept = 0
    for trial in range(120):
        n = rng.randint(1, 9)
        holo, anti = [f"x{i}" for i in range(n)], [f"xb{i}" for i in range(n)]
        volume = holo + anti
        if trial % 2:
            volume[0], volume[-1] = volume[-1], volume[0]
        cf = Coframe([Generator(g, (1, 0)) for g in holo]
                     + [Generator(g, (0, 1)) for g in anti],
                     table, conjugates=dict(zip(holo, anti)), volume=volume)
        top = tuple(range(2 * n))

        def random_terms():
            mons = [tuple(sorted(rng.sample(top, rng.randint(0, min(3, 2 * n)))))
                    for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.3:
                mons.append(top)
            return Form(cf, {mon: random_poly(rng, table) for mon in mons})

        a, b = random_terms(), random_terms()
        product = a.wedge(b)
        assert product.terms == tuple_wedge(a, b)
        kept += len(product.terms)
        overlapping += sum(1 for m1 in a.terms for m2 in b.terms if set(m1) & set(m2))
        assert a.conjugate().terms == tuple_conjugate(a)

        def bidegree(mon):
            return sum(p < n for p in mon), sum(p >= n for p in mon)

        slots = set(map(bidegree, a.terms))
        assert a.bidegree() == (min(slots) if len(slots) == 1 else None)
        degrees = set(map(len, a.terms))
        assert a.total_degree() == (min(degrees) if len(degrees) == 1 else None)
        for slot in slots | {(1, 0)}:
            assert a.component(*slot).terms == {
                mon: c for mon, c in a.terms.items() if bidegree(mon) == slot}
        sign = sort_with_sign([cf.position[g] for g in volume])[0]
        assert a.integrate() == (
            a.terms.get(top, table.zero()) * table.variable("V") * sign)
        order = sorted(a.terms.items(), key=lambda t: (len(t[0]), t[0]))
        assert str(a) == join_terms([str(Form(cf, {mon: c})) for mon, c in order])
    assert kept > 100 and overlapping > 100


def test_report_rows_are_pinned():
    # one sha256 over the report rows of every slot of the four theories of
    # chain_nilmanifold(6) and nakamura(1/2): a change to how the images, the
    # elimination or the rows are built must keep every integer
    lines = [repr((theory, slot, model.cohomology(theory, slot).rows))
             for model in (chain_nilmanifold(6), nakamura(Fraction(1, 2)).model)
             for theory in THEORIES
             for slot, _ in _slots_and_spaces(model, theory)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "52baf6c5bdd486e1a071e37d2b3e045262e34b9c6b0328ac28fcc1b6a6890908")


# chain_nilmanifold(3) is the Iwasawa manifold, d phi3 = -phi1 ^ phi2; its
# tables by rows p = 0..3 (Angella, J. Geom. Anal. 23, 2013)
IWASAWA = {
    BOTT_CHERN: [[1, 2, 3, 1], [2, 4, 6, 2], [3, 6, 8, 3], [1, 2, 3, 1]],
    AEPPLI: [[1, 3, 2, 1], [3, 8, 6, 3], [2, 6, 4, 2], [1, 3, 2, 1]],
    DOLBEAULT: [[1, 2, 2, 1], [3, 6, 6, 3], [3, 6, 6, 3], [1, 2, 2, 1]],
}


def test_iwasawa_tables_by_ranks_and_by_rows():
    model = chain_nilmanifold(3)
    reports = [model.cohomology(DE_RHAM, k) for k in range(7)]
    assert [r.dimension for r in reports] == [1, 4, 8, 10, 8, 4, 1]
    assert [len(r.rows) for r in reports] == [1, 4, 8, 10, 8, 4, 1]
    for theory, table in IWASAWA.items():
        reports = [[model.cohomology(theory, (p, q)) for q in range(4)]
                   for p in range(4)]
        assert [[r.dimension for r in row] for row in reports] == table, theory
        assert [[len(r.rows) for r in row] for row in reports] == table, theory


def test_non_toral_nilmanifolds_fail_the_ddbar_count():
    # Hasegawa (Proc. AMS 106, 1989): a nilmanifold with the ddbar-lemma is
    # formal, hence a torus; so every non-abelian benchmark document and every
    # chain model fails the Angella-Tomassini count in some degree, and the
    # chain models in every degree 1..2n-1, while the torus holds in all
    gen = bench_generators()
    for n_closed in (2, 3):
        for seed in range(60):
            model = model_from_dict(
                gen.nilpotent_document(random.Random(seed), n_closed))
            assert any(model.differential_of(g.name)
                       for g in model.coframe.generators), (n_closed, seed)
            assert not all(model.ddbar_criterion(k).holds
                           for k in range(9)), (n_closed, seed)
    for n in range(3, 7):
        model = chain_nilmanifold(n)
        assert not any(model.ddbar_criterion(k).holds for k in range(1, 2 * n)), n
    model = torus(3)
    assert all(model.ddbar_criterion(k).holds for k in range(7))


def test_chain_nilmanifold_dimension_five():
    assert chain_betti_numbers(5) == [1, 4, 10, 18, 25, 28, 25, 18, 10, 4, 1]


def test_chain_nilmanifold_dimension_seven():
    assert chain_betti_numbers(7) == [1, 4, 12, 28, 52, 80, 104, 114,
                                      104, 80, 52, 28, 12, 4, 1]


@pytest.mark.parametrize("degree", [True, 2.0, "2"])
def test_de_rham_rejects_non_integer_degree(degree):
    with pytest.raises(ValueError, match="integer degree"):
        kodaira().cohomology(DE_RHAM, degree)


@pytest.mark.parametrize("slot", [1, "11", (True, 1), (1, 1.5), (1, 1, 0)])
def test_bigraded_theory_rejects_malformed_bidegree(slot):
    with pytest.raises(ValueError, match=r"bidegree pair \(p, q\)"):
        kodaira().cohomology(DOLBEAULT, slot)


# -- parameter handling --------------------------------------------------------------


def parameterized_model():
    cf = four_generator_coframe(variables=[("t", "tb")])
    t = cf.table.variable("t")
    return StructureModel(cf, {"g1": cf.monomial_form(("g1", "g3"), t)})


def test_unspecialized_parameters_rejected():
    model = parameterized_model()
    with pytest.raises(UnspecializedParameters):
        model.cohomology(DE_RHAM, 1)
    # a parameterized class vector is rejected even on a constant model
    flat = torus(2, parameters=[("t", "tb")])
    parameterized = flat.coframe.generator_form("x1").scaled(
        flat.table.variable("t")
    )
    with pytest.raises(UnspecializedParameters):
        flat.class_of(parameterized, DOLBEAULT, (1, 0))
    # declared but unused parameters do not block exact linear algebra
    assert flat.class_of(flat.coframe.generator_form("x1"), DOLBEAULT, (1, 0)) == (
        GaussianRational(1), GaussianRational(0),
    )


def test_parameterized_wedge_calculus_still_works():
    model = parameterized_model()
    g1 = model.coframe.generator_form("g1")
    assert not model.d(model.d(g1))


def test_memoized_reports_are_stable():
    model = kodaira()
    first = model.cohomology(DOLBEAULT, (1, 1))
    second = model.cohomology(DOLBEAULT, (1, 1))
    assert first is second


def test_euler_characteristic_vanishes():
    # alternating sum of invariant Betti numbers equals the alternating sum
    # of the space dimensions, which is (1-1)^N = 0
    for model in all_models():
        top = len(model.coframe.generators)
        total = sum(
            (-1) ** k * model.betti(k) for k in range(top + 1)
        )
        assert total == 0


def test_concurrent_cohomology_readers():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    serial = kodaira()
    slots = [(theory, slot) for theory in THEORIES
             for slot, _ in _slots_and_spaces(serial, theory)]

    def tables(model):
        return [[str(b) for b in model.cohomology(theory, slot).basis]
                for theory, slot in slots]

    expected = tables(serial)
    model = kodaira()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(tables, model) for _ in range(16)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
    assert (len(serial._row_cache), len(serial._d_row_cache)) == (68, 16)
    assert model._row_cache == serial._row_cache
    assert model._d_row_cache == serial._d_row_cache


def test_unknown_generator_in_differentials():
    from formbench.errors import UnknownVariable

    cf = four_generator_coframe()
    with pytest.raises(UnknownVariable):
        StructureModel(cf, {"nope": cf.form({("g1", "g3"): 1})})
