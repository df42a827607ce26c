import gc
import hashlib
import json
import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

import formbench.bbf as bbf
import formbench.scalars as scalars
from formbench.bbf import (
    AntisymmetricMatrix,
    GramMatrix,
    check_block_orthogonality,
    bilinear,
    gram_discrepancies,
    gram_matrix,
    make_symplectic,
    normalize_gram,
    pfaffian,
    product_q,
    q_sigma,
    standard_degree_two_basis,
    vanishing_identity,
)
from formbench.dga import StructureModel
from formbench.errors import (
    DegenerateSymplectic,
    ModelMismatch,
    NotClosed,
    OddSize,
    UnsupportedBasis,
)
from formbench.exterior import Coframe, Form, Generator
from formbench.expressions import parse_form
from formbench.models import (
    kodaira,
    kodaira_sigma,
    model_from_dict,
    torus,
    torus4_deformed,
)
from formbench.scalars import (
    GaussianRational,
    PolyScalar,
    ScalarFraction,
    VariableTable,
    substitute_fraction,
)
from support import (
    antisymmetric_rows,
    determinant,
    determinant_ring,
    fraction_quotient,
    gaussian,
    nonzero_gaussian,
    positions_of,
    random_closed_two_form,
    reference_pairing_kernel,
)

I = GaussianRational(0, 1)

PAIRS4 = list(combinations(range(1, 5), 2))


def random_lambda(rng, size):
    return {pair: gaussian(rng) for pair in combinations(range(1, size + 1), 2)}


def sigma_from_lambda(model, values):
    cf = model.coframe
    sigma = cf.zero_form()
    for (i, j), coeff in values.items():
        sigma = sigma + cf.monomial_form((f"x{i}", f"x{j}"), coeff)
    return sigma


def random_symplectic(rng, model):
    size = model.coframe.n_holomorphic
    while True:
        values = random_lambda(rng, size)
        sigma = sigma_from_lambda(model, values)
        try:
            return values, make_symplectic(model, sigma)
        except DegenerateSymplectic:
            continue


# -- Pfaffians ---------------------------------------------------------------------


def test_pfaffian_standard_block():
    table = VariableTable([])
    J = AntisymmetricMatrix(4, {(1, 2): 1, (3, 4): 1}, table)
    assert pfaffian(J) == table.one()


def test_pfaffian_symbolic_expansion():
    table = VariableTable(
        [(f"l{i}{j}", f"lb{i}{j}") for i, j in PAIRS4]
    )
    matrix = AntisymmetricMatrix(
        4, {(i, j): table.variable(f"l{i}{j}") for i, j in PAIRS4}, table
    )
    expected = (
        table.monomial({"l12": 1, "l34": 1})
        - table.monomial({"l13": 1, "l24": 1})
        + table.monomial({"l14": 1, "l23": 1})
    )
    assert pfaffian(matrix) == expected


def test_pfaffian_squares_to_determinant():
    rng = random.Random(61)
    table = VariableTable([])
    for _ in range(10):
        entries = {
            (i, j): gaussian(rng) for i, j in combinations(range(1, 7), 2)
        }
        matrix = AntisymmetricMatrix(6, entries, table)
        pf = pfaffian(matrix).constant_value()
        det = determinant([[value.constant_value() for value in row]
                           for row in antisymmetric_rows(matrix)])
        assert pf * pf == det


def test_pfaffian_squares_to_determinant_symbolically():
    table = VariableTable([(f"l{i}{j}", f"lb{i}{j}") for i, j in PAIRS4])
    matrix = AntisymmetricMatrix(
        4, {(i, j): table.variable(f"l{i}{j}") for i, j in PAIRS4}, table
    )
    pf = pfaffian(matrix)
    det = determinant_ring(antisymmetric_rows(matrix), table.one())
    assert pf * pf == det


def test_pfaffian_odd_size():
    with pytest.raises(OddSize):
        pfaffian(AntisymmetricMatrix(3, {}, VariableTable([])))


# -- symplectic spaces ----------------------------------------------------------------


def test_make_symplectic_standard():
    model = torus(4)
    sigma = sigma_from_lambda(model, {(1, 2): GaussianRational(1),
                                      (3, 4): GaussianRational(1)})
    space = make_symplectic(model, sigma)
    assert space.n == 2
    assert space.mu == model.table.constant(2)
    assert space.nu[(1, 2)] == model.table.one()
    assert space.nu[(3, 4)] == model.table.one()
    assert space.nu[(1, 3)] == model.table.zero()


def test_make_symplectic_rejects_degenerate():
    model = torus(4)
    with pytest.raises(DegenerateSymplectic):
        make_symplectic(model, sigma_from_lambda(model, {(1, 2): GaussianRational(1)}))
    with pytest.raises(ValueError):
        make_symplectic(model, model.coframe.monomial_form(("x1", "xb1")))
    odd = torus(3)
    with pytest.raises(DegenerateSymplectic):
        make_symplectic(odd, odd.coframe.monomial_form(("x1", "x2")))


def test_make_symplectic_rejects_non_closed():
    table = VariableTable([("V", "V")])
    gens = [
        Generator("g1", (1, 0)),
        Generator("g2", (1, 0)),
        Generator("g3", (0, 1)),
        Generator("g4", (0, 1)),
    ]
    cf = Coframe(gens, table, volume=["g1", "g2", "g3", "g4"])
    model = StructureModel(cf, {"g2": cf.form({("g2", "g3"): 1})})
    with pytest.raises(NotClosed):
        make_symplectic(model, cf.monomial_form(("g1", "g2")))


def test_nu_is_complementary_lambda_symbolically():
    pairs = PAIRS4
    model = torus(4, parameters=[(f"l{i}{j}", f"lb{i}{j}") for i, j in pairs])
    table = model.table
    sigma = sigma_from_lambda(
        model, {(i, j): table.variable(f"l{i}{j}") for i, j in pairs}
    )
    space = make_symplectic(model, sigma)
    complement = {
        (1, 2): "l34", (1, 3): "l24", (1, 4): "l23",
        (2, 3): "l14", (2, 4): "l13", (3, 4): "l12",
    }
    for pair, name in complement.items():
        assert space.nu[pair] == table.variable(name)
    expected_mu = 2 * (
        table.monomial({"l12": 1, "l34": 1})
        - table.monomial({"l13": 1, "l24": 1})
        + table.monomial({"l14": 1, "l23": 1})
    )
    assert space.mu == expected_mu


def test_mu_equals_factorial_times_pfaffian():
    rng = random.Random(67)
    factorial = {1: 1, 2: 2, 3: 6}
    for n, reps in ((1, 25), (2, 25), (3, 20)):
        model = torus(2 * n)
        for _ in range(reps):
            values, space = random_symplectic(rng, model)
            matrix = AntisymmetricMatrix(2 * n, values, model.table)
            assert space.mu == pfaffian(matrix) * factorial[n]


# -- the quadratic form -----------------------------------------------------------------


def test_q_examples():
    family = torus4_deformed()
    space = make_symplectic(family.model, family.sigma)
    table = family.model.table
    q = q_sigma(space, family.sigma_t)
    assert q == table.monomial({"t1": 1, "t2": 1, "t3": 1, "t4": 1, "V": 2}, -16)
    assert q_sigma(space, family.sigma) == table.zero()


def test_q_rejects_non_closed():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    with pytest.raises(NotClosed):
        q_sigma(space, model.coframe.monomial_form(("w2", "wb2")))


def test_rescaling_law():
    rng = random.Random(71)
    for n in (1, 2):
        model = torus(2 * n)
        for _ in range(12):
            values, space = random_symplectic(rng, model)
            c = nonzero_gaussian(rng)
            scaled = make_symplectic(model, space.sigma.scaled(c))
            alpha = random_closed_two_form(rng, model)
            factor = (c * c.conjugate()) ** (2 * n - 1)
            assert q_sigma(scaled, alpha) == q_sigma(space, alpha) * factor


def test_rescaling_factor_64_for_doubling():
    model = torus(4)
    sigma = sigma_from_lambda(model, {(1, 2): GaussianRational(1),
                                      (3, 4): GaussianRational(1)})
    space = make_symplectic(model, sigma)
    doubled = make_symplectic(model, sigma.scaled(2))
    rng = random.Random(73)
    alpha = random_closed_two_form(rng, model)
    assert q_sigma(doubled, alpha) == q_sigma(space, alpha) * 64


def test_polarization_identity():
    rng = random.Random(79)
    for n in (1, 2):
        model = torus(2 * n)
        for _ in range(30):
            _, space = random_symplectic(rng, model)
            alpha = random_closed_two_form(rng, model)
            assert bilinear(space, alpha, alpha) == q_sigma(space, alpha)


def test_bilinear_symmetry():
    rng = random.Random(83)
    model = torus(4)
    for _ in range(30):
        _, space = random_symplectic(rng, model)
        psi = random_closed_two_form(rng, model)
        eta = random_closed_two_form(rng, model)
        assert bilinear(space, psi, eta) == bilinear(space, eta, psi)


def test_two_torus_bilinear_is_half_integral():
    # on a surface the normalized pairing is (1/2) I[psi eta]
    rng = random.Random(89)
    model = torus(2)
    v = model.coframe.volume_variable
    for _ in range(25):
        _, space = random_symplectic(rng, model)
        psi = random_closed_two_form(rng, model)
        eta = random_closed_two_form(rng, model)
        inv = ScalarFraction(model.table.one(), space.mu * space.mu.conjugate())
        normalized = substitute_fraction(bilinear(space, psi, eta), v, inv)
        direct = substitute_fraction(
            (psi.wedge(eta).integrate() * Fraction(1, 2)), v, inv
        )
        assert normalized == direct


def test_sigma_lies_on_the_period_domain():
    # q(sigma) = 0 and, at V = 1/(mu*mub), q(sigma, sigma_bar) = 1/2: on
    # Kodaira the value is the unreduced mu^2 mub^2 / (2 mu^2 mub^2)
    cases = [(torus(2), {("x1", "x2"): 1}),
             (torus(4), {("x1", "x2"): 1, ("x3", "x4"): 1}), (kodaira(), None)]
    for model, terms in cases:
        sigma = model.coframe.form(terms) if terms else kodaira_sigma(model)
        space = make_symplectic(model, sigma)
        table = model.table
        assert q_sigma(space, sigma) == table.zero()
        inv = ScalarFraction(table.one(), space.mu * space.mu.conjugate())
        value = substitute_fraction(bilinear(space, sigma, sigma.conjugate()),
                                    model.coframe.volume_variable, inv)
        assert value == Fraction(1, 2)
    mu, mub = table.variable("mu"), table.variable("mub")
    assert value.numerator * 2 == value.denominator == (mu * mub) ** 2 * 2


# -- Gram matrices -------------------------------------------------------------------


def expected_two_torus_gram(space):
    one = space.model.table.one()
    half = ScalarFraction(one, space.mu * space.mu.conjugate() * 2)
    signs = {(0, 5): 1, (1, 4): -1, (2, 3): 1, (3, 2): 1, (4, 1): -1, (5, 0): 1}
    return {
        (i, j): half * signs[(i, j)] if (i, j) in signs else ScalarFraction(
            space.model.table.zero()
        )
        for i in range(6)
        for j in range(6)
    }


def test_two_torus_gram_closed_form_pattern():
    rng = random.Random(97)
    model = torus(2)
    basis = standard_degree_two_basis(model)
    for _ in range(20):
        mu = nonzero_gaussian(rng)
        space = make_symplectic(
            model, model.coframe.monomial_form(("x1", "x2"), mu)
        )
        oracle = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
        closed = gram_matrix(space, basis, mode="closed_form")
        assert oracle.matches(closed)
        expected = expected_two_torus_gram(space)
        for i in range(6):
            for j in range(6):
                assert closed.entries[i][j] == expected[(i, j)]


def expected_x_block(values, mu):
    """The closed-form (2,0) x (0,2) block from pair data: epsilon signs times
    complementary coefficients over 2*mu*mub."""
    complement = {
        (1, 2): (3, 4), (1, 3): (2, 4), (1, 4): (2, 3),
        (2, 3): (1, 4), (2, 4): (1, 3), (3, 4): (1, 2),
    }
    def eps(pair):
        return -1 if sum(pair) % 2 else 1
    denom = mu * mu.conjugate() * 2
    block = {}
    for r, pr in enumerate(PAIRS4):
        for c, pc in enumerate(PAIRS4):
            value = (
                values[complement[pr]]
                * values[complement[pc]].conjugate()
                * eps(pr) * eps(pc)
            )
            block[(r, c)] = (value, denom)
    return block


def test_four_torus_gram_blocks_random():
    rng = random.Random(101)
    model = torus(4)
    basis = standard_degree_two_basis(model)
    table = model.table
    for _ in range(12):
        values, space = random_symplectic(rng, model)
        oracle = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
        closed = gram_matrix(space, basis, mode="closed_form")
        assert oracle.matches(closed)
        assert oracle.is_symmetric()
        mu = space.mu.constant_value()
        x_block = expected_x_block(values, mu)

        def as_fraction(pair):
            return ScalarFraction(table.constant(pair[0]), table.constant(pair[1]))

        for r in range(6):
            for c in range(6):
                # upper-right block is X; lower-left is its transpose
                assert oracle.entries[r][c + 22] == as_fraction(x_block[(r, c)])
                assert oracle.entries[r + 22][c] == as_fraction(x_block[(c, r)])
        # block-zero pattern: (2,0) and (0,2) pair to zero among themselves
        for r in range(6):
            for c in range(6):
                assert not oracle.entries[r][c]
                assert not oracle.entries[r + 22][c + 22]
            for c in range(16):
                assert not oracle.entries[r][6 + c]
                assert not oracle.entries[6 + c][r]
                assert not oracle.entries[r + 22][6 + c]
                assert not oracle.entries[6 + c][r + 22]


def test_four_torus_gram_symbolic():
    pairs = PAIRS4
    model = torus(4, parameters=[(f"l{i}{j}", f"lb{i}{j}") for i, j in pairs])
    table = model.table
    sigma = sigma_from_lambda(
        model, {(i, j): table.variable(f"l{i}{j}") for i, j in pairs}
    )
    space = make_symplectic(model, sigma)
    basis = standard_degree_two_basis(model)
    oracle = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
    closed = gram_matrix(space, basis, mode="closed_form")
    assert oracle.matches(closed)
    assert oracle.is_symmetric()


def kodaira_oracle_gram():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    return space, gram_matrix(space, model.cohomology("de_rham", 2).basis)


def formal_pair_space(seed=131, formal=(2, 4), dim=4):
    # a torus sigma with one coefficient left formal, as in the gram benchmark
    model = torus(dim, parameters=[("l", "lb")])
    values = random_lambda(random.Random(seed), dim)
    values[formal] = model.table.variable("l")
    return make_symplectic(model, sigma_from_lambda(model, values))


def formal_pair_oracle_gram(seed=131, formal=(2, 4), dim=4):
    space = formal_pair_space(seed, formal, dim)
    return space, gram_matrix(space, standard_degree_two_basis(space.model))


def mixed_degree_gram():
    # numerators of V-degrees 0, 1 and 2 and one zero, over a denominator with V
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    table = model.table
    v, mu, mub = (table.variable(name) for name in ("V", "mu", "mub"))
    numerators = ((mu * 3 + I, v * mu - 2), (v * v * I + v, table.zero()))
    return space, GramMatrix((), numerators, v * mu + mub * 5)


def empty_gram():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    return space, GramMatrix((), (), model.table.variable("V") + 1)


@pytest.mark.parametrize(
    "make_gram",
    [kodaira_oracle_gram, formal_pair_oracle_gram, mixed_degree_gram, empty_gram],
)
def test_normalize_gram_matches_substitute_and_divide(make_gram):
    space, gram = make_gram()
    inv = ScalarFraction(space.model.table.one(), space.mu * space.mu.conjugate())
    normalized = normalize_gram(space, gram)
    assert normalized.size == gram.size
    assert "V" not in normalized.denominator.variables_used()
    for row, normalized_row in zip(gram.entries, normalized.entries):
        for entry, value in zip(row, normalized_row):
            assert value == fraction_quotient(
                substitute_fraction(entry.numerator, "V", inv),
                substitute_fraction(entry.denominator, "V", inv),
            )
            if not entry:
                assert str(value) == "0"


def test_gram_closed_form_rejects_unsupported():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    basis = [rep for rep in model.cohomology("de_rham", 2).basis]
    with pytest.raises(UnsupportedBasis):
        gram_matrix(space, basis, mode="closed_form")
    flat = torus(2)
    flat_space = make_symplectic(flat, flat.coframe.monomial_form(("x1", "x2")))
    doubled = [form.scaled(2) for form in standard_degree_two_basis(flat)]
    with pytest.raises(UnsupportedBasis):
        gram_matrix(flat_space, doubled, mode="closed_form")
    foreign = standard_degree_two_basis(torus(2))
    with pytest.raises(ModelMismatch, match="^basis form belongs to a different model$"):
        gram_matrix(flat_space, foreign, mode="closed_form")
    with pytest.raises(ValueError):
        gram_matrix(flat_space, standard_degree_two_basis(flat), mode="nope")


def test_kodaira_gram_antidiagonal():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    basis = list(model.cohomology("de_rham", 2).basis)
    gram = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
    half = ScalarFraction(
        model.table.one(), space.mu * space.mu.conjugate() * 2
    )
    for i in range(4):
        for j in range(4):
            expected = half if i + j == 3 else 0
            assert gram.entries[i][j] == expected


def test_block_orthogonality():
    rng = random.Random(103)
    for model in (torus(2), torus(4)):
        _, space = random_symplectic(rng, model)
        report = check_block_orthogonality(
            gram_matrix(space, standard_degree_two_basis(model)))
        assert report.ok
        assert report.pairs_checked > 0
    # single stated pair on the 4-torus
    model = torus(4)
    _, space = random_symplectic(rng, model)
    cf = model.coframe
    value = bilinear(space, cf.monomial_form(("x1", "x2")),
                     cf.monomial_form(("x1", "x3")))
    assert value == model.table.zero()


def unit_torus4_gram():
    model = torus(4)
    sigma = sigma_from_lambda(model, {(1, 2): GaussianRational(1),
                                      (3, 4): GaussianRational(1)})
    return gram_matrix(make_symplectic(model, sigma),
                       standard_degree_two_basis(model))


def test_block_orthogonality_names_a_planted_entry():
    gram = unit_torus4_gram()
    report = check_block_orthogonality(gram)
    # 28^2 entries less the (1,1) block and both (2,0)/(0,2) blocks
    assert report.ok
    assert report.pairs_checked == 28 ** 2 - 16 ** 2 - 2 * 6 ** 2
    table = gram.basis[0].coframe.table
    numerators = [list(row) for row in gram.numerators]
    numerators[0][6] = table.constant(3)  # x1^x2 against x1^xb1
    report = check_block_orthogonality(
        GramMatrix(gram.basis, tuple(map(tuple, numerators)), table.constant(2)))
    # the violating entry is rendered over the shared denominator
    assert report.violations == (("x1^x2", "x1^xb1", "(3) / (2)"),)


def test_block_orthogonality_on_kodaira_de_rham_basis():
    _, gram = kodaira_oracle_gram()
    assert [form.bidegree() for form in gram.basis] == [
        (2, 0), (1, 1), (1, 1), (0, 2)]
    report = check_block_orthogonality(gram)
    assert report.ok
    assert report.pairs_checked == 4 ** 2 - 2 ** 2 - 2


def test_block_orthogonality_reads_entries_only(monkeypatch):
    gram = unit_torus4_gram()
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Form, "wedge")
    counted(Form, "integrate")
    counted(bbf, "_pairing_kernel")
    assert check_block_orthogonality(gram).ok
    assert calls == []


# -- identities -----------------------------------------------------------------------


def test_vanishing_identity_randomized():
    rng = random.Random(107)
    for n, reps in ((1, 12), (2, 12)):
        model = torus(2 * n)
        for _ in range(reps):
            _, space = random_symplectic(rng, model)
            lam = gaussian(rng)
            mubar = gaussian(rng)
            alpha11 = random_closed_two_form(rng, model).component(1, 1)
            check = vanishing_identity(space, lam, alpha11, mubar)
            assert check.lhs == check.rhs


def test_vanishing_identity_at_sigma():
    model = torus(4)
    space = make_symplectic(
        model, sigma_from_lambda(model, {(1, 2): GaussianRational(1),
                                         (3, 4): GaussianRational(1)})
    )
    check = vanishing_identity(space, 1, model.coframe.zero_form(), 0)
    assert check.lhs == model.table.zero()
    assert check.rhs == model.table.zero()


def test_vanishing_identity_intermediate():
    # q(alpha) = lam * mubar * I1^2 + (n/2) I1 I[alpha11^2 (s sb)^(n-1)]
    rng = random.Random(109)
    model = torus(4)
    for _ in range(10):
        _, space = random_symplectic(rng, model)
        lam = gaussian(rng)
        mubar = gaussian(rng)
        alpha11 = random_closed_two_form(rng, model).component(1, 1)
        alpha = (
            space.sigma.scaled(lam) + alpha11 + space.sigma_bar.scaled(mubar)
        )
        i1 = space.volume
        inner = (
            alpha11.wedge(alpha11)
            .wedge(space.sigma_pow[1])
            .wedge(space.sigma_bar_pow[1])
            .integrate()
        )
        expected = i1 * i1 * (lam * mubar) + i1 * inner * Fraction(2, 2)
        assert q_sigma(space, alpha) == expected


def test_vanishing_identity_validates_inputs():
    model = torus(4)
    space = make_symplectic(
        model, sigma_from_lambda(model, {(1, 2): GaussianRational(1),
                                         (3, 4): GaussianRational(1)})
    )
    with pytest.raises(ValueError):
        vanishing_identity(space, 1, model.coframe.monomial_form(("x1", "x2")), 0)


def test_vanishing_identity_rejects_a_non_closed_alpha():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    alpha11 = model.coframe.monomial_form(("w2", "wb2"))
    assert model.d(alpha11)
    with pytest.raises(NotClosed, match="^alpha is not d-closed$"):
        vanishing_identity(space, 1, alpha11, 0)


def test_product_formula():
    table = VariableTable(
        [("q1", None), ("q2", None), ("p1s", None), ("p1sb", None),
         ("p2s", None), ("p2sb", None)]
    )
    var = table.variable
    value = product_q(var("q1"), var("q2"), var("p1s"), var("p1sb"),
                      var("p2s"), var("p2sb"))
    expanded = (
        8 * var("q1") + 8 * var("q2")
        - 4 * var("p1sb") * var("p1s")
        + 4 * var("p1sb") * var("p2s")
        + 4 * var("p2sb") * var("p1s")
        - 4 * var("p2sb") * var("p2s")
    )
    assert value == expanded
    zero = GaussianRational(0)
    one = GaussianRational(1)
    assert product_q(zero, zero, zero, one, zero, one) == zero


def test_product_kummer_surrogate():
    model = torus(2, parameters=[("t", "tb")])
    cf = model.coframe
    table = model.table
    t = table.variable("t")
    space = make_symplectic(model, cf.monomial_form(("x1", "x2")))
    phi1 = (
        cf.monomial_form(("x1", "x2"))
        + cf.monomial_form(("x1", "xb1")).scaled(t)
        - cf.monomial_form(("x2", "xb2")).scaled(t)
        - cf.monomial_form(("xb1", "xb2")).scaled(t * t)
    ).scaled(1 + t)
    v_one = {"V": 1}
    q1 = q_sigma(space, phi1).substitute(v_one)
    assert q1 == table.zero()
    p1s = phi1.wedge(space.sigma).integrate().substitute(v_one)
    p1sb = phi1.wedge(space.sigma_bar).integrate().substitute(v_one)
    assert p1s == -(t ** 2) * (1 + t)
    assert p1sb == 1 + t
    value = product_q(q1, table.zero(), p1s, p1sb, table.zero(), table.one())
    assert value == table.monomial({"t": 3}, 4) + table.monomial({"t": 4}, 4)
    specialized = value.substitute({"t": Fraction(1, 3)})
    assert specialized == table.constant(Fraction(16, 81))
    assert value.substitute({"t": 0}) == table.zero()


def test_four_torus_family_integrals():
    family = torus4_deformed()
    space = make_symplectic(family.model, family.sigma)
    table = family.model.table
    v = table.variable("V")
    t = {k: table.variable(f"t{k}") for k in range(1, 5)}
    st = family.sigma_t
    assert space.volume == 4 * v
    assert (
        st.wedge(st).wedge(space.sigma).wedge(space.sigma_bar).integrate()
        == 4 * t[1] * t[2] * (1 - t[3] * t[4]) * v
    )
    assert (
        st.wedge(space.sigma).wedge(space.sigma_bar_pow[2]).integrate() == 4 * v
    )
    assert (
        st.wedge(space.sigma_pow[2]).wedge(space.sigma_bar).integrate()
        == 4 * t[1] * t[2] * v
    )


def test_q_equals_polarization_symbolically():
    family = torus4_deformed()
    space = make_symplectic(family.model, family.sigma)
    st = family.sigma_t
    assert bilinear(space, st, st) == q_sigma(space, st)


def test_gram_discrepancies_flags_entries():
    from formbench.bbf import gram_discrepancies

    model = torus(2)
    basis = standard_degree_two_basis(model)
    space = make_symplectic(model, model.coframe.monomial_form(("x1", "x2")))
    oracle = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
    closed = gram_matrix(space, basis, mode="closed_form")
    assert gram_discrepancies(oracle, closed) == []
    assert oracle.denominator != closed.denominator
    # perturb one closed-form numerator and fill one zero entry: the audit
    # names both, by one product with the quotient of the denominators and
    # by zero pattern against the oracle, and by numerators alone against
    # the closed form's own denominator
    rows = [list(row) for row in closed.numerators]
    assert not rows[0][0]
    rows[0][5] = rows[0][5] * 3
    rows[0][0] = rows[0][5]
    broken = GramMatrix(closed.basis, tuple(map(tuple, rows)), closed.denominator)
    assert gram_discrepancies(oracle, broken) == [(0, 0), (0, 5)]
    assert gram_discrepancies(closed, broken) == [(0, 0), (0, 5)]


def test_nu_reconstructs_sigma_power():
    # sigma^(n-1) = sum nu_(ij) x1^..^xhat_i^..^xhat_j^..^x_(2n), checked
    # beyond the complementary-coefficient case n = 2
    rng = random.Random(113)
    for n in (2, 3):
        model = torus(2 * n)
        cf = model.coframe
        names = [g.name for g in cf.generators]
        for _ in range(5):
            _, space = random_symplectic(rng, model)
            rebuilt = cf.zero_form()
            for (i, j), coeff in space.nu.items():
                monomial = tuple(
                    names[p] for p in range(2 * n) if p not in (i - 1, j - 1)
                )
                rebuilt = rebuilt + cf.monomial_form(monomial, coeff)
            assert rebuilt == space.sigma.power(n - 1)


NILPOTENT_DIM4 = {
    "variables": [
        {"name": "V", "conjugate": "V"},
        {"name": "l", "conjugate": "lb"},
    ],
    "generators": [
        {"name": f"z{k}", "bidegree": [1, 0], "conjugate": f"zb{k}"}
        for k in range(1, 5)
    ] + [
        {"name": f"zb{k}", "bidegree": [0, 1], "conjugate": f"z{k}"}
        for k in range(1, 5)
    ],
    "differentials": [
        {"generator": "z4",
         "terms": [{"coefficient": "1", "monomial": ["z1", "z2"]}]},
        {"generator": "zb4",
         "terms": [{"coefficient": "1", "monomial": ["zb1", "zb2"]}]},
    ],
    "volume": [f"z{k}" for k in range(1, 5)] + [f"zb{k}" for k in range(1, 5)],
}


def _nilpotent_dim4_space():
    model = model_from_dict(NILPOTENT_DIM4)
    sigma = parse_form("z1^z4 + l*z2^z3 + (1+2i)*z1^z3", model.coframe)
    return model, make_symplectic(model, sigma)


MULTI_TERM_BASIS = (
    "x1^x2 + l*x3^xb4",
    "x1^xb1 - 2*x2^xb2 + x3^x4",
    "(1+i)*x1^x3 + xb1^xb2 - lb*x2^xb3",
    "l*x2^xb3 + lb*x3^xb2",
    "x4^xb4 + xb3^xb4 + x1^x4",
    "x1^x4 - x2^x3 + xb1^xb4",
)


def _multi_term_torus4_space(swap):
    # the 4-torus as a model document; a swapped volume flips the sign of
    # every integral
    holo = [f"x{k}" for k in range(1, 5)]
    anti = [f"xb{k}" for k in range(1, 5)]
    volume = holo + anti
    if swap:
        volume[0], volume[1] = volume[1], volume[0]
    model = model_from_dict({
        "variables": [{"name": "V", "conjugate": "V"},
                      {"name": "l", "conjugate": "lb"}],
        "generators": [
            {"name": name, "bidegree": [1, 0], "conjugate": mate}
            for name, mate in zip(holo, anti)
        ] + [
            {"name": name, "bidegree": [0, 1], "conjugate": mate}
            for name, mate in zip(anti, holo)
        ],
        "differentials": [],
        "volume": volume,
    })
    cf = model.coframe
    assert cf.volume_sign == (-1 if swap else 1)
    space = make_symplectic(
        model, parse_form("x1^x2 + l*x3^x4 + (1+2i)*x1^x3", cf))
    return space, [parse_form(text, cf) for text in MULTI_TERM_BASIS]


# multi-term forms with a formal pair on tori of complex dimension 2 (n = 1)
# and 6 (n = 3), where the pairing kernel's complement signs differ from n = 2
FORMAL_PAIR_TORI = {
    "torus2_multi_term": (2, "(2-i)*x1^x2", (
        "x1^x2 + l*x1^xb1",
        "x1^xb2 - xb1^xb2",
        "(1+i)*x2^xb1 + lb*x2^xb2 + x1^x2",
    )),
    "torus6_multi_term": (6, "x1^x2 + (2-i)*x3^x4 + l*x5^x6 + 3*x1^x4 - x2^x4", (
        "x1^x2 + l*x3^xb4 + xb5^xb6",
        "x1^xb1 - 2*x2^xb2 + x5^x6 + lb*x4^xb3",
        "(1+i)*x1^x3 + xb1^xb2 - lb*x2^xb3 + x6^xb6",
        "x3^x4 + xb1^xb2 + x5^xb5",
        "l*x4^xb6 + lb*x6^xb4 + xb3^xb4 - xb1^xb3",
    )),
}


@pytest.mark.parametrize(
    "case", ["kodaira", "nilpotent_dim4", "torus4_multi_term", "torus4_swapped_volume",
             *FORMAL_PAIR_TORI])
def test_gram_oracle_is_polarization_of_q(case):
    # n = 1 for kodaira and torus2, so the (1-n) cross term vanishes; n = 2
    # or 3 elsewhere
    if case in FORMAL_PAIR_TORI:
        dim, sigma, texts = FORMAL_PAIR_TORI[case]
        model = torus(dim, parameters=[("l", "lb")])
        space = make_symplectic(model, parse_form(sigma, model.coframe))
        assert space.n == dim // 2
        basis = [parse_form(text, model.coframe) for text in texts]
    elif case == "kodaira":
        model = kodaira()
        space = make_symplectic(model, kodaira_sigma(model))
        basis = list(model.cohomology("de_rham", 2).basis)
    elif case == "nilpotent_dim4":
        model, space = _nilpotent_dim4_space()
        assert space.n == 2
        basis = list(model.cohomology("de_rham", 2).basis)
    else:
        space, basis = _multi_term_torus4_space(case == "torus4_swapped_volume")
    gram = gram_matrix(space, basis, mode="oracle")
    q = [q_sigma(space, form) for form in basis]
    for i, first in enumerate(basis):
        assert gram.entries[i][i] == q[i]
        for j in range(i + 1, len(basis)):
            polar = q_sigma(space, first + basis[j]) - q[i] - q[j]
            assert gram.entries[i][j] * 2 == polar, (i, j)
            assert gram.entries[j][i] * 2 == polar, (j, i)


@pytest.mark.parametrize("case", [
    "torus2", "torus4", "torus6", "torus8", "torus4_swapped_volume", "kodaira"])
def test_pairing_kernel_matches_the_per_pair_route(case):
    # the three splits of each W0 term's four free positions, signed once
    # per term, give the rows of two signs per (W0 term, monomial) pair
    if case == "kodaira":
        model = kodaira()
        space = make_symplectic(model, kodaira_sigma(model))
    elif case == "torus4_swapped_volume":
        space, _ = _multi_term_torus4_space(True)
    else:
        space = formal_pair_space(formal=(1, 2), dim=int(case[5:]))
    dual_rows, end_rows = bbf._pairing_kernel(space)
    assert dual_rows and (end_rows or space.n == 1)
    # the kernel keys its rows by monomial masks, the reference by tuples
    dual_rows = {positions_of(m): {positions_of(k): v for k, v in row.items()}
                 for m, row in dual_rows.items()}
    end_rows = {positions_of(k): row for k, row in end_rows.items()}
    assert (dual_rows, end_rows) == reference_pairing_kernel(space)


def test_pairing_kernel_signs_once_per_w0_term(monkeypatch):
    space = formal_pair_space()
    s, sb = space.sigma_pow, space.sigma_bar_pow
    terms = [len(form.terms) for form in (
        s[1].wedge(sb[1]), s[1].wedge(sb[2]), s[2].wedge(sb[1]))]
    signs = _counting(monkeypatch, bbf, ["product_sign"])
    gram_matrix(space, standard_degree_two_basis(space.model), mode="oracle")
    # one sign per W0 term and one per end-row term
    assert signs == [sum(terms)] == [36 + 6 + 6]


def test_gram_oracle_wedges_a_fixed_number_of_times(monkeypatch):
    model = torus(4)
    _, space = random_symplectic(random.Random(137), model)
    basis = standard_degree_two_basis(model)
    calls = {"wedge": 0, "integrate": 0, "__mul__": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Form, "wedge")
    counted(Form, "integrate")
    gram_matrix(space, basis[:1], mode="oracle")
    # the pairing kernel's three wedges of sigma powers, whatever the basis
    assert (calls["wedge"], calls["integrate"]) == (3, 0)
    gram = gram_matrix(space, basis, mode="oracle")
    assert (calls["wedge"], calls["integrate"]) == (6, 0)
    # the entries that vanish by bidegree cost no product when normalized
    assert sum(not entry for row in gram.numerators for entry in row) == 568
    counted(PolyScalar, "__mul__")
    zero, value = gram.numerators[0][0], gram.numerators[0][22]
    assert not zero and value

    def normalized(numerators):
        calls["__mul__"] = 0
        result = normalize_gram(space, GramMatrix(
            basis[:len(numerators)], numerators, gram.denominator))
        return calls["__mul__"], result

    alone, alone_gram = normalized(((value,),))
    padded, padded_gram = normalized(((value, zero), (zero, zero)))
    assert alone > 0 and padded == alone
    assert padded_gram.render() == [[str(alone_gram.entries[0][0]), "0"], ["0", "0"]]
    assert padded_gram.numerators[1][1] is zero


def test_gram_oracle_checks_each_basis_form():
    model = kodaira()
    space = make_symplectic(model, kodaira_sigma(model))
    basis = list(model.cohomology("de_rham", 2).basis)
    not_closed = model.coframe.monomial_form(("w2", "wb2"))
    with pytest.raises(NotClosed, match="^basis form is not d-closed$"):
        gram_matrix(space, basis + [not_closed], mode="oracle")
    foreign = torus(2).coframe.monomial_form(("x1", "x2"))
    with pytest.raises(ModelMismatch, match="^basis form belongs to a different model$"):
        gram_matrix(space, [foreign] + basis, mode="oracle")


def _counting(monkeypatch, owner, names):
    """Wrap the named attributes of owner to count their calls in one
    shared counter."""
    calls = [0]
    for name in names:
        original = getattr(owner, name)

        def wrapper(*args, original=original):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_is_symmetric_compares_only_distinct_objects(monkeypatch):
    # a shared object at (i, j) and (j, i) needs no comparison; distinct
    # objects are still compared, equal or not
    space, oracle = formal_pair_oracle_gram()
    table = space.model.table
    calls = _counting(monkeypatch, PolyScalar, ["__eq__"])
    assert oracle.is_symmetric()
    shared = sum(row[j] is oracle.numerators[j][i]
                 for i, row in enumerate(oracle.numerators) for j in range(i))
    assert calls == [oracle.size * (oracle.size - 1) // 2 - shared] and shared > 300
    one, v = table.one(), table.variable("V")
    for rows, symmetric in ((((one, v), (v, one)), True),
                            (((one, v), (v * 1, one)), True),
                            (((one, v), (v * 2, one)), False),
                            (((one, v), (table.zero(), one)), False)):
        assert GramMatrix((), rows, one).is_symmetric() is symmetric


def test_gram_pipeline_removes_no_content(monkeypatch):
    # the benchmark's op: oracle, normalize_gram, closed form, matches and
    # is_symmetric on a 4-torus sigma with one formal pair
    removals = _counting(monkeypatch, scalars, ["without_content"])
    space, oracle = formal_pair_oracle_gram()
    normalized = normalize_gram(space, oracle)
    closed = gram_matrix(space, oracle.basis, mode="closed_form")
    assert normalized.matches(closed)
    assert normalized.is_symmetric()
    assert removals == [0]


def test_normalize_gram_clears_a_shared_denominator_once(monkeypatch):
    space, oracle = formal_pair_oracle_gram()
    value = oracle.numerators[0][22]
    products = _counting(monkeypatch, PolyScalar, ["__mul__", "__rmul__"])
    # mu*mub, its square and the oracle's unit denominator times that square
    normalized = normalize_gram(space, oracle)
    assert products == [3]
    products[0] = 0
    alone = normalize_gram(
        space, GramMatrix(oracle.basis[:1], ((value,),), oracle.denominator))
    assert products == [3]
    assert alone.entries[0][0] == normalized.entries[0][22]
    assert alone.denominator == normalized.denominator == (
        space.mu * space.mu.conjugate()) ** 2


def test_normalize_gram_splits_each_distinct_numerator_once(monkeypatch):
    # the oracle stores one object at (i, j) and (j, i) wherever a single
    # pairing term reaches both, and keeps it one when a holo x anti product
    # is added to both; normalize_gram splits and clears it once, and the
    # normalized matrix shares an object exactly where the oracle does
    space, oracle = formal_pair_oracle_gram()
    nonzero = [a for row in oracle.numerators for a in row if a]
    distinct = {id(a) for a in nonzero}
    assert (len(nonzero), len(distinct)) == (216, 108)
    splits = _counting(monkeypatch, PolyScalar, ["coefficients_in"])
    normalized = normalize_gram(space, oracle)
    assert splits == [len(distinct) + 1]  # and the denominator
    rows, done = oracle.numerators, normalized.numerators
    for i, j in combinations(range(oracle.size), 2):
        assert (rows[i][j] is rows[j][i]) == (done[i][j] is done[j][i])


def test_gram_check_makes_one_product_per_distinct_numerator(monkeypatch):
    space, oracle = formal_pair_oracle_gram()
    normalized = normalize_gram(space, oracle)
    quotient = space.mu * space.mu.conjugate() * Fraction(1, 2)
    products = _counting(monkeypatch, PolyScalar, ["__mul__", "__rmul__"])
    # 36 distinct nu*nu_bar products, their 36 multiples by n, mu*mub and
    # its double
    closed = gram_matrix(space, oracle.basis, mode="closed_form")
    assert products == [74]
    products[0] = 0
    # the closed form's 2*mu*mub divides (mu*mub)^2: one product per step
    # of the division, one per term of the quotient, then one product by
    # the quotient per distinct nonzero numerator object; the closed form
    # stores one object for (i, j) and (j, i)
    assert normalized.matches(closed)
    nonzero = [a for row in closed.numerators for a in row if a]
    distinct = {id(a) for a in nonzero}
    assert (len(nonzero), len(distinct)) == (216, 108)
    assert products == [len(quotient.ints) + len(distinct)] == [4 + 108]


def _shared_pair(gram):
    """The first (i, j), i < j, whose nonzero numerator object is also the
    one at (j, i)."""
    rows = gram.numerators
    return next((i, j) for i, j in combinations(range(gram.size), 2)
                if rows[i][j] and rows[i][j] is rows[j][i])


def _replaced(gram, positions, value):
    """gram with value at each of positions (one object for all of them)."""
    rows = [list(row) for row in gram.numerators]
    for i, j in positions:
        rows[i][j] = value
    return GramMatrix(gram.basis, tuple(map(tuple, rows)), gram.denominator)


def _rescaled_keeping_shares(gram, factor):
    """gram with each distinct numerator object times factor, made once, so
    the copy shares objects where gram does, over denominator * factor."""
    made = {}
    for a in chain.from_iterable(gram.numerators):
        if id(a) not in made:
            made[id(a)] = a * factor
    rows = tuple(tuple(made[id(a)] for a in row) for row in gram.numerators)
    return GramMatrix(gram.basis, rows, gram.denominator * factor)


def test_gram_discrepancies_reads_shared_numerators_once_each():
    # the cofactor products are memoized per numerator object; a position
    # whose partner shares that object is still compared on its own
    space, oracle = formal_pair_oracle_gram()
    normalized = normalize_gram(space, oracle)
    closed = gram_matrix(space, oracle.basis, mode="closed_form")
    i, j = _shared_pair(closed)
    shared = closed.numerators[i][j]
    table = space.model.table
    l, lb = table.variable("l"), table.variable("lb")
    left = _rescaled_keeping_shares(closed, l + 1)
    assert left.numerators[i][j] is left.numerators[j][i]
    for position in ((i, j), (j, i)):
        # the reference differs at one of the two positions: it is named
        # whether the shared candidate object was first read there or not
        broken = _replaced(normalized, [position], normalized.numerators[i][j] * 3)
        assert gram_discrepancies(broken, closed) == [position]
        assert not broken.matches(closed)
        # the same with the reference sharing: closed as the reference, so
        # its side carries the cofactor
        assert gram_discrepancies(closed, broken) == [position]
        # both sides scaled by unrelated factors and both sharing objects
        other = _rescaled_keeping_shares(
            _replaced(closed, [position], shared * 5), lb + 2)
        assert gram_discrepancies(left, other) == [position]
        assert not left.matches(other)
    # one wrong object shared by both positions: both are named
    both = _replaced(closed, [(i, j), (j, i)], shared * 7)
    assert gram_discrepancies(normalized, both) == [(i, j), (j, i)]
    assert gram_discrepancies(both, normalized) == [(i, j), (j, i)]
    assert gram_discrepancies(left, _rescaled_keeping_shares(both, lb + 2)) == [
        (i, j), (j, i)]
    assert gram_discrepancies(normalized, closed) == []
    # the same objects on both sides, over denominators that do not divide
    # each other: each side multiplies them by its own cofactor
    apart = [GramMatrix(closed.basis, closed.numerators, closed.denominator * f)
             for f in (l + 1, lb + 2)]
    assert gram_discrepancies(*apart) == [
        (r, c) for r, row in enumerate(closed.numerators)
        for c, a in enumerate(row) if a]


def test_closed_form_memo_is_freed_on_return():
    # the per-call product memos of the closed form, of normalize_gram and of
    # the comparison form no reference cycle, so a gram op leaves nothing
    # for the cyclic collector, also when matches stops at a difference
    space, oracle = formal_pair_oracle_gram()
    gc.collect()
    gc.disable()
    try:
        normalized = normalize_gram(space, oracle)
        closed = gram_matrix(space, oracle.basis, mode="closed_form")
        assert normalized.matches(closed)
        i, j = _shared_pair(closed)
        broken = _replaced(closed, [(i, j)], closed.numerators[i][j] * 3)
        assert not normalized.matches(broken)
        assert gram_discrepancies(broken, normalized) == [(i, j)]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gram_discrepancies_cross_multiplies_unrelated_denominators(monkeypatch):
    # equal entries over denominators that do not divide each other
    space, oracle = formal_pair_oracle_gram()
    closed = gram_matrix(space, oracle.basis, mode="closed_form")
    table = space.model.table
    l, lb = table.variable("l"), table.variable("lb")

    def rescaled(factor, rows=closed.numerators):
        return GramMatrix(closed.basis, tuple(tuple(a * factor for a in row)
                                              for row in rows),
                          closed.denominator * factor)

    left, right = rescaled(l + 1), rescaled(lb + 2)
    assert scalars._exact_quotient(left.denominator, right.denominator) is None
    assert scalars._exact_quotient(right.denominator, left.denominator) is None
    assert gram_discrepancies(left, right) == [] and left.matches(right)
    # plant a wrong nonzero entry, a filled zero and a sign flip
    rows = [list(row) for row in closed.numerators]
    planted = [(3, 24), (9, 9), (16, 18)]
    first = planted[0]
    assert rows[3][24] and not rows[9][9] and rows[16][18]
    rows[3][24] = rows[3][24] * 3
    rows[9][9] = rows[3][24]
    rows[16][18] = -rows[16][18]
    broken = rescaled(lb + 2, rows)
    assert gram_discrepancies(left, broken) == planted
    # matches stops at the first planted entry: two products per nonzero
    # entry up to it, row-major, and none in the two divisions, which fail
    # at their first step
    products = _counting(monkeypatch, PolyScalar, ["__mul__", "__rmul__"])
    assert not left.matches(broken)
    before = sum(bool(a) for i, row in enumerate(closed.numerators)
                 for j, a in enumerate(row) if (i, j) <= first)
    assert products == [2 * before]


def test_closed_form_zeros_render_as_zero():
    space, oracle = formal_pair_oracle_gram()
    one = space.model.table.one()
    closed = gram_matrix(space, oracle.basis, mode="closed_form")
    assert closed.denominator == space.mu * space.mu.conjugate() * 2
    zeros = [entry for row in closed.entries for entry in row if not entry]
    assert len(zeros) == 568
    for entry in zeros:
        assert (entry.numerator, entry.denominator) == (space.model.table.zero(), one)
        assert str(entry) == "0"
    # zeros sit where the normalized oracle has them, whatever their route
    normalized = normalize_gram(space, oracle).render()
    for closed_row, oracle_row in zip(closed.render(), normalized):
        assert [text == "0" for text in closed_row] == [text == "0" for text in oracle_row]


def test_gram_renders_are_pinned():
    # render() of the oracle, normalized and closed-form matrices of five
    # seeded formal-pair sigmas, one formal pair each: a change to how the
    # Gram matrices are built, normalized or compared must keep every
    # rendered entry byte for byte
    renders = []
    for seed, formal in zip(range(1, 6), PAIRS4):
        space, oracle = formal_pair_oracle_gram(seed, formal)
        closed = gram_matrix(space, oracle.basis, mode="closed_form")
        renders.append([gram.render()
                        for gram in (oracle, normalize_gram(space, oracle), closed)])
    digest = hashlib.sha256(json.dumps(renders).encode()).hexdigest()
    assert digest == (
        "0d993a9681fd24edbfac56dd73733ee7538e627006134fae7cf5798f203068b4")


def test_closed_form_matches_the_oracle_at_n_3_and_4():
    # the standard bases of the 6- and 8-torus (66 and 120 forms) with one
    # formal pair: the closed form agrees with the normalized oracle beyond
    # n = 2, and every rendered entry of the three matrices is pinned
    renders = []
    for dim, size in ((6, 66), (8, 120)):
        space, oracle = formal_pair_oracle_gram(dim=dim)
        assert (space.n, oracle.size) == (dim // 2, size)
        normalized = normalize_gram(space, oracle)
        closed = gram_matrix(space, oracle.basis, mode="closed_form")
        assert gram_discrepancies(normalized, closed) == []
        renders.append([gram.render() for gram in (oracle, normalized, closed)])
    digest = hashlib.sha256(json.dumps(renders).encode()).hexdigest()
    assert digest == (
        "e86408fcc359dec3576775c52c9e72706a4dafa0e31e955cd0f50243da5ab4ff")
