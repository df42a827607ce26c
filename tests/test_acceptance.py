"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison here is exact (structural equality of scalars, forms and
fractions); there are no tolerances anywhere.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from formbench.bbf import (
    AntisymmetricMatrix,
    bilinear,
    check_block_orthogonality,
    gram_matrix,
    make_symplectic,
    normalize_gram,
    pfaffian,
    product_q,
    q_sigma,
    standard_degree_two_basis,
    vanishing_identity,
)
from formbench.dga import DE_RHAM, DOLBEAULT
from formbench.grass import pluecker_curve
from formbench.models import (
    kodaira,
    kodaira_sigma,
    nakamura,
    torus,
    torus4_deformed,
)
from formbench.scalars import GaussianRational, ScalarFraction, VariableTable
from support import gaussian, nonzero_gaussian, random_closed_two_form, random_form

PAIRS4 = list(combinations(range(1, 5), 2))


def _verdict(name, failures):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"{name}: {failures}"


def _random_symplectic(rng, model):
    size = model.coframe.n_holomorphic
    cf = model.coframe
    while True:
        values = {
            pair: gaussian(rng) for pair in combinations(range(1, size + 1), 2)
        }
        sigma = cf.zero_form()
        for (i, j), coeff in values.items():
            sigma = sigma + cf.monomial_form((f"x{i}", f"x{j}"), coeff)
        try:
            return values, make_symplectic(model, sigma)
        except Exception:
            continue


def test_criterion_01_four_torus_deformation():
    failures = []
    start = time.perf_counter()
    family = torus4_deformed()
    space = make_symplectic(family.model, family.sigma)
    table = family.model.table
    v = table.variable("V")
    t = {k: table.variable(f"t{k}") for k in range(1, 5)}
    st = family.sigma_t
    integrals = {
        "I[(s sb)^2] = 4V": (space.volume, 4 * v),
        "I[st^2 s sb] = 4 t1 t2 (1 - t3 t4) V": (
            st.wedge(st).wedge(space.sigma).wedge(space.sigma_bar).integrate(),
            4 * t[1] * t[2] * (1 - t[3] * t[4]) * v,
        ),
        "I[st s sb^2] = 4V": (
            st.wedge(space.sigma).wedge(space.sigma_bar_pow[2]).integrate(),
            4 * v,
        ),
        "I[st s^2 sb] = 4 t1 t2 V": (
            st.wedge(space.sigma_pow[2]).wedge(space.sigma_bar).integrate(),
            4 * t[1] * t[2] * v,
        ),
    }
    for name, (computed, expected) in integrals.items():
        if computed != expected:
            failures.append(name)
    q = q_sigma(space, st)
    if q != table.monomial({"t1": 1, "t2": 1, "t3": 1, "t4": 1, "V": 2}, -16):
        failures.append("q(sigma_t) = -16 t1 t2 t3 t4 V^2")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("criterion 1: 4-torus deformation family", failures)


def test_criterion_02_two_torus_gram():
    failures = []
    rng = random.Random(2024)
    model = torus(2)
    basis = standard_degree_two_basis(model)
    signs = {(0, 5): 1, (1, 4): -1, (2, 3): 1, (3, 2): 1, (4, 1): -1, (5, 0): 1}
    for rep in range(10):
        mu = nonzero_gaussian(rng)
        space = make_symplectic(
            model, model.coframe.monomial_form(("x1", "x2"), mu)
        )
        oracle = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
        closed = gram_matrix(space, basis, mode="closed_form")
        half = ScalarFraction(
            model.table.one(), space.mu * space.mu.conjugate() * 2
        )
        for grid, label in ((oracle, "oracle"), (closed, "closed form")):
            for i in range(6):
                for j in range(6):
                    expected = half * signs[(i, j)] if (i, j) in signs else 0
                    if grid.entries[i][j] != expected:
                        failures.append(f"rep {rep} {label} entry {(i, j)}")
    _verdict("criterion 2: 2-torus Gram matrix (10 random mu, both modes)",
             failures)


def test_criterion_03_four_torus_gram():
    failures = []
    rng = random.Random(2025)
    model = torus(4)
    table = model.table
    basis = standard_degree_two_basis(model)
    complement = {
        (1, 2): (3, 4), (1, 3): (2, 4), (1, 4): (2, 3),
        (2, 3): (1, 4), (2, 4): (1, 3), (3, 4): (1, 2),
    }
    for rep in range(10):
        values, space = _random_symplectic(rng, model)
        oracle = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
        if not check_block_orthogonality(oracle).ok:
            failures.append(f"rep {rep}: block-zero pattern")
        denom = table.constant(
            space.mu.constant_value() * space.mu.constant_value().conjugate() * 2
        )
        for r, pr in enumerate(PAIRS4):
            for c, pc in enumerate(PAIRS4):
                eps = -1 if (sum(pr) + sum(pc)) % 2 else 1
                num = (
                    values[complement[pr]]
                    * values[complement[pc]].conjugate()
                    * eps
                )
                expected = ScalarFraction(table.constant(num), denom)
                if oracle.entries[r][c + 22] != expected:
                    failures.append(f"rep {rep}: X entry {(r, c)}")
        # Y: the oracle-produced (1,1) block is symmetric
        for r in range(16):
            for c in range(16):
                if oracle.entries[6 + r][6 + c] != oracle.entries[6 + c][6 + r]:
                    failures.append(f"rep {rep}: Y symmetry {(r, c)}")
    _verdict("criterion 3: 4-torus Gram blocks (10 random lambda)", failures)


def test_criterion_04_vanishing_identity():
    failures = []
    rng = random.Random(2026)
    for n, reps in ((1, 10), (2, 10)):
        model = torus(2 * n)
        for rep in range(reps):
            _, space = _random_symplectic(rng, model)
            check = vanishing_identity(
                space,
                gaussian(rng),
                random_closed_two_form(rng, model).component(1, 1),
                gaussian(rng),
            )
            if check.lhs != check.rhs:
                failures.append(f"n={n} rep {rep}")
    _verdict("criterion 4: vanishing identity (20 random decompositions)",
             failures)


def test_criterion_05_rescaling_law():
    failures = []
    rng = random.Random(2027)
    for n in (1, 2):
        model = torus(2 * n)
        for rep in range(8):
            _, space = _random_symplectic(rng, model)
            c = nonzero_gaussian(rng)
            scaled = make_symplectic(model, space.sigma.scaled(c))
            alpha = random_closed_two_form(rng, model)
            factor = (c * c.conjugate()) ** (2 * n - 1)
            if q_sigma(scaled, alpha) != q_sigma(space, alpha) * factor:
                failures.append(f"n={n} rep {rep}")
    _verdict("criterion 5: rescaling law q_(c sigma) = (c cbar)^(2n-1) q",
             failures)


def test_criterion_06_mu_pfaffian():
    failures = []
    rng = random.Random(2028)
    factorial = {1: 1, 2: 2, 3: 6}
    for n in (1, 2, 3):
        model = torus(2 * n)
        for rep in range(20):
            values, space = _random_symplectic(rng, model)
            matrix = AntisymmetricMatrix(2 * n, values, model.table)
            if space.mu != pfaffian(matrix) * factorial[n]:
                failures.append(f"n={n} rep {rep}")
    _verdict("criterion 6: wedge mu = n! Pf(lambda) for n in {1,2,3}", failures)


def test_criterion_07_kodaira_surface():
    failures = []
    model = kodaira()
    hodge = {
        (p, q): model.cohomology(DOLBEAULT, (p, q)).dimension
        for p in range(3) for q in range(3)
    }
    if model.betti(1) != 3:
        failures.append("b1 = 3")
    if model.betti(2) != 4:
        failures.append("b2 = 4")
    if hodge[(1, 0)] != 1:
        failures.append("h^{1,0} = 1")
    if hodge[(0, 1)] != 2:
        failures.append("h^{0,1} = 2")
    # On a compact complex surface the del-delbar count is an equality in
    # degree 1 and exceeds 2 b_2 by 2 exactly when the surface is not Kaehler
    # (Angella-Dloussky-Tomassini, Ann. Mat. Pura Appl. 2016); the Kodaira
    # surface therefore fails the count in degree 2 only.
    checks = [model.ddbar_criterion(k) for k in range(5)]
    if (checks[1].betti_doubled, checks[1].bott_chern_aeppli) != (6, 6):
        failures.append(
            f"del-delbar count 2 b_1 = BC+A = 6 = 1 + 1 + 2 + 2 ({checks[1]})"
        )
    if (checks[2].betti_doubled, checks[2].bott_chern_aeppli) != (8, 10):
        failures.append(f"del-delbar count 2 b_2 = 8 < BC+A = 10 ({checks[2]})")
    failing = [check.degree for check in checks if not check.holds]
    if failing != [2]:
        failures.append(
            f"del-delbar count fails in degree 2 only ({failing}: {checks})"
        )
    if model.betti(1) != hodge[(1, 0)] + hodge[(0, 1)]:
        failures.append("b1 = 1 + 2")
    if model.betti(2) != hodge[(2, 0)] + hodge[(1, 1)] + hodge[(0, 2)]:
        failures.append("b2 = 1 + 2 + 1")
    space = make_symplectic(model, kodaira_sigma(model))
    basis = list(model.cohomology(DE_RHAM, 2).basis)
    gram = normalize_gram(space, gram_matrix(space, basis, mode="oracle"))
    half = ScalarFraction(model.table.one(), space.mu * space.mu.conjugate() * 2)
    for i in range(4):
        for j in range(4):
            expected = half if i + j == 3 else 0
            if gram.entries[i][j] != expected:
                failures.append(f"Gram anti-diagonal entry {(i, j)}")
    lam = model.lambda_map(
        model.coframe.monomial_form(("w1", "w2")).conjugate(), DOLBEAULT, (1, 0)
    )
    if not lam.is_zero():
        failures.append("Lambda_bar is zero on H^{1,0}")
    _verdict("criterion 7: Kodaira surface", failures)


def test_criterion_08_nakamura():
    failures = []
    for t in (Fraction(1, 2), GaussianRational(Fraction(1, 4), Fraction(1, 4))):
        family = nakamura(t)
        try:
            family.model.validate()
        except Exception as exc:
            failures.append(f"t={t}: validate ({exc})")
        if family.model.d(family.sigma):
            failures.append(f"t={t}: d(sigma_t) = 0")
        if not family.sigma.power(2):
            failures.append(f"t={t}: sigma_t^2 != 0")
    _verdict("criterion 8: deformed Nakamura model", failures)


def test_criterion_09_product_formula():
    failures = []
    table = VariableTable(
        [("q1", None), ("q2", None), ("p1s", None), ("p1sb", None),
         ("p2s", None), ("p2sb", None)]
    )
    var = table.variable
    symbolic = product_q(var("q1"), var("q2"), var("p1s"), var("p1sb"),
                         var("p2s"), var("p2sb"))
    expanded = (
        8 * var("q1") + 8 * var("q2")
        - 4 * var("p1sb") * var("p1s") + 4 * var("p1sb") * var("p2s")
        + 4 * var("p2sb") * var("p1s") - 4 * var("p2sb") * var("p2s")
    )
    if symbolic != expanded:
        failures.append("product polynomial identity")
    zero = GaussianRational(0)
    one = GaussianRational(1)
    if product_q(zero, zero, zero, one, zero, one) != zero:
        failures.append("vanishes at phi = sigma")
    # 2-torus stand-in for the Kummer-side deformation
    model = torus(2, parameters=[("t", "tb")])
    cf = model.coframe
    t = model.table.variable("t")
    space = make_symplectic(model, cf.monomial_form(("x1", "x2")))
    phi1 = (
        cf.monomial_form(("x1", "x2"))
        + cf.monomial_form(("x1", "xb1")).scaled(t)
        - cf.monomial_form(("x2", "xb2")).scaled(t)
        - cf.monomial_form(("xb1", "xb2")).scaled(t * t)
    ).scaled(1 + t)
    v_one = {"V": 1}
    value = product_q(
        q_sigma(space, phi1).substitute(v_one),
        model.table.zero(),
        phi1.wedge(space.sigma).integrate().substitute(v_one),
        phi1.wedge(space.sigma_bar).integrate().substitute(v_one),
        model.table.zero(),
        model.table.one(),
    )
    expected = model.table.monomial({"t": 3}, 4) + model.table.monomial({"t": 4}, 4)
    if value != expected:
        failures.append("surrogate value 4 t^3 (1 + t)")
    if value.substitute({"t": Fraction(1, 5)}) == model.table.zero():
        failures.append("surrogate nonzero at t = 1/5")
    if value.substitute({"t": 0}) != model.table.zero():
        failures.append("surrogate zero at t = 0")
    _verdict("criterion 9: two-factor product formula", failures)


def test_criterion_10_embedding_degrees():
    failures = []
    for n in range(2, 6):
        curve = pluecker_curve(n)
        if curve.degree() != n - 1:
            failures.append(f"degree at n={n}")
        poly = curve.coordinates.get(curve.distinguished)
        if poly is None or len(poly.terms) != 1:
            failures.append(f"distinguished coordinate at n={n}")
            continue
        (exps, coeff), = poly.terms.items()
        table = poly.table
        if exps[table.index("a")] != n - 1 or exps[table.index("b")] != 0:
            failures.append(f"vanishing order at n={n}")
        if coeff.norm() != 1:
            failures.append(f"unit coefficient at n={n}")
    _verdict("criterion 10: embedding degree n-1 for n = 2..5", failures)


def test_criterion_11_property_suites():
    failures = []
    rng = random.Random(2029)

    # graded commutativity, >= 100 cases
    model = torus(3)
    for rep in range(100):
        da, db = rng.randint(0, 4), rng.randint(0, 4)
        a = random_form(rng, model, degree=da)
        b = random_form(rng, model, degree=db)
        sign = -1 if (da * db) % 2 else 1
        if a.wedge(b) != b.wedge(a).scaled(sign):
            failures.append(f"graded commutativity rep {rep}")

    # Leibniz, >= 100 cases across models
    models = [torus(2), kodaira(), nakamura(Fraction(1, 3)).model]
    for rep in range(102):
        m = models[rep % 3]
        top = len(m.coframe.generators)
        da = rng.randint(0, top // 2)
        a = random_form(rng, m, degree=da)
        b = random_form(rng, m, degree=rng.randint(0, top // 2))
        sign = -1 if da % 2 else 1
        if m.d(a.wedge(b)) != m.d(a).wedge(b) + a.wedge(m.d(b)).scaled(sign):
            failures.append(f"Leibniz rep {rep}")

    # differential identities, >= 100 cases
    for rep in range(102):
        m = models[rep % 3]
        top = len(m.coframe.generators)
        f = random_form(rng, m, degree=rng.randint(0, top))
        if m.d(m.d(f)):
            failures.append(f"d^2 rep {rep}")
        if m.del_(m.del_(f)):
            failures.append(f"del^2 rep {rep}")
        if m.delbar(m.delbar(f)):
            failures.append(f"delbar^2 rep {rep}")
        if m.del_(m.delbar(f)) + m.delbar(m.del_(f)):
            failures.append(f"anticommutation rep {rep}")
        if m.d(f) != m.del_(f) + m.delbar(f):
            failures.append(f"splitting rep {rep}")

    # polarization, >= 100 cases
    for rep in range(100):
        n = 1 if rep % 2 else 2
        m = torus(2 * n)
        _, space = _random_symplectic(rng, m)
        alpha = random_closed_two_form(rng, m)
        if bilinear(space, alpha, alpha) != q_sigma(space, alpha):
            failures.append(f"polarization rep {rep}")

    # conjugation-integration compatibility, >= 100 cases
    for rep in range(102):
        m = (torus(2), torus(4), kodaira())[rep % 3]
        top = len(m.coframe.generators)
        f = random_form(rng, m, degree=top)
        if f.conjugate().integrate() != f.integrate().conjugate():
            failures.append(f"conjugation-integration rep {rep}")

    _verdict("criterion 11: randomized property suites (>=100 cases each)",
             failures)
