"""Built-in reproductions of the worked examples.

Every step pairs a computed exact value with an expected one; comparison is
structural equality of the underlying values, never of rendered text.  The
scenarios use fixed inputs only, so reports are deterministic end to end
(wall time is kept off the machine-readable output for that reason).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from . import bbf
from .dga import AEPPLI, BOTT_CHERN, DE_RHAM, DOLBEAULT
from .errors import UnknownScenario
from .grass import pluecker_curve
from .models import (chain_nilmanifold, kodaira, kodaira_sigma, nakamura, torus,
                     torus4_deformed)
from .scalars import GaussianRational, ScalarFraction, VariableTable


@dataclass(frozen=True)
class Step:
    """One named quantity of a scenario: what was computed and what was
    expected, with a short note on where the expectation comes from.
    ``match`` is compared once, when the step is built."""

    name: str
    computed: object
    expected: object
    note: str = ""
    match: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "match", bool(self.computed == self.expected))


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    description: str
    steps: tuple
    wall_time: float
    error: str = ""

    @property
    def passed(self):
        return not self.error and all(step.match for step in self.steps)

    def first_failure(self):
        """1-based index of the first failing step, 0 when all match."""
        for k, step in enumerate(self.steps, start=1):
            if not step.match:
                return k
        return 0

    def to_dict(self):
        return {
            "example_id": self.scenario,
            "description": self.description,
            "quantities": [
                {
                    "name": step.name,
                    "value": _render(step.computed),
                    "reference": _render(step.expected),
                    "match": step.match,
                    "note": step.note,
                }
                for step in self.steps
            ],
            "passed": self.passed,
            "error": self.error,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _render(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_render(v) for v in value]
    return str(value)


# -- scenario bodies -------------------------------------------------------------


def _scenario_torus2_gram():
    model = torus(2, parameters=[("mu", "mub")])
    cf = model.coframe
    sigma = cf.monomial_form(("x1", "x2"), cf.table.variable("mu"))
    space = bbf.make_symplectic(model, sigma)
    basis = bbf.standard_degree_two_basis(model)
    oracle = bbf.normalize_gram(space, bbf.gram_matrix(space, basis, mode="oracle"))
    closed = bbf.gram_matrix(space, basis, mode="closed_form")
    half = ScalarFraction(
        cf.table.one(), space.mu * space.mu.conjugate() * 2
    )
    signs = {(0, 5): 1, (1, 4): -1, (2, 3): 1, (3, 2): 1, (4, 1): -1, (5, 0): 1}
    pattern_ok = all(
        closed.entries[i][j] == (half * signs[(i, j)] if (i, j) in signs else 0)
        for i in range(6)
        for j in range(6)
    )
    return [
        Step("oracle agrees with closed form", oracle.matches(closed), True,
             "two independent evaluation routes"),
        Step("6x6 anti-diagonal with entries +-1/(2*mu*mub)",
             pattern_ok, True, "closed-form Gram pattern"),
        Step("<x1^x2, xb1^xb2>", closed.entries[0][5], half,
             "corner entry of the anti-diagonal"),
        Step("<x1^xb1, x2^xb2>", closed.entries[1][4], -half,
             "inner block entry of the anti-diagonal"),
    ]


def _torus4_generic():
    values = {
        (1, 2): GaussianRational(1),
        (1, 3): GaussianRational(0, 1),
        (1, 4): GaussianRational(Fraction(1, 2)),
        (2, 3): GaussianRational(3),
        (2, 4): GaussianRational(1, 1),
        (3, 4): GaussianRational(2),
    }
    model = torus(4)
    cf = model.coframe
    sigma = cf.zero_form()
    for (i, j), coeff in values.items():
        sigma = sigma + cf.monomial_form((f"x{i}", f"x{j}"), coeff)
    return model, bbf.make_symplectic(model, sigma)


def _scenario_torus4_gram():
    model, space = _torus4_generic()
    basis = bbf.standard_degree_two_basis(model)
    oracle = bbf.normalize_gram(space, bbf.gram_matrix(space, basis, mode="oracle"))
    closed = bbf.gram_matrix(space, basis, mode="closed_form")
    orth = bbf.check_block_orthogonality(oracle)
    mu_norm = space.mu.constant_value().norm()
    y_entry = oracle.entries[6][11]  # <x1^xb1, x2^xb2>
    expected_y = ScalarFraction(
        model.table.constant(GaussianRational(Fraction(-8) / mu_norm / 2))
    )
    return [
        Step("sigma is nondegenerate", bool(space.mu), True,
             "mu = 9-2i for this coefficient choice"),
        Step("mu", space.mu, model.table.constant(GaussianRational(9, -2)),
             "wedge expansion of sigma^2"),
        Step("block-zero pattern", orth.ok, True,
             "(2,0)+(0,2) orthogonal to (1,1)"),
        Step("oracle agrees with closed form on all 28x28 entries",
             oracle.matches(closed), True,
             "includes the (1,1) block left to direct computation"),
        Step("Gram is symmetric", oracle.is_symmetric(), True,
             "bilinear symmetry"),
        Step("<x1^xb1, x2^xb2>", y_entry, expected_y,
             "-2*l34*conj(l34)/(2*mu*mub) evaluated"),
    ]


def _scenario_torus4_deformed():
    family = torus4_deformed()
    model, sigma, sigma_t = family.model, family.sigma, family.sigma_t
    space = bbf.make_symplectic(model, sigma)
    table = model.table
    integrals = [
        space.volume,
        sigma_t.wedge(sigma_t).wedge(space.sigma).wedge(space.sigma_bar).integrate(),
        sigma_t.wedge(space.sigma).wedge(space.sigma_bar_pow[2]).integrate(),
        sigma_t.wedge(space.sigma_pow[2]).wedge(space.sigma_bar).integrate(),
    ]
    v = table.variable("V")
    t = {k: table.variable(f"t{k}") for k in range(1, 5)}
    q = bbf.q_sigma(space, sigma_t)
    expected_q = table.monomial({"t1": 1, "t2": 1, "t3": 1, "t4": 1, "V": 2}, -16)
    return [
        Step("I[(sigma sigma_bar)^2]", integrals[0], 4 * v,
             "first enumerated integral"),
        Step("I[sigma_t^2 sigma sigma_bar]", integrals[1],
             4 * (t[1] * t[2] * (1 - t[3] * t[4])) * v,
             "second enumerated integral"),
        Step("I[sigma_t sigma sigma_bar^2]", integrals[2], 4 * v,
             "third enumerated integral"),
        Step("I[sigma_t sigma^2 sigma_bar]", integrals[3],
             4 * (t[1] * t[2]) * v, "fourth enumerated integral"),
        Step("q(sigma_t)", q, expected_q,
             "the family value -16 t1 t2 t3 t4 V^2"),
        Step("q(sigma_t) is not identically zero", bool(q), True,
             "the symplectic classes of the family leave the quadric"),
    ]


def _scenario_bbf_vanishing():
    steps = []
    # complex dimension 2: the identity degenerates to the definition
    model2 = torus(2)
    cf2 = model2.coframe
    space2 = bbf.make_symplectic(model2, cf2.monomial_form(("x1", "x2")))
    alpha11 = (
        cf2.monomial_form(("x1", "xb1"), GaussianRational(1, 1))
        + cf2.monomial_form(("x2", "xb1"), 2)
        - cf2.monomial_form(("x2", "xb2"))
    )
    check2 = bbf.vanishing_identity(
        space2, GaussianRational(Fraction(3, 2)), alpha11, GaussianRational(1, -1)
    )
    steps.append(Step("identity holds on the 2-torus", check2.holds, True,
                      "lhs and rhs as exact polynomials in V"))
    # complex dimension 4
    model4, space4 = _torus4_generic()
    cf4 = model4.coframe
    alpha11 = (
        cf4.monomial_form(("x1", "xb2"), GaussianRational(0, 1))
        + cf4.monomial_form(("x3", "xb3"), 2)
        - cf4.monomial_form(("x4", "xb1"), Fraction(1, 3))
    )
    check4 = bbf.vanishing_identity(
        space4, GaussianRational(Fraction(2, 3)), alpha11,
        GaussianRational(Fraction(-1, 2), Fraction(1, 4)),
    )
    steps.append(Step("identity holds on the 4-torus", check4.holds, True,
                      "lhs and rhs as exact polynomials in V"))
    zero = model4.table.zero()
    at_sigma = bbf.vanishing_identity(space4, 1, cf4.zero_form(), 0)
    steps.append(Step("alpha = sigma gives lhs = 0", at_sigma.lhs, zero,
                      "sigma^(n+1) = 0"))
    steps.append(Step("alpha = sigma gives rhs = 0", at_sigma.rhs, zero,
                      "q vanishes on the symplectic class"))
    steps.append(Step("q(sigma) = 0", bbf.q_sigma(space4, space4.sigma), zero,
                      "q is trivial on (2,0) classes"))
    return steps


def _scenario_kodaira():
    model = kodaira()
    sigma = kodaira_sigma(model)
    space = bbf.make_symplectic(model, sigma)
    betti = {k: model.betti(k) for k in range(5)}
    hodge = {
        (p, q): model.cohomology(DOLBEAULT, (p, q)).dimension
        for p in range(3)
        for q in range(3)
    }
    checks = {k: model.ddbar_criterion(k) for k in range(5)}
    failures = [k for k in range(5) if not checks[k].holds]
    basis = [rep for rep in model.cohomology(DE_RHAM, 2).basis]
    gram = bbf.normalize_gram(space, bbf.gram_matrix(space, basis, mode="oracle"))
    half = ScalarFraction(
        model.table.one(), space.mu * space.mu.conjugate() * 2
    )
    anti_diagonal = all(
        gram.entries[i][j] == (half if i + j == 3 else 0)
        for i in range(4)
        for j in range(4)
    )
    lam = model.lambda_map(
        model.coframe.monomial_form(("w1", "w2")).conjugate(), DOLBEAULT, (1, 0)
    )
    return [
        Step("b1", betti[1], 3, "span {w1, wb1, w2+wb2}"),
        Step("b2", betti[2], 4, "span {w1^w2, w1^wb2, w2^wb1, wb1^wb2}"),
        Step("h^{1,0}", hodge[(1, 0)], 1, "span {w1}"),
        Step("h^{0,1}", hodge[(0, 1)], 2, "span {wb1, wb2}"),
        Step("h^{2,0}", hodge[(2, 0)], 1, "span {w1^w2}"),
        Step("h^{1,1}", hodge[(1, 1)], 2, "span {w1^wb2, w2^wb1}"),
        Step("h^{0,2}", hodge[(0, 2)], 1, "span {wb1^wb2}"),
        Step("hodge symmetry h^{1,0} = h^{0,1} fails",
             hodge[(1, 0)] != hodge[(0, 1)], True,
             "the failure visible on 1-forms"),
        Step("E1 degeneration b1 = 1+2",
             betti[1] == hodge[(1, 0)] + hodge[(0, 1)], True,
             "Froelicher equality in degree 1"),
        Step("E1 degeneration b2 = 1+2+1",
             betti[2] == hodge[(2, 0)] + hodge[(1, 1)] + hodge[(0, 2)], True,
             "Froelicher equality in degree 2"),
        Step("2 b_k = sum h_BC + h_A fails for some k", bool(failures), True,
             "the numeric criterion detects the failure"),
        Step("degrees where the count fails", failures, [2],
             "exact Bott-Chern/Aeppli dimensions; equality holds at k = 1"),
        Step("2 b_2", checks[2].betti_doubled, 8, "twice the second Betti number"),
        Step("sum h_BC + h_A in degree 2", checks[2].bott_chern_aeppli, 10,
             "strictly larger than 2 b_2"),
        Step("Gram matrix is the 1/(2 mu mub) anti-diagonal", anti_diagonal, True,
             "entries 1/(2 mu mub) on the anti-diagonal"),
        Step("Lambda_bar vanishes on H^{1,0}", lam.is_zero(), True,
             "w1 ^ conj(w1^w2) is exact"),
    ]


def _scenario_kodaira_lambda():
    model = kodaira()
    cf = model.coframe
    omega_bar = cf.monomial_form(("w1", "w2")).conjugate()
    lam = model.lambda_map(omega_bar, DOLBEAULT, (1, 0))
    image = omega_bar.wedge(model.cohomology(DOLBEAULT, (1, 0)).basis[0])
    primitive = cf.monomial_form(("w2", "wb2"))
    return [
        Step("source dimension", lam.source.dimension, 1, "H^{1,0}"),
        Step("target dimension", lam.target.dimension, 1, "H^{1,2}"),
        Step("matrix of Lambda_bar", list(lam.matrix), [(GaussianRational(0),)],
             "the wedge map in the computed bases"),
        Step("rank", lam.rank(), 0, "trivial in Dolbeault cohomology"),
        Step("image of w1 equals delbar(w2^wb2)", image, model.delbar(primitive),
             "an explicit primitive"),
        Step("class of the image vanishes",
             model.class_of(image, DOLBEAULT, (1, 2)),
             (GaussianRational(0),), "coordinates in the computed basis"),
    ]


def _scenario_nakamura():
    family = nakamura(Fraction(1, 2))
    model, sigma = family.model, family.sigma
    diagnostics = model.validate()
    square = sigma.power(2)
    expected = model.coframe.monomial_form(("phi1", "phi2", "phi3", "phi4"), 2)
    return [
        Step("structure equations integrable", bool(diagnostics), True,
             "d*d = 0 checked on every generator"),
        Step("d(sigma_t)", model.d(sigma), model.coframe.zero_form(),
             "the symplectic form is closed"),
        Step("sigma_t^2", square, expected, "nondegeneracy witness"),
        Step("sigma_t^2 is nonzero", bool(square), True,
             "complex symplectic at t = 1/2"),
    ]


def _scenario_iwasawa():
    model = chain_nilmanifold(3)

    def table(theory):
        return [[model.cohomology(theory, (p, q)).dimension for q in range(4)]
                for p in range(4)]

    source = "Angella, J. Geom. Anal. 23 (2013)"
    return [
        Step("Betti numbers b_0..b_6", [model.betti(k) for k in range(7)],
             [1, 4, 8, 10, 8, 4, 1], "de Rham cohomology of the invariant forms"),
        Step("Bott-Chern h^{p,q}, rows p = 0..3", table(BOTT_CHERN),
             [[1, 2, 3, 1], [2, 4, 6, 2], [3, 6, 8, 3], [1, 2, 3, 1]], source),
        Step("Aeppli h^{p,q}, rows p = 0..3", table(AEPPLI),
             [[1, 3, 2, 1], [3, 8, 6, 3], [2, 6, 4, 2], [1, 3, 2, 1]], source),
        Step("Dolbeault h^{p,q}, rows p = 0..3", table(DOLBEAULT),
             [[1, 2, 2, 1], [3, 6, 6, 3], [3, 6, 6, 3], [1, 2, 2, 1]], source),
    ]


def _scenario_k3_product():
    table = VariableTable(
        [("q1", None), ("q2", None), ("p1s", None), ("p1sb", None),
         ("p2s", None), ("p2sb", None)]
    )
    var = table.variable
    symbolic = bbf.product_q(
        var("q1"), var("q2"), var("p1s"), var("p1sb"), var("p2s"), var("p2sb")
    )
    expanded = (
        8 * var("q1") + 8 * var("q2")
        - 4 * var("p1sb") * var("p1s") + 4 * var("p1sb") * var("p2s")
        + 4 * var("p2sb") * var("p1s") - 4 * var("p2sb") * var("p2s")
    )
    one = GaussianRational(1)
    zero = GaussianRational(0)
    at_sigma = bbf.product_q(zero, zero, zero, one, zero, one)

    # 2-torus stand-in for the Kummer-side deformation of the first factor
    model = torus(2, parameters=[("t", "tb")])
    cf = model.coframe
    t = model.table.variable("t")
    space = bbf.make_symplectic(model, cf.monomial_form(("x1", "x2")))
    phi1 = (
        cf.monomial_form(("x1", "x2"))
        + cf.monomial_form(("x1", "xb1")).scaled(t)
        - cf.monomial_form(("x2", "xb2")).scaled(t)
        - cf.monomial_form(("xb1", "xb2")).scaled(t * t)
    ).scaled(1 + t)
    unit_volume = {"V": 1}  # mu = 1 here, so V -> 1/(mu*mub) = 1
    q1 = bbf.q_sigma(space, phi1).substitute(unit_volume)
    p1s = phi1.wedge(space.sigma).integrate().substitute(unit_volume)
    p1sb = phi1.wedge(space.sigma_bar).integrate().substitute(unit_volume)
    surrogate = bbf.product_q(
        q1, model.table.zero(), p1s, p1sb,
        model.table.zero(), model.table.one(),
    )
    expected_surrogate = model.table.monomial({"t": 3}, 4) + model.table.monomial(
        {"t": 4}, 4
    )
    return [
        Step("product polynomial identity", symbolic, expanded,
             "8(q1+q2) - 4(p1sb-p2sb)(p1s-p2s) expanded"),
        Step("vanishes on the product symplectic class", at_sigma,
             GaussianRational(0), "both bracket factors vanish"),
        Step("first factor form vanishes on the deformed class", q1,
             model.table.zero(), "simple-factor behaviour"),
        Step("I[phi1 sigma1]", p1s,
             -(t ** 2) * (1 + t), "pairing against sigma1"),
        Step("I[phi1 sigma1_bar]", p1sb, 1 + t,
             "pairing against conj(sigma1)"),
        Step("surrogate value", surrogate, expected_surrogate,
             "4 t^3 (1+t): nonzero for t != 0"),
        Step("surrogate at t = 1/3",
             surrogate.substitute({"t": Fraction(1, 3)}),
             model.table.constant(Fraction(16, 81)),
             "a nonzero specialization"),
    ]


def _scenario_grass_degree():
    steps = []
    for n in range(2, 6):
        curve = pluecker_curve(n)
        steps.append(Step(f"embedding degree at n={n}", curve.degree(), n - 1,
                          "common degree of the reduced coordinates"))
        steps.append(
            Step(f"distinguished coordinate order at n={n}",
                 curve.alpha_vanishing_order(), n - 1,
                 "vanishing order at a = 0")
        )
    return steps


_SCENARIOS = {
    "torus2-gram": ("Gram matrix of the 2-torus against its closed form",
                    _scenario_torus2_gram),
    "torus4-gram": ("Block structure and Gram entries of the 4-torus",
                    _scenario_torus4_gram),
    "torus4-deformed": ("Deformation family of the 4-torus and its q values",
                        _scenario_torus4_deformed),
    "bbf-vanishing": ("The (n+1) lambda^(n-1) q(alpha) identity",
                      _scenario_bbf_vanishing),
    "kodaira": ("Cohomology, Gram matrix and wedge maps of the Kodaira surface",
                _scenario_kodaira),
    "kodaira-lambda": ("The wedge-with-conjugate-volume map on H^{1,0}",
                       _scenario_kodaira_lambda),
    "nakamura": ("Closedness and nondegeneracy for the deformed Nakamura model",
                 _scenario_nakamura),
    "k3-product": ("Two-factor product formula and its Kummer-side surrogate",
                   _scenario_k3_product),
    "grass-degree": ("Degrees of the bivector embedding along Schubert lines",
                     _scenario_grass_degree),
    "iwasawa": ("Betti numbers and Bott-Chern, Aeppli and Dolbeault tables of "
                "the Iwasawa manifold", _scenario_iwasawa),
}


def list_scenarios():
    """Stable (id, description) listing of the built-in scenarios."""
    return [(name, desc) for name, (desc, _) in _SCENARIOS.items()]


def run_scenario(scenario_id):
    """Execute one scenario; an exception raised by its body or by comparing
    a step becomes a failure report naming the type, the message and the
    innermost source line, rather than propagating."""
    try:
        description, body = _SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenario(scenario_id) from None
    start = time.perf_counter()
    try:
        steps = tuple(body())
        error = ""
    except Exception as exc:
        steps = ()
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        error = f"{type(exc).__name__}: {exc} (at {where})"
    wall = time.perf_counter() - start
    return ScenarioReport(
        scenario=scenario_id,
        description=description,
        steps=steps,
        wall_time=wall,
        error=error,
    )
