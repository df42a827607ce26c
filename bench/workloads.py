"""The three timed workloads: set-up, one operation, and its checks.

Constructing a workload from an imported package and a seed is its set-up,
which ``setup_s`` times together with the import.  ``prepare()`` makes the
inputs that need the set-up state and runs one-off checks; it is not timed
and raises ``CheckFailed`` on a wrong answer.  ``op(i)`` returns the
seed label of operation ``i`` and a thunk that runs the operation and checks
its result, raising ``CheckFailed`` on a wrong answer.  Operations come in
groups of ``group``; a run stops only at a group boundary, so every run times
whole groups.  A traced run executes ``trace_ops`` operations.
"""

from __future__ import annotations

import contextlib
import io
from math import comb, factorial

import generators as gen

N = gen.N_HOLO


class CheckFailed(Exception):
    """An operation returned a wrong or inconsistent exact result."""


def _check(condition, describe):
    """Raise CheckFailed unless ``condition``; ``describe()`` builds the
    message only then, so a passing check costs no formatting or extra
    arithmetic inside the timed operation."""
    if not condition:
        raise CheckFailed(describe())


def _gaussian(pkg, value):
    return pkg.scalars.GaussianRational(*value)


# -- gram --------------------------------------------------------------------------


class Gram:
    """Gram pipeline on a seeded 4-torus sigma with one formal pair."""

    group = 1
    trace_ops = 3

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.seed = seed
        self.model = pkg.models.torus(N, parameters=[("l", "lb")])
        self.basis = pkg.bbf.standard_degree_two_basis(self.model)

    def prepare(self):
        pass

    def sigma(self, data):
        cf = self.model.coframe
        terms = {}
        for i, j in gen.HOLO_PAIRS:
            if (i, j) == data.formal:
                coeff = cf.table.variable("l")
            else:
                coeff = _gaussian(self.pkg, data.values[(i, j)])
            terms[(f"x{i}", f"x{j}")] = coeff
        return cf.form(terms)

    def op(self, i):
        label = f"{self.seed}.{i}"
        sigma = self.sigma(gen.gram_input(gen.make_rng("gram", label)))
        return label, lambda: self.run(sigma)

    def run(self, sigma):
        bbf = self.pkg.bbf
        space = bbf.make_symplectic(self.model, sigma)
        oracle = bbf.gram_matrix(space, self.basis, mode="oracle")
        normalized = bbf.normalize_gram(space, oracle)
        closed = bbf.gram_matrix(space, self.basis, mode="closed_form")
        _check(normalized.matches(closed),
               lambda: f"normalized oracle differs from the closed form at "
               f"{bbf.gram_discrepancies(normalized, closed)[:4]}")
        _check(normalized.is_symmetric(),
               lambda: "normalized Gram matrix is not symmetric")
        # sigma^n = n! Pf(sigma) x1^..^x(2n), so mu = 2 Pf on the 4-torus
        pf = bbf.pfaffian(bbf.AntisymmetricMatrix.from_form(sigma))
        expected = pf * factorial(space.n)
        _check(space.mu == expected,
               lambda: f"mu = {space.mu} but {space.n}! Pf(sigma) = {expected}")


# -- cohomology ------------------------------------------------------------------------


def all_tables(pkg, model):
    """Every slot of the four theories: {theory: {slot: dimension}}."""
    dga = pkg.dga
    tables = {dga.DE_RHAM: {k: model.cohomology(dga.DE_RHAM, k).dimension
                            for k in range(2 * N + 1)}}
    for theory in dga.THEORIES[1:]:
        tables[theory] = {
            (p, q): model.cohomology(theory, (p, q)).dimension
            for p in range(N + 1) for q in range(N + 1)
        }
    return tables


def check_invariants(pkg, tables):
    """Theorem-backed relations between the four tables of a unimodular
    model of complex dimension N."""
    dga = pkg.dga
    b = tables[dga.DE_RHAM]
    h = tables[dga.DOLBEAULT]
    bc = tables[dga.BOTT_CHERN]
    a = tables[dga.AEPPLI]
    _check(sum((-1) ** k * b[k] for k in b) == 0,
           lambda: f"de Rham Euler characteristic is not zero: b = {list(b.values())}")
    for p in range(N + 1):
        row = [h[(p, q)] for q in range(N + 1)]
        _check(sum((-1) ** q * x for q, x in enumerate(row)) == 0,
               lambda: f"Dolbeault row p={p} has nonzero Euler characteristic: {row}")
    for k in range(2 * N + 1):
        _check(b[k] == b[2 * N - k],
               lambda: f"Poincare duality fails: b{k} != b{2 * N - k}")
        slots = [(p, k - p) for p in range(N + 1) if 0 <= k - p <= N]
        hodge = sum(h[s] for s in slots)
        _check(hodge >= b[k],
               lambda: f"Froelicher fails in degree {k}: {hodge} < b{k} = {b[k]}")
        bca = sum(bc[s] + a[s] for s in slots)
        _check(bca >= 2 * b[k],
               lambda: f"Angella-Tomassini fails in degree {k}: "
                       f"{bca} < 2 b{k} = {2 * b[k]}")
    for p in range(N + 1):
        for q in range(N + 1):
            dual = (N - p, N - q)
            _check(h[(p, q)] == h[dual], lambda: f"Serre duality fails at {(p, q)}")
            _check(bc[(p, q)] == a[dual], lambda: f"BC/A duality fails at {(p, q)}")


def check_torus(pkg, tables):
    """The zero-differential model: every group is the whole graded piece."""
    dga = pkg.dga
    for k, dim in tables[dga.DE_RHAM].items():
        _check(dim == comb(2 * N, k),
               lambda: f"torus b{k} = {dim}, expected {comb(2 * N, k)}")
    for theory in dga.THEORIES[1:]:
        for (p, q), dim in tables[theory].items():
            expected = comb(N, p) * comb(N, q)
            _check(dim == expected,
                   lambda: f"torus {theory}{(p, q)} = {dim}, expected {expected}")


class Cohomology:
    """Cold tables: load a fresh model from its document, compute all four
    theories at every slot, check the invariants."""

    group = len(gen.POOL_SHAPES)
    trace_ops = len(gen.POOL_SHAPES)

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.seed = seed

    def prepare(self):
        """The exact torus tables are checked once per run, outside the timed
        operations: the torus has no seeded input and its cost band is below
        that of the pool."""
        model = self.pkg.models.torus(N)
        check_torus(self.pkg, all_tables(self.pkg, model))

    def op(self, i):
        label = f"{self.seed}.{i}"
        shape = gen.POOL_SHAPES[i % len(gen.POOL_SHAPES)]
        document = gen.pool_document(gen.make_rng("cohomology", label), shape)
        return label, lambda: self.run(document)

    def run(self, document):
        model = self.pkg.models.model_from_dict(document)
        check_invariants(self.pkg, all_tables(self.pkg, model))


# -- classes -----------------------------------------------------------------------------


class Classes:
    """Warm reads: class_of on cocycles sum c_i rep_i + boundary, cycling
    through every nonzero slot of the four theories of a Nakamura model
    whose tables were filled at set-up."""

    CYCLES = 3  # distinct query sets; a run cycles through them

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.seed = seed
        t = gen.nakamura_parameter(gen.make_rng("classes", seed))
        self.model = pkg.models.model_from_dict(gen.nakamura_document(t))
        self.tables = all_tables(pkg, self.model)

    def prepare(self):
        self.slots = [
            (theory, slot)
            for theory, table in self.tables.items()
            for slot, dim in table.items() if dim
        ]
        self.group = len(self.slots)
        self.trace_ops = self.CYCLES * self.group
        self.queries = [
            [self.query(theory, slot, gen.make_rng("classes", f"{self.seed}.{c}.{k}"))
             for k, (theory, slot) in enumerate(self.slots)]
            for c in range(self.CYCLES)
        ]

    def boundary_sources(self, theory, slot):
        """(operator, source monomials) pairs whose images span the
        boundaries of one slot."""
        m, dga = self.model, self.pkg.dga
        if theory == dga.DE_RHAM:
            return [(m.d, m.monomials_of_degree(slot - 1))]
        p, q = slot
        if theory == dga.DOLBEAULT:
            return [(m.delbar, m.monomials_of_bidegree(p, q - 1))]
        if theory == dga.BOTT_CHERN:
            return [(m.deldelbar, m.monomials_of_bidegree(p - 1, q - 1))]
        return [(m.del_, m.monomials_of_bidegree(p - 1, q)),
                (m.delbar, m.monomials_of_bidegree(p, q - 1))]

    def query(self, theory, slot, rng):
        model = self.model
        cf = model.coframe
        basis = model.cohomology(theory, slot).basis
        coords = tuple(_gaussian(self.pkg, gen.gaussian_integer(rng)) for _ in basis)
        form = cf.zero_form()
        for c, rep in zip(coords, basis):
            form = form + rep.scaled(c)
        for operator, sources in self.boundary_sources(theory, slot):
            if not sources:
                continue
            for mon in rng.sample(sources, min(3, len(sources))):
                coeff = _gaussian(self.pkg, gen.gaussian_integer(rng))
                beta = self.pkg.exterior.Form(cf, {mon: cf.table.constant(coeff)})
                form = form + operator(beta)
        return theory, slot, form, coords

    def op(self, i):
        cycle = self.queries[(i // self.group) % self.CYCLES]
        theory, slot, form, coords = cycle[i % self.group]
        label = f"{self.seed}.{(i // self.group) % self.CYCLES}.{i % self.group}"
        return label, lambda: self.run(theory, slot, form, coords)

    def run(self, theory, slot, form, coords):
        got = self.model.class_of(form, theory, slot)
        _check(tuple(got) == coords,
               lambda: f"class_of in {theory}{slot} gave {[str(x) for x in got]}, "
               f"expected {[str(x) for x in coords]}")


WORKLOADS = {"gram": Gram, "cohomology": Cohomology, "classes": Classes}


# -- scenario smoke gate ------------------------------------------------------------------


def scenario_gate(pkg):
    """Run every built-in scenario twice through the CLI in-process.

    Returns a list of problems: a nonzero exit or JSON that differs between
    the two calls."""
    problems = []
    for scenario_id, _ in pkg.scenarios.list_scenarios():
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = pkg.cli.main(["run", scenario_id, "--json"])
            if code != 0:
                problems.append(f"wb run {scenario_id} --json exited {code}")
            outputs.append(out.getvalue())
        if outputs[0] != outputs[1]:
            problems.append(f"wb run {scenario_id} --json is not byte-identical")
    return problems

