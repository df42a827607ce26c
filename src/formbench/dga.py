"""Finite bigraded differential algebras given by structure equations.

The differential of each generator is a degree-two form; d extends as a
graded derivation and splits as d = del + delbar by bidegree.  One Leibniz
loop on the monomial masks of ``exterior``, each term signed by its
``product_sign``, gives both the operators on forms and the Gaussian-integer
rows (cleared over one common denominator) on which De Rham, Dolbeault,
Bott-Chern and Aeppli cohomology is computed by exact elimination, with no
tolerance anywhere.  Ranks read these rows keyed by monomial mask; slot
indices appear only in report rows and ``class_of``, position tuples only in
report rows and ``monomials_of_degree``/``monomials_of_bidegree``.

A dimension is dim(slot) - rank(cocycle operators) - rank(boundaries), so the
de Rham and Dolbeault Euler characteristics vanish by construction; rank d on
degree k serves b_k and b_(k+1).  Validated models are immutable and memoize
reports, ranks, mask-keyed operator images, integer d rows and slot masks;
entries are written once under the GIL and idempotent: concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import linalg
from .errors import IntegrabilityError, ModelMismatch, NotClosed, UnspecializedParameters
from .exterior import Form, _form, _positions, product_sign
from .scalars import ZERO, GaussianRational, _integer_terms

DE_RHAM = "de_rham"
DOLBEAULT = "dolbeault"
BOTT_CHERN = "bott_chern"
AEPPLI = "aeppli"

THEORIES = (DE_RHAM, DOLBEAULT, BOTT_CHERN, AEPPLI)

# Every theory is "common kernel of the cocycle operators modulo the images of
# the boundary operators".  An operator is named by the degree or bidegree it
# adds: 1 is d, (1, 0) is del, (0, 1) is delbar and (1, 1) is del delbar.
OPERATORS = {  # theory -> (cocycle operators, boundary operators)
    DE_RHAM: ((1,), (1,)),
    DOLBEAULT: (((0, 1),), ((0, 1),)),
    BOTT_CHERN: (((1, 0), (0, 1)), ((1, 1),)),
    AEPPLI: (((1, 1),), ((1, 0), (0, 1))),
}


@dataclass(frozen=True, eq=False)
class CohomologyReport:
    """Dimension and representative basis of one cohomology group.

    ``slot`` is a degree k for de Rham and a bidegree pair (p, q) otherwise.
    The dimension comes from ranks.  ``_inputs`` holds monomial masks, then
    mask-keyed cocycle images and boundaries, the memoized row lists (Aeppli
    joins two).  The first read of ``rows`` keys the boundaries by slot index,
    runs ``linalg.quotient_representatives``, drops the inputs, gives each
    ``(s, row)`` as a tuple ``(s, monomial, re, im, ...)`` and raises
    RuntimeError if their count is not the dimension; ``basis`` divides each
    by s into a form.  Both memoize.
    """

    theory: str
    slot: object
    dimension: int
    coframe: object = field(repr=False)
    _inputs: tuple = field(repr=False)

    @cached_property
    def rows(self):
        inputs = self.__dict__.get("_inputs")
        if inputs is None:  # a racing read built the rows, then dropped these
            return self.__dict__["rows"]
        space, images, boundaries = inputs
        reps = linalg.quotient_representatives([images], _rekey(boundaries, space))
        rows = tuple([_report_row(s, row, space) for s, row in reps])
        if len(rows) != self.dimension:
            raise RuntimeError(f"{self.theory} slot {self.slot}: {len(rows)} "
                               f"representatives but dimension {self.dimension}")
        self.__dict__["rows"] = rows
        self.__dict__.pop("_inputs", None)  # not None: a smaller instance dict
        return rows

    def __eq__(self, other):  # by all but the coframe
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.theory, self.slot, self.dimension, self.rows

    @cached_property
    def basis(self):
        constant = self.coframe.table.constant
        return tuple(
            Form(self.coframe, {m: constant(
                GaussianRational(Fraction(x, s), Fraction(y, s)))
                for m, x, y in zip(row[::3], row[1::3], row[2::3])})
            for s, *row in self.rows)

    def __str__(self):
        return f"H_{self.theory}{self.slot}: dim {self.dimension}"


@dataclass(frozen=True)
class DdbarCheck:
    """Both sides of the degree-k Bott-Chern/Aeppli count against 2 b_k."""

    degree: int
    betti_doubled: int
    bott_chern_aeppli: int

    @property
    def holds(self):
        return self.betti_doubled == self.bott_chern_aeppli


@dataclass(frozen=True)
class LambdaMap:
    """The matrix of [alpha] -> [omega ^ alpha] between two cohomology slots,
    written in their computed bases (rows index the target basis)."""

    source: CohomologyReport
    target: CohomologyReport
    matrix: tuple

    def rank(self):
        return linalg.rank([_integer_terms(dict(enumerate(r)))[0] for r in self.matrix])

    def is_zero(self):
        return all(not x for row in self.matrix for x in row)


class StructureModel:
    """A coframe together with the differential of each generator."""

    def __init__(self, coframe, differentials=None):
        self.coframe = coframe
        diff = {}
        for name, form in (differentials or {}).items():
            pos = coframe._position(name)
            if form.coframe is not coframe:
                raise ModelMismatch(f"differential of {name} uses another coframe")
            if form:
                diff[pos] = form
        self._differentials = diff
        self._form_table = _leibniz_table(
            (pos, m, (c, -c)) for pos, f in diff.items() for m, c in f._masks.items())
        self._integer_table = None  # the differentials times D, on Gaussian integers
        self._d_row_cache = {}  # monomial mask -> D times its d, on Gaussian integers
        self._row_cache = {}  # (source slot, step) -> images, mask-keyed rows
        self._ranks = {}  # (source slots, steps) -> rank of their images
        self._spaces = {}  # slot -> tuple of monomial masks
        self._reports = {}
        self._zero = coframe.zero_form()
        self._check_integrable()

    def __repr__(self):
        return f"<StructureModel {self.coframe!r}>"

    @property
    def table(self):
        return self.coframe.table

    def differential_of(self, name):
        return self._differentials.get(self.coframe.position[name], self._zero)

    # -- the differential and its bidegree parts -----------------------------

    def _check_form(self, form):
        if form.coframe is not self.coframe:
            raise ModelMismatch("form belongs to a different model")

    def _leibniz(self, form, step=None):
        """d of form, the graded Leibniz terms of each monomial summed into one
        term dict, a unit coefficient multiplying nothing; given a bidegree
        step (dp, dq), only the terms in the source bidegree moved by step;
        the zero form at once when no generator has a differential."""
        self._check_form(form)
        if not self._form_table:
            return self._zero
        cf = self.coframe
        one = cf.table.one()
        terms = {}
        for mask, coeff in form._masks.items():
            unit = coeff == one
            target = None if step is None else _shift(cf.monomial_bidegree(mask), step)
            for m, c in _derivation(mask, self._form_table):
                if target is not None and cf.monomial_bidegree(m) != target:
                    continue
                if not unit:
                    c = c * coeff
                old = terms.get(m)
                terms[m] = c if old is None else old + c
        return _form(cf, terms)

    def d(self, form):
        """Graded Leibniz extension of the generator differentials."""
        return self._leibniz(form)

    def del_(self, form):
        """The (1,0) part of d (raises p by one)."""
        return self._leibniz(form, (1, 0))

    def delbar(self, form):
        """The (0,1) part of d (raises q by one)."""
        return self._leibniz(form, (0, 1))

    def deldelbar(self, form):
        return self.del_(self.delbar(form))

    # -- validation -----------------------------------------------------------

    def validate(self):
        """The diagnostics list d(g) = ... of every generator.  It checks
        nothing: the constructor already ran ``_check_integrable`` and a
        model is immutable, so every model that exists has passed."""
        return [f"d({gen.name}) = {self.differential_of(gen.name)}"
                for gen in self.coframe.generators]

    def _check_integrable(self):
        """Check d*d = 0 and the bidegree splitting on every generator, and
        d(conj g) = conj(d g) on every declared conjugate pair; raises
        IntegrabilityError, carrying the offending generators and their
        residual forms, and builds no text unless a check fails."""
        cf = self.coframe
        violations = []
        for pos, gen in enumerate(cf.generators):
            dg = self._differentials.get(pos)
            if dg is None:
                continue
            if dg.total_degree() != 2:
                violations.append((gen.name, dg))
                continue
            p, q = gen.bidegree
            stray = dg - dg.component(p + 1, q) - dg.component(p, q + 1)
            if stray:
                violations.append((gen.name, stray))
                continue
            dd = self.d(dg)
            if dd:
                violations.append((gen.name, dd))
        for pos, mate in enumerate(cf.conjugate_position):
            if mate is None or not cf.generators[pos].holomorphic:
                continue
            residual = (self._differentials.get(mate, self._zero)
                        - self._differentials.get(pos, self._zero).conjugate())
            if residual:
                violations.append((cf.generators[pos].name, residual))
        if violations:
            names = ", ".join(name for name, _ in violations)
            raise IntegrabilityError(
                f"structure equations are not integrable at: {names}", violations)

    # -- graded pieces of the algebra ------------------------------------------

    def monomials_of_degree(self, k):
        return list(map(_positions, self._space(k)))

    def monomials_of_bidegree(self, p, q):
        return list(map(_positions, self._space((p, q))))

    def _space(self, slot):
        """The monomial masks of a degree k or a bidegree (p, q) as a tuple,
        in lexicographic order of their position tuples (holomorphic part
        first); memoized."""
        space = self._spaces.get(slot)
        if space is None:
            bits = [1 << p for p in range(len(self.coframe.generators))]
            h = self.coframe.n_holomorphic
            parts = ([(bits, slot)] if isinstance(slot, int)
                     else zip((bits[:h], bits[h:]), slot))
            space = [0]
            for part, k in parts:
                space = [m + s for m in space
                         for s in map(sum, combinations(part, k))] if k >= 0 else []
            space = self._spaces[slot] = tuple(space)
        return space

    def _vector(self, form, theory, slot, monomials):
        index = {m: i for i, m in enumerate(monomials)}
        vec = [ZERO] * len(monomials)
        for mon, coeff in form._masks.items():
            if mon not in index:
                monomial = _form(self.coframe, {mon: self.table.one()})
                raise ValueError(f"{monomial} is not in {theory} slot {slot}")
            vec[index[mon]] = self._constant(coeff)
        return vec

    def _constant(self, coeff):
        if not coeff.is_constant():
            raise UnspecializedParameters(
                f"specialize the parameters {sorted(coeff.variables_used())} "
                "before exact linear algebra")
        return coeff.constant_value()

    def _integer_d(self, mask):
        """D times d of a monomial mask as a Gaussian-integer row {mask: (re,
        im)}, D the common denominator of the differentials; memoized."""
        row = self._d_row_cache.get(mask)
        if row is None:
            if self._integer_table is None:
                cleared, _ = _integer_terms({
                    (pos, m): self._constant(c)
                    for pos, form in self._differentials.items()
                    for m, c in form._masks.items()})
                self._integer_table = _leibniz_table(
                    (*key, (xy, (-xy[0], -xy[1]))) for key, xy in cleared.items())
            row = self._d_row_cache[mask] = _row(_derivation(mask, self._integer_table))
        return row

    def _rows(self, slot, step):
        """The image of each monomial of a slot under the operator that adds
        step, times D (D squared for (1, 1)), as Gaussian-integer rows {mask:
        (re, im)}; memoized.  Step 1 gives the integer d rows as they are.  A
        bidegree's d rows are split once, by the holomorphic popcount of each
        target, into (1, 0) and (0, 1) parts, a part that is the whole row
        being the row; d of the (0, 1) rows is del delbar, as delbar^2 = 0."""
        key = (slot, step)
        rows = self._row_cache.get(key)
        if rows is None:
            if step == 1:
                rows = list(map(self._integer_d, self._space(slot)))
            elif step == (1, 1):
                d = self._integer_d
                rows = [_row((m, (a * x - b * y, a * y + b * x))
                             for c, (a, b) in row.items() for m, (x, y) in d(c).items())
                        if row else row for row in self._rows(slot, (0, 1))]
            else:
                holo, p = (1 << self.coframe.n_holomorphic) - 1, slot[0]
                parts = [], []
                for row in self._rows(slot, 1):
                    if not row:  # nothing to split
                        parts[0].append(row)
                        parts[1].append(row)
                        continue
                    up, down = {}, {}
                    for m, v in row.items():
                        (up if (m & holo).bit_count() > p else down)[m] = v
                    parts[0].append(up if down else row)
                    parts[1].append(down if up else row)
                self._row_cache[slot, (1, 0)], self._row_cache[slot, (0, 1)] = parts
                return parts[step[1]]
            self._row_cache[key] = rows
        return rows

    def _images(self, slot, step):
        """``_rows`` keyed by monomial index in the moved slot."""
        return _rekey(self._rows(slot, step), self._space(_shift(slot, step)))

    # -- cohomology --------------------------------------------------------------

    def cohomology(self, theory, slot):
        """The report of one of the four theories, its dimension from ranks.

        de Rham takes an integer degree; the bigraded theories take a
        bidegree pair (p, q).
        """
        theory, slot = _normalize_slot(theory, slot)
        key = (theory, slot)
        cached = self._reports.get(key)
        if cached is not None:
            return cached
        cocycle, boundary = OPERATORS[theory]
        # ker del and ker delbar meet in ker d, d landing in two bidegrees
        step = 1 if len(cocycle) > 1 else cocycle[0]
        images = self._rows(slot, step)
        sources = [_shift(slot, s, -1) for s in boundary]
        boundaries = self._rows(sources[0], boundary[0])  # the memoized rows, not a copy
        if len(boundary) > 1:  # Aeppli joins its del and delbar images
            boundaries = boundaries + self._rows(sources[1], boundary[1])
        space = self._space(slot)
        dimension = len(space)
        for k, rows in (((slot, step), images), ((*sources, *boundary), boundaries)):
            if (rank := self._ranks.get(k)) is None:  # shared by the slots with key k
                rank = self._ranks[k] = linalg.rank(rows)
            dimension -= rank
        return self._reports.setdefault(key, CohomologyReport(
            theory, slot, dimension, self.coframe, (space, images, boundaries)))

    def betti(self, k):
        return self.cohomology(DE_RHAM, k).dimension

    def ddbar_criterion(self, k):
        """Compare 2 b_k with the total Bott-Chern plus Aeppli dimension in
        degree k; equality in every degree characterizes the del-delbar
        property of the model."""
        cf = self.coframe
        total = sum(self.cohomology(theory, (p, k - p)).dimension
                    for p in range(max(0, k - cf.n_antiholomorphic),
                                   min(cf.n_holomorphic, k) + 1)
                    for theory in (BOTT_CHERN, AEPPLI))
        return DdbarCheck(degree=k, betti_doubled=2 * self.betti(k),
                          bott_chern_aeppli=total)

    def class_of(self, form, theory, slot):
        """Coordinates of a cocycle in the computed basis of its cohomology
        slot; raises NotClosed when the cocycle condition fails."""
        self._check_form(form)
        theory, slot = _normalize_slot(theory, slot)
        space = self._space(slot)
        vec = self._vector(form, theory, slot, space)
        report = self.cohomology(theory, slot)
        reps = [self._vector(b, theory, slot, space) for b in report.basis]
        boundaries = [{r: GaussianRational(x, y) for r, (x, y) in b.items()}
                      for b in self._boundary_vectors(theory, slot)]
        matrix = [[rep[r] for rep in reps] + [b.get(r, ZERO) for b in boundaries]
                  for r in range(len(space))]
        solution = linalg.solve(matrix, vec)
        if solution is None:  # the reps and boundaries span the cocycles
            raise NotClosed(f"{form} fails the {theory} cocycle condition")
        return tuple(solution[: report.dimension])

    def _boundary_vectors(self, theory, slot):
        return [v for step in OPERATORS[theory][1]
                for v in self._images(_shift(slot, step, -1), step)]

    def lambda_map(self, omega, theory, source_slot):
        """The wedge-with-omega map between cohomology slots.

        omega must be homogeneous and closed for the theory's operator; the
        source slot determines the target slot by adding omega's (bi)degree.
        """
        self._check_form(omega)
        theory, source_slot = _normalize_slot(theory, source_slot)
        step = (omega.total_degree() if isinstance(source_slot, int)
                else omega.bidegree())
        if step is None:
            raise ValueError("omega must be homogeneous" if omega else "omega is zero")
        closed = "delbar" if theory == DOLBEAULT else "d"
        if getattr(self, closed)(omega):
            raise NotClosed(f"omega is not {closed}-closed")
        target_slot = _shift(source_slot, step)
        source = self.cohomology(theory, source_slot)
        target = self.cohomology(theory, target_slot)
        columns = [self.class_of(omega.wedge(rep), theory, target_slot)
                   for rep in source.basis]
        matrix = tuple(tuple(columns[c][r] for c in range(source.dimension))
                       for r in range(target.dimension))
        return LambdaMap(source=source, target=target, matrix=matrix)


def _leibniz_table(terms):
    """The (position i, mask, (coefficient, its negative)) terms of the
    differentials as ((bit of i, terms), ...) in position order, each term
    (mask, signer, signed) with signer = bit of i ^ mask.  The Leibniz term
    of x_i in the monomial bit | rest is product_sign(bit, rest) *
    product_sign(mask, rest) times mask | rest: x_i moved to the front, then
    d(x_i) wedged with rest.  The parity of product_sign is additive in its left mask
    under ^, so that is product_sign(signer, rest), which is 0 exactly when
    mask meets rest."""
    table = {}
    for pos, mask, signed in terms:
        table.setdefault(pos, []).append((mask, (1 << pos) ^ mask, signed))
    return tuple((1 << pos, tuple(table[pos])) for pos in sorted(table))


def _derivation(mask, table):
    """(mask, coefficient) of each term of d(monomial) by the graded Leibniz
    rule, on bitmasks; a term that meets the rest of the monomial is 0."""
    for bit, terms in table:
        if mask & bit:
            rest = mask ^ bit
            for term, signer, signed in terms:
                sign = product_sign(signer, rest)
                if sign:
                    yield rest | term, signed[sign < 0]


def _row(entries):
    """The Gaussian-integer row {key: (re, im)} of (key, (re, im)) entries,
    like keys summed and zeros dropped."""
    out = {}
    for c, xy in entries:
        old = out.get(c)
        out[c] = xy if old is None else (old[0] + xy[0], old[1] + xy[1])
    if (0, 0) in out.values():
        return {c: xy for c, xy in out.items() if xy != (0, 0)}
    return out


def _rekey(rows, space):
    """Rows {mask: (re, im)} over the monomials of space, keyed by index."""
    index = {m: i for i, m in enumerate(space)}
    return [{index[m]: xy for m, xy in row.items()} if row else row for row in rows]


def _report_row(s, row, space):
    """(s, monomial, re, im, ...) of a row in monomial order, each monomial
    the position tuple of its mask in space; no sort for a unit."""
    if len(row) == 1:
        [(c, (x, y))] = row.items()
        return (s, _positions(space[c]), x, y)
    return (s, *[v for c in sorted(row) for v in (_positions(space[c]), *row[c])])


def _shift(slot, step, sign=1):
    """A degree or bidegree moved by sign * step."""
    if isinstance(slot, int):
        return slot + sign * step
    return (slot[0] + sign * step[0], slot[1] + sign * step[1])


def _normalize_slot(theory, slot):
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}; expected one of {THEORIES}")
    if theory == DE_RHAM:
        if not _is_int(slot):
            raise ValueError(
                f"de Rham cohomology takes an integer degree k, got {slot!r}")
        return theory, slot
    if not (isinstance(slot, (tuple, list)) and len(slot) == 2
            and _is_int(slot[0]) and _is_int(slot[1])):
        raise ValueError(f"{theory} cohomology takes a bidegree pair (p, q) "
                         f"of integers, got {slot!r}")
    return theory, tuple(slot)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)
