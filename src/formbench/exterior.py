"""The free graded-commutative bigraded algebra on a coframe of degree-one
generators: wedge products, powers, conjugation, bidegree decomposition and
top-degree integration.

Monomials are kept in a fixed canonical order: all (1,0) generators in the
order listed, then all (0,1) generators in the order listed.  Every sign in
the package is normalized to this order, which keeps rendered output and
golden comparisons deterministic.  Forms and coframes are immutable and all
operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelMismatch, UnknownVariable
from .scalars import binary_power, conjugate_pairing, join_terms


@dataclass(frozen=True)
class Generator:
    """A degree-one generator of type (1,0) or (0,1)."""

    name: str
    bidegree: tuple

    @property
    def holomorphic(self):
        return self.bidegree == (1, 0)


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


class Coframe:
    """An ordered family of degree-one generators with bidegrees, an optional
    conjugation pairing, a scalar variable table and an optional volume
    monomial (spanning the top exterior power).

    ``conjugates`` maps generator names to their mates; it must pair (1,0)
    with (0,1) generators as an involution, each pair listed in one or both
    directions.
    """

    def __init__(self, generators, table, conjugates=None, volume=None):
        generators = tuple(generators)
        n_holo = sum(1 for g in generators if g.holomorphic)
        for pos, gen in enumerate(generators):
            if gen.bidegree not in ((1, 0), (0, 1)):
                raise ValueError(f"{gen.name}: bidegree must be (1,0) or (0,1)")
            if not gen.holomorphic and pos < n_holo:
                raise ValueError("generators must list all (1,0) before (0,1)")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        clash = set(names) & set(table.names)
        if clash:
            raise ValueError(f"names shared by generators and scalars: {clash}")
        self.generators = generators
        self.table = table
        self.n_holomorphic = n_holo
        self.n_antiholomorphic = len(generators) - n_holo
        self.position = {g.name: i for i, g in enumerate(generators)}
        mates = conjugate_pairing((conjugates or {}).items())
        unknown = sorted(mates.keys() - self.position.keys())
        if unknown:
            raise ValueError(f"unknown conjugate {unknown[0]!r}")
        conj = [None] * len(generators)
        for name, mate in mates.items():
            i, j = self.position[name], self.position[mate]
            if generators[i].bidegree == generators[j].bidegree:
                raise ValueError(f"{name} and {mate} have the same type")
            conj[i] = j
        self.conjugate_position = tuple(conj)
        if volume is None:
            self.volume_monomial = None
            self.volume_sign = 1
        else:
            listed = [self.position[name] for name in volume]
            if sorted(listed) != list(range(len(generators))):
                raise ValueError("volume must name every generator exactly once")
            sign, mon = sort_with_sign(listed)
            self.volume_monomial = mon
            self.volume_sign = sign
        self.volume_variable = "V"
        if volume is not None and "V" not in table.names:
            raise ValueError("scalar table must declare V")

    def __repr__(self):
        names = ",".join(g.name for g in self.generators)
        return f"<Coframe {names}>"

    def monomial_bidegree(self, monomial):
        p = sum(1 for pos in monomial if pos < self.n_holomorphic)
        return (p, len(monomial) - p)

    # -- form constructors ---------------------------------------------------

    def zero_form(self):
        return Form(self, {})

    def unit(self, scalar=1):
        return Form(self, {(): self.table.coerce(scalar)})

    def generator_form(self, name):
        if name not in self.position:
            raise UnknownVariable(name)
        return Form(self, {(self.position[name],): self.table.one()})

    def monomial_form(self, names, coefficient=1):
        positions = [self.position[n] for n in names]
        sign, mon = sort_with_sign(positions)
        if sign == 0:
            return self.zero_form()
        coeff = self.table.coerce(coefficient)
        return Form(self, {mon: coeff if sign > 0 else -coeff})

    def form(self, terms):
        """Build a form from {monomial names tuple: coefficient}."""
        total = self.zero_form()
        for names, coeff in terms.items():
            total = total + self.monomial_form(names, coeff)
        return total


class Form:
    """A sparse element of the exterior algebra: canonical monomials mapped to
    polynomial coefficients."""

    __slots__ = ("coframe", "terms")

    def __init__(self, coframe, terms):
        object.__setattr__(self, "coframe", coframe)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    def _check(self, other):
        if other.coframe is not self.coframe:
            raise ModelMismatch("forms over different coframes")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

    # -- additive structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Form(self.coframe, terms)

    def __neg__(self):
        return Form(self.coframe, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    # -- multiplicative structure ---------------------------------------------

    def scaled(self, scalar):
        coeff = self.coframe.table.coerce(scalar)
        return Form(self.coframe, {m: c * coeff for m, c in self.terms.items()})

    def wedge(self, other):
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mon = merge_monomials(m1, m2)
                if sign == 0:
                    continue
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = terms.get(mon)
                s = c if s is None else s + c
                if s:
                    terms[mon] = s
                else:
                    terms.pop(mon, None)
        return Form(self.coframe, terms)

    def __mul__(self, other):
        if isinstance(other, Form):
            return self.wedge(other)
        return self.scaled(other)

    def __rmul__(self, other):
        # scalars commute past the coefficient ring
        return self.scaled(other)

    def power(self, k):
        """k-th wedge power by binary exponentiation; power 0 is the unit."""
        return binary_power(self, k, self.coframe.unit())

    __pow__ = power

    # -- grading ---------------------------------------------------------------

    def bidegree(self):
        """The (p,q) of a homogeneous form, None for zero or mixed forms."""
        degrees = {self.coframe.monomial_bidegree(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def total_degree(self):
        degrees = {len(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def component(self, p, q):
        """Projection onto the monomials of bidegree (p, q)."""
        wanted = (p, q)
        return Form(
            self.coframe,
            {m: c for m, c in self.terms.items()
             if self.coframe.monomial_bidegree(m) == wanted},
        )

    # -- involution, evaluation, integration -----------------------------------

    def conjugate(self):
        """Antilinear involution swapping bidegrees (p,q) <-> (q,p)."""
        conj = self.coframe.conjugate_position
        terms = {}
        for m, c in self.terms.items():
            mapped = []
            for pos in m:
                if conj[pos] is None:
                    raise UnknownVariable(
                        f"{self.coframe.generators[pos].name} has no conjugate"
                    )
                mapped.append(conj[pos])
            sign, mon = sort_with_sign(mapped)
            coeff = c.conjugate()
            if sign < 0:
                coeff = -coeff
            s = terms.get(mon)
            terms[mon] = coeff if s is None else s + coeff
        return Form(self.coframe, terms)

    def substitute(self, assignment):
        return Form(
            self.coframe,
            {m: c.substitute(assignment) for m, c in self.terms.items()},
        )

    def integrate(self):
        """The coefficient of the declared volume monomial times the formal
        total volume V; lower-degree components contribute zero."""
        cf = self.coframe
        if cf.volume_monomial is None:
            raise ValueError("coframe has no volume monomial")
        coeff = self.terms.get(cf.volume_monomial)
        if coeff is None:
            return cf.table.zero()
        value = coeff * cf.table.variable(cf.volume_variable)
        return value if cf.volume_sign > 0 else -value

    # -- rendering ---------------------------------------------------------------

    def _coefficient_text(self, coeff):
        if coeff == self.coframe.table.one():
            return ""
        minus_one = self.coframe.table.constant(-1)
        if coeff == minus_one:
            return "-"
        text = str(coeff)
        if len(coeff.ints) > 1 or ("+" in text or "-" in text[1:]):
            return f"({text})*"
        return f"{text}*"

    def __str__(self):
        names = [g.name for g in self.coframe.generators]
        pieces = []
        for mon, coeff in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            body = "^".join(names[p] for p in mon)
            if not body:
                pieces.append(str(coeff) if len(coeff.ints) == 1 else f"({coeff})")
                continue
            pieces.append(f"{self._coefficient_text(coeff)}{body}")
        return join_terms(pieces)

    def __repr__(self):
        return f"<Form {self}>"

