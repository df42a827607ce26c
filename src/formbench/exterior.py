"""The free graded-commutative bigraded algebra on a coframe of degree-one
generators: wedge products, powers, conjugation, bidegree decomposition and
top-degree integration.

A monomial is a bitmask, bit p for the generator at position p, and stands
for its generators in the canonical order: all (1,0) generators in the order
listed, then all (0,1) generators in the order listed.  ``product_sign`` is
the one sign rule of the package: two monomials wedge to their union with
the parity of one bit count, or to zero when they share a generator.  A
Form stores {mask: coefficient}; position tuples are built only where a
monomial leaves the package: the ``terms`` view, rendering and error
messages.  Forms and coframes are immutable and all operations are pure, so
values can be shared freely across threads.
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


def product_sign(left, right):
    """The sign of the wedge of the monomials of masks left and right as the
    monomial of left | right, 0 when they share a generator: the parity of
    the pairs of a generator of left above one of right is one bit count,
    popcount(right & crossing), crossing the positions below an odd number
    of the generators of left."""
    if left & right:
        return 0
    crossing = 0
    while left:
        low = left & -left
        crossing ^= low - 1
        left ^= low
    return -1 if (right & crossing).bit_count() & 1 else 1


def _sorted(positions):
    """(sign, mask) of the product of the generators at positions in the
    order given, sign 0 when a generator repeats."""
    sign, mask = 1, 0
    for pos in positions:
        sign *= product_sign(mask, 1 << pos)
        mask |= 1 << pos
    return sign, mask


def _positions(mask):
    """The increasing position tuple of a monomial mask."""
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


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
            listed = list(map(self._position, volume))
            if sorted(listed) != list(range(len(generators))):
                raise ValueError("volume must name every generator exactly once")
            self.volume_monomial = tuple(range(len(generators)))
            self.volume_sign = _sorted(listed)[0]
        self.volume_variable = "V"
        if volume is not None and "V" not in table.names:
            raise ValueError("scalar table must declare V")

    def __repr__(self):
        names = ",".join(g.name for g in self.generators)
        return f"<Coframe {names}>"

    def monomial_bidegree(self, mask):
        q = (mask >> self.n_holomorphic).bit_count()
        return (mask.bit_count() - q, q)

    # -- form constructors ---------------------------------------------------

    def zero_form(self):
        return _form(self, {})

    def unit(self, scalar=1):
        return _form(self, {0: self.table.coerce(scalar)})

    def _position(self, name):
        if name not in self.position:
            raise UnknownVariable(name)
        return self.position[name]

    def generator_form(self, name):
        return _form(self, {1 << self._position(name): self.table.one()})

    def monomial_form(self, names, coefficient=1):
        sign, mask = _sorted(map(self._position, names))
        if sign == 0:
            return self.zero_form()
        coeff = self.table.coerce(coefficient)
        return _form(self, {mask: coeff if sign > 0 else -coeff})

    def form(self, terms):
        """Build a form from {monomial names tuple: coefficient}."""
        total = self.zero_form()
        for names, coeff in terms.items():
            total = total + self.monomial_form(names, coeff)
        return total


class Form:
    """A sparse element of the exterior algebra: monomial masks mapped to
    nonzero polynomial coefficients.  The constructor takes them keyed by
    strictly increasing position tuples; ``terms`` is that view, built on
    each read."""

    __slots__ = ("coframe", "_masks")

    def __init__(self, coframe, terms):
        n = len(coframe.generators)
        masks = {}
        for mon, c in terms.items():
            mask = 0
            for pos in mon:
                if not 0 <= pos < n or mask >> pos:
                    raise ValueError(f"monomial {mon!r} is not a strictly "
                                     f"increasing tuple of positions below {n}")
                mask |= 1 << pos
            if c:
                masks[mask] = c
        _set(self, "coframe", coframe)
        _set(self, "_masks", masks)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    @property
    def terms(self):
        return {_positions(m): c for m, c in self._masks.items()}

    def _check(self, other):
        if other.coframe is not self.coframe:
            raise ModelMismatch("forms over different coframes")

    def __bool__(self):
        return bool(self._masks)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        return self._masks == other._masks

    __hash__ = None

    # -- additive structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        masks = dict(self._masks)
        for m, c in other._masks.items():
            old = masks.get(m)
            masks[m] = c if old is None else old + c
        return _form(self.coframe, masks)

    def __neg__(self):
        return _form(self.coframe, {m: -c for m, c in self._masks.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    # -- multiplicative structure ---------------------------------------------

    def scaled(self, scalar):
        coeff = self.coframe.table.coerce(scalar)
        return _form(self.coframe, {m: c * coeff for m, c in self._masks.items()})

    def wedge(self, other):
        self._check(other)
        masks = {}
        right = other._masks.items()
        for m1, c1 in self._masks.items():
            for m2, c2 in right:
                sign = product_sign(m1, m2)
                if sign:
                    c = c1 * c2 if sign > 0 else -(c1 * c2)
                    old = masks.get(m1 | m2)
                    masks[m1 | m2] = c if old is None else old + c
        return _form(self.coframe, masks)

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
        degrees = {self.coframe.monomial_bidegree(m) for m in self._masks}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def total_degree(self):
        degrees = {m.bit_count() for m in self._masks}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def component(self, p, q):
        """Projection onto the monomials of bidegree (p, q)."""
        wanted = (p, q)
        bidegree = self.coframe.monomial_bidegree
        return _form(self.coframe, {m: c for m, c in self._masks.items()
                                    if bidegree(m) == wanted})

    # -- involution, evaluation, integration -----------------------------------

    def conjugate(self):
        """Antilinear involution swapping bidegrees (p,q) <-> (q,p)."""
        cf = self.coframe
        conj = cf.conjugate_position
        masks = {}
        for m, c in self._masks.items():
            mates = [conj[pos] for pos in _positions(m)]
            if None in mates:
                pos = _positions(m)[mates.index(None)]
                raise UnknownVariable(f"{cf.generators[pos].name} has no conjugate")
            sign, mask = _sorted(mates)  # distinct masks map to distinct masks
            masks[mask] = c.conjugate() if sign > 0 else -c.conjugate()
        return _form(cf, masks)

    def substitute(self, assignment):
        return _form(self.coframe, {m: c.substitute(assignment)
                                    for m, c in self._masks.items()})

    def integrate(self):
        """The coefficient of the declared volume monomial times the formal
        total volume V; lower-degree components contribute zero."""
        cf = self.coframe
        if cf.volume_monomial is None:
            raise ValueError("coframe has no volume monomial")
        # the volume names every generator
        coeff = self._masks.get((1 << len(cf.generators)) - 1)
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


_set = object.__setattr__


def _form(coframe, masks):
    """A Form from {mask: coefficient}, zero coefficients dropped, with no
    check of the masks."""
    form = object.__new__(Form)
    _set(form, "coframe", coframe)
    _set(form, "_masks", {m: c for m, c in masks.items() if c})
    return form
