"""Exact coefficient arithmetic: Gaussian rationals extended by named formal
parameters with a conjugation involution.

A polynomial is stored as Gaussian-integer numerators over one positive
denominator, in lowest terms, so its ring operations run on Python ints and
build no Fraction; a GaussianRational of two Fractions is made only where a
single coefficient is read (``terms``, ``constant_value``, ``substitute``,
rendering).  Each monomial is keyed by one packed int with a 32-bit field
per variable, variable 0 the most significant, so a product adds keys and
int order is the lex order of the exponent tuples; the top bit of each field
is a guard, so an exponent must stay below 2**31 and OverflowError is raised
otherwise.  A ScalarFraction removes the common integer content of its
parts on construction.

Everything here is immutable after construction and safe to share between
threads; all operations return fresh values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .errors import ConjugationMismatch, UnknownVariable

_FIELD = 32  # bits per variable in a packed monomial key, the top one a guard
_MASK = (1 << _FIELD) - 1


def binary_power(base, k, one):
    """base**k by repeated squaring; ``one`` is returned for k = 0, and no
    product involves the unit or follows the last bit of k."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if k < 2:
        return base if k else one
    half = binary_power(base * base, k >> 1, one)
    return half * base if k & 1 else half


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """An element of Q(i), stored as a pair of reduced fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def of(cls, value):
        if isinstance(value, GaussianRational):
            return value
        return cls(_as_fraction(value))

    @classmethod
    def _maybe(cls, value):
        if isinstance(value, (GaussianRational, int, Fraction)):
            return cls.of(value)
        return None

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm(self):
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = GaussianRational._maybe(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussianRational._maybe(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = GaussianRational._maybe(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = GaussianRational._maybe(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        w = self * other.conjugate()
        return GaussianRational(w.re / n, w.im / n)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __pow__(self, k):
        return binary_power(self, k, GaussianRational(1))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = imag.lstrip("-")
        return f"{self.re}{sign}{mag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


I = GaussianRational(0, 1)

ZERO = GaussianRational(0)

ONE = GaussianRational(1)


def conjugate_pairing(pairs):
    """The symmetric {name: mate} map of an involution given as (a, b) pairs,
    each listed in one or both directions; a name with two mates raises
    ValueError."""
    mates = {}
    for a, b in pairs:
        for name, mate in ((a, b), (b, a)):
            if mates.setdefault(name, mate) != mate:
                raise ValueError(f"inconsistent conjugate pairing at {name}")
    return mates


class VariableTable:
    """The declared formal parameters of a model and their conjugation pairing.

    Each variable may be paired with a distinct conjugate (t <-> tb), declared
    self-conjugate (a real symbol such as the total volume V), or left without
    a conjugation declaration, in which case conjugation of any scalar
    mentioning it raises UnknownVariable.
    """

    __slots__ = ("names", "_index", "_conj", "_conj_index", "_shifts", "_guard")

    def __init__(self, declarations=()):
        pairs = [(decl, None) if isinstance(decl, str) else decl
                 for decl in declarations]
        self.names = tuple(dict.fromkeys(n for p in pairs for n in p if n is not None))
        if "i" in self.names:
            raise ValueError("'i' is reserved for the imaginary unit")
        conj = conjugate_pairing((a, b) for a, b in pairs if b is not None)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._conj = conj
        self._conj_index = tuple(
            self._index[conj[n]] if n in conj else None for n in self.names
        )
        self._shifts = tuple(range(_FIELD * (len(self.names) - 1), -1, -_FIELD))
        self._guard = sum(1 << s + _FIELD - 1 for s in self._shifts)

    def __eq__(self, other):
        if not isinstance(other, VariableTable):
            return NotImplemented
        return self.names == other.names and self._conj == other._conj

    def __hash__(self):
        return hash((self.names, tuple(sorted(self._conj.items()))))

    def __repr__(self):
        return f"VariableTable({self.names!r})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def conjugate_of(self, name):
        """The declared conjugate of ``name``, or None if undeclared."""
        if name not in self._index:
            raise UnknownVariable(name)
        return self._conj.get(name)

    def _pack(self, exponents):
        """The packed key of an exponent tuple."""
        key = 0
        for name, e in zip(self.names, exponents, strict=True):
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e >> _FIELD - 1:
                raise OverflowError(f"an exponent of {name} reaches 2**{_FIELD - 1}")
            key = key << _FIELD | e
        return key

    def _unpack(self, key):
        """The exponent tuple of a packed key."""
        return tuple(key >> s & _MASK for s in self._shifts)

    def _overflow(self, key):
        """The OverflowError of a key with a guard bit set, naming the
        variable of its leading one."""
        name = self.names[-1 - ((key & self._guard).bit_length() - 1) // _FIELD]
        return OverflowError(f"an exponent of {name} reaches 2**{_FIELD - 1}")

    def zero(self):
        return _poly(self, 1, {})

    def one(self):
        return self.constant(1)

    def constant(self, value):
        if isinstance(value, (int, Fraction)):  # bool included, as 0 or 1
            ints = {0: (value.numerator, 0)} if value else {}
            return _poly(self, value.denominator, ints)
        return PolyScalar(self, {(0,) * len(self.names): GaussianRational.of(value)})

    def variable(self, name, power=1):
        return self.monomial({name: power})

    def monomial(self, exponents, coefficient=1):
        """The scalar monomial coefficient * prod(var**exp)."""
        exps = [0] * len(self.names)
        for name, e in exponents.items():
            exps[self.index(name)] += e
        return PolyScalar(self, {tuple(exps): GaussianRational.of(coefficient)})

    def coerce(self, value):
        if isinstance(value, PolyScalar):
            if value.table is not self and value.table != self:
                raise ValueError("scalar belongs to a different variable table")
            return value
        return self.constant(value)


class PolyScalar:
    """A multivariate polynomial over Q(i) in the variables of a table.

    Stored as Gaussian-integer numerators over one denominator: ``ints``
    maps packed monomial keys (the module docstring; 0 is the constant
    monomial) to (re, im) integer pairs, none of them (0, 0), and ``den`` is
    a positive integer with gcd(den, every part) = 1.  The form is
    canonical, so equality compares (den, ints).  ``terms`` is the
    {exponent tuple: GaussianRational} view, built on each read; the
    constructor takes such a map.
    """

    __slots__ = ("table", "den", "ints")

    def __new__(cls, table, terms):
        # every key is packed, so a zero coefficient still has its exponents checked
        ints, den = _integer_terms({table._pack(e): c for e, c in terms.items()})
        return _poly(table, den, ints)

    def __setattr__(self, name, value):
        raise AttributeError("PolyScalar is immutable")

    @property
    def terms(self):
        den, unpack = self.den, self.table._unpack
        return {unpack(e): GaussianRational(Fraction(re, den), Fraction(im, den))
                for e, (re, im) in self.ints.items()}

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolyScalar):
            if other.table is not self.table and other.table != self.table:
                raise ValueError("scalars over different variable tables")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.table.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        k = den // self.den
        ints = {e: (a * k, b * k) for e, (a, b) in self.ints.items()}
        k = den // other.den
        for e, (c, d) in other.ints.items():
            a, b = ints.get(e, (0, 0))
            ints[e] = (a + c * k, b + d * k)
        return _reduced(self.table, den, ints)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.table, self.den,
                     {e: (-a, -b) for e, (a, b) in self.ints.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        right = other.ints.items()
        guard = self.table._guard
        sums = {}
        for e1, (a, b) in self.ints.items():
            for e2, (c, d) in right:
                e = e1 + e2
                if e & guard:
                    raise self.table._overflow(e)
                re, im = sums.get(e, (0, 0))
                sums[e] = (re + a * c - b * d, im + a * d + b * c)
        return _reduced(self.table, self.den * other.den, sums)

    __rmul__ = __mul__

    def __pow__(self, k):
        return binary_power(self, k, self.table.one())

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    __hash__ = None

    # -- structure ---------------------------------------------------------

    def is_constant(self):
        return self.ints.keys() <= {0}

    def constant_value(self):
        """The value of a constant polynomial as a GaussianRational."""
        if not self.ints:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        (re, im), = self.ints.values()
        return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))

    def variables_used(self):
        used = reduce(or_, self.ints, 0)
        return {name for name, s in zip(self.table.names, self.table._shifts)
                if used >> s & _MASK}

    def coefficients_in(self, name):
        """Split into {power: coefficient polynomial} with respect to one
        variable."""
        s = self.table._shifts[self.table.index(name)]
        split = {}
        for e, c in self.ints.items():
            k = e >> s & _MASK
            split.setdefault(k, {})[e - (k << s)] = c
        make = _poly if len(split) == 1 else _reduced  # one part stays canonical
        return {k: make(self.table, self.den, t) for k, t in split.items()}

    # -- involution and evaluation ------------------------------------------

    def conjugate(self):
        """Antilinear involution: conjugate coefficients and swap each
        variable with its declared conjugate."""
        table = self.table
        ints = {}
        for e, (a, b) in self.ints.items():
            new = 0
            for i, k in enumerate(table._unpack(e) if e else ()):
                if not k:
                    continue
                j = table._conj_index[i]
                if j is None:
                    raise UnknownVariable(
                        f"{table.names[i]} has no conjugation declaration"
                    )
                new |= k << table._shifts[j]
            ints[new] = (a, -b)
        return _poly(self.table, self.den, ints)

    def substitute(self, assignment):
        """Evaluate some variables at exact values; unassigned variables stay
        formal.  The assignment is closed under conjugation and must be
        conjugation-consistent."""
        table = self.table
        resolved = {}
        for name, value in assignment.items():
            table.index(name)
            resolved[name] = GaussianRational.of(value)
        for name, value in list(resolved.items()):
            mate = table._conj.get(name)
            if mate is None or mate == name:
                continue
            expected = value.conjugate()
            if mate in resolved:
                if resolved[mate] != expected:
                    raise ConjugationMismatch(
                        f"{mate} must be the conjugate of {name}"
                    )
            else:
                resolved[mate] = expected
        for name, value in resolved.items():
            if table._conj.get(name) == name and value.im != 0:
                raise ConjugationMismatch(f"{name} is real but got {value}")
        result = self
        for name, value in resolved.items():
            total = table.zero()
            for k, c in result.coefficients_in(name).items():
                total = total + (c * value ** k if k else c)
            result = total
        return result

    # -- rendering -----------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def _monomial_text(self, exponents):
        parts = []
        for name, e in zip(self.table.names, exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        rendered = []
        for e, c in self._sorted_terms():
            mon = self._monomial_text(e)
            if not mon:
                rendered.append(str(c))
            elif c == ONE:
                rendered.append(mon)
            elif c == -ONE:
                rendered.append(f"-{mon}")
            elif c.re != 0 and c.im != 0:
                rendered.append(f"({c})*{mon}")
            else:
                rendered.append(f"{c}*{mon}")
        return join_terms(rendered)

    def __repr__(self):
        return f"<PolyScalar {self}>"


def join_terms(pieces):
    """A sum of rendered terms, a leading minus written as " - "; "0" when
    there are none."""
    if not pieces:
        return "0"
    return pieces[0] + "".join(
        f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        for piece in pieces[1:]
    )


def _integer_terms(terms):
    """The nonzero entries of a {key: GaussianRational} map as a
    {key: (re, im)} map of Gaussian-integer numerators over one common
    denominator, and that denominator; its gcd with all the parts is 1."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
    return {
        e: (c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator))
        for e, c in terms.items() if c
    }, den


def _content(poly):
    """The gcd of every numerator part of a polynomial; 0 for zero."""
    return gcd(*chain.from_iterable(poly.ints.values()))


def without_content(polys):
    """The polynomials divided by their common rational content, as integer
    polynomials; at least one must be nonzero."""
    g = gcd(*map(_content, polys))
    den = lcm(*(poly.den for poly in polys))
    if g == 1 and den == 1:
        return polys
    return [_divided(poly, g, den) for poly in polys]


def _divided(poly, g, den):
    """poly * den / g as an integer polynomial, for den a multiple of
    poly.den and g a divisor of every part."""
    k = den // poly.den
    return _poly(poly.table, 1,
                 {e: (a // g * k, b // g * k) for e, (a, b) in poly.ints.items()})


_set = object.__setattr__


def _poly(table, den, ints):
    """A PolyScalar from parts already in canonical form."""
    poly = object.__new__(PolyScalar)
    _set(poly, "table", table)
    _set(poly, "den", den)
    _set(poly, "ints", ints)
    return poly


def _reduced(table, den, ints):
    """ints / den as a canonical PolyScalar, which may keep the ints dict:
    (0, 0) entries dropped and the gcd of den and every part divided out."""
    if (0, 0) in ints.values():
        ints = {e: p for e, p in ints.items() if p != (0, 0)}
    g = den
    for re, im in ints.values():
        g = gcd(g, re, im)
        if g == 1:
            return _poly(table, den, ints)
    return _poly(table, den // g,
                 {e: (re // g, im // g) for e, (re, im) in ints.items()})


def _exact_quotient(p, q):
    """p / q when the nonzero q divides p in Q(i)[vars], None otherwise.

    Division by the lex-leading term of q, read on the integer form: the
    remainder's leading term is divided by q's (None when an exponent goes
    negative, seen as a guard bit cleared by the key subtraction) and that
    term times q is subtracted.  Each step cancels the remainder's leading
    term, so the loop ends."""
    guard = p.table._guard
    f = max(q.ints)
    a, b = q.ints[f]
    quotient, rest = p.table.zero(), p
    while rest:
        lead = max(rest.ints)
        e = (lead | guard) - f
        if e & guard != guard:
            return None
        # (x + iy)/rest.den over (a + ib)/q.den, as (x + iy)(a - ib) q.den
        # over rest.den |a + ib|^2
        x, y = rest.ints[lead]
        term = _reduced(p.table, rest.den * (a * a + b * b), {
            e ^ guard: ((x * a + y * b) * q.den, (y * a - x * b) * q.den)})
        quotient, rest = quotient + term, rest - term * q
    return quotient


class ScalarFraction:
    """A formal quotient of polynomials, compared by cross-multiplication
    unless a numerator is zero or the denominators are equal; Gram matrices
    are compared on their numerators instead (bbf.gram_discrepancies).

    It supports equality, truth, negation, scaling (``*``) and rendering
    only.  Only integer content is removed on construction, and a zero
    reads 0 / 1; no polynomial gcd is attempted.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=1):
        if not isinstance(numerator, PolyScalar):
            raise TypeError("numerator must be a PolyScalar")
        table = numerator.table
        denominator = table.coerce(denominator)
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        if numerator:
            numerator, denominator = without_content((numerator, denominator))
        else:
            denominator = table.one()
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarFraction is immutable")

    @property
    def table(self):
        return self.numerator.table

    def __bool__(self):
        return bool(self.numerator)

    def _coerce(self, other):
        if isinstance(other, ScalarFraction):
            return other
        if isinstance(other, (int, Fraction, GaussianRational, PolyScalar)):
            return ScalarFraction(self.table.coerce(other))
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.table is not self.table and other.table != self.table:
            raise ValueError("scalars over different variable tables")
        # exact: denominators are nonzero and Q(i)[vars] has no zero divisors
        num, other_num = self.numerator, other.numerator
        if not (num and other_num):
            return not (num or other_num)
        den, other_den = self.denominator, other.denominator
        if den == other_den:
            return num == other_num
        return num * other_den == other_num * den

    __hash__ = None

    def __neg__(self):
        return ScalarFraction(-self.numerator, self.denominator)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ScalarFraction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __str__(self):
        if self.denominator == self.table.one():
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self):
        return f"<ScalarFraction {self}>"


def substitute_fraction(poly, name, replacement):
    """Substitute a ScalarFraction for one variable of a polynomial.

    Used to impose normalizations such as V -> 1/(mu*mub)."""
    split = poly.coefficients_in(name)
    degree = max(split) if split else 0
    num_part = replacement.numerator
    den_part = replacement.denominator
    table = poly.table
    total = table.zero()
    for k in range(degree + 1):
        coeff = split.get(k)
        if coeff is None:
            continue
        total = total + coeff * num_part ** k * den_part ** (degree - k)
    return ScalarFraction(total, den_part ** degree)
