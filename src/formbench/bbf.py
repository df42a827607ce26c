"""The Beauville-Bogomolov-Fujiki quadratic form of a complex symplectic
structure model.

The quadratic form of a model of complex dimension 2n with symplectic (2,0)
form sigma is evaluated by the three-integral expression

    q(alpha) = (n/2) I[(s sb)^n] I[alpha^2 (s sb)^(n-1)]
             + (1-n) I[alpha s^(n-1) sb^n] I[alpha s^n sb^(n-1)]

with no normalization assumed; the formal total volume V stays in every
result, and "normalized" Gram matrices set V = 1/(mu*mub) at the
presentation layer only.  A Gram matrix holds polynomial numerators over
one shared denominator, so its pipeline builds no fraction.

The bilinear form and the Gram oracle read every pairing off one kernel per
call: at most three wedges of sigma powers give each degree-2 monomial's
pairing row, keyed by masks, one ``exterior.product_sign`` per wedge term
against its complement, and by bilinearity a form's pairing record is the
combination of its monomials' rows, so no argument is wedged or integrated.
q_sigma keeps the wedge-then-integrate route as the independent check.  The
closed-form Gram matrix of a torus is built by bidegree blocks, (2,0) x
(0,2) and (1,1) x (1,1); every other entry vanishes by type and is never
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, combinations
from operator import add

from .errors import (
    DegenerateSymplectic,
    ModelMismatch,
    NotClosed,
    OddSize,
    UnsupportedBasis,
)
from .exterior import _positions, product_sign
from .scalars import ScalarFraction, _exact_quotient


class AntisymmetricMatrix:
    """An even-sized antisymmetric coefficient matrix; only the entries above
    the diagonal are stored (1-based index pairs i < j)."""

    def __init__(self, size, entries, table):
        self.size = size
        self.table = table
        stored = {}
        for (i, j), value in entries.items():
            if not (1 <= i < j <= size):
                raise ValueError(f"entry ({i},{j}) must satisfy 1 <= i < j <= size")
            value = table.coerce(value)
            if value:
                stored[(i, j)] = value
        self.entries = stored

    @classmethod
    def from_form(cls, sigma):
        """The coefficient matrix of a (2,0)-form over its holomorphic
        generators."""
        cf = sigma.coframe
        if sigma and sigma.bidegree() != (2, 0):
            raise ValueError("expected a (2,0)-form")
        entries = {}
        for mask, coeff in sigma._masks.items():
            # the 1-based positions of the lowest and the highest bit
            entries[((mask & -mask).bit_length(), mask.bit_length())] = coeff
        return cls(cf.n_holomorphic, entries, cf.table)

    def entry(self, i, j):
        if i == j:
            return self.table.zero()
        if i < j:
            return self.entries.get((i, j), self.table.zero())
        return -self.entries.get((j, i), self.table.zero())


def pfaffian(matrix):
    """Recursive expansion along the first row; Pf(A)^2 = det(A)."""
    if matrix.size % 2:
        raise OddSize(f"pfaffian of odd size {matrix.size}")
    table = matrix.table

    def expand(indices):
        if not indices:
            return table.one()
        first = indices[0]
        total = table.zero()
        for pos in range(1, len(indices)):
            coeff = matrix.entry(first, indices[pos])
            if not coeff:
                continue
            rest = indices[1:pos] + indices[pos + 1:]
            term = coeff * expand(rest)
            if pos % 2 == 0:
                term = -term
            total = total + term
        return total

    return expand(tuple(range(1, matrix.size + 1)))


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """A structure model with a distinguished closed symplectic (2,0)-form
    and the derived coefficient data.

    mu is the coefficient of sigma^n against the holomorphic top monomial;
    nu[(i, j)] is the coefficient of sigma^(n-1) against the monomial with
    x_i and x_j removed.  sigma_pow[k] and sigma_bar_pow[k] are the k-th
    wedge powers for k = 0..n, and volume is I[(sigma sigma_bar)^n] with the
    total volume V kept formal.  Instances are immutable and thread-safe.
    """

    model: object
    sigma: object
    n: int
    mu: object
    nu: dict
    sigma_bar: object
    sigma_pow: tuple
    sigma_bar_pow: tuple
    volume: object


def make_symplectic(model, sigma):
    """Attach the derived mu/nu data to a closed nondegenerate (2,0)-form."""
    if sigma.coframe is not model.coframe:
        raise ModelMismatch("sigma belongs to a different model")
    if not sigma or sigma.bidegree() != (2, 0):
        raise ValueError("sigma must be a nonzero (2,0)-form")
    if model.d(sigma):
        raise NotClosed("sigma is not d-closed")
    h = model.coframe.n_holomorphic
    if h % 2:
        raise DegenerateSymplectic(
            f"{h} holomorphic generators cannot carry a symplectic form"
        )
    n = h // 2
    sigma_bar = sigma.conjugate()
    powers, bar_powers = [model.coframe.unit()], [model.coframe.unit()]
    for _ in range(n):
        powers.append(powers[-1].wedge(sigma))
        bar_powers.append(bar_powers[-1].wedge(sigma_bar))
    top, zero = (1 << h) - 1, model.table.zero()
    mu = powers[n]._masks.get(top, zero)
    if not mu:
        raise DegenerateSymplectic("sigma^n vanishes identically")
    nu = {(i, j): powers[n - 1]._masks.get(top ^ (1 << i - 1) ^ (1 << j - 1), zero)
          for i, j in combinations(range(1, h + 1), 2)}
    return SymplecticSpace(
        model, sigma, n, mu, nu, sigma_bar, tuple(powers), tuple(bar_powers),
        powers[n].wedge(bar_powers[n]).integrate(),
    )


def _check_degree_two(space, form, what):
    if form.coframe is not space.model.coframe:
        raise ModelMismatch(f"{what} belongs to a different model")
    if form and form.total_degree() != 2:
        raise ValueError(f"{what} must have total degree 2")
    if space.model.d(form):
        raise NotClosed(f"{what} is not d-closed")


def q_sigma(space, alpha):
    """Exact evaluation of the quadratic form on a closed degree-2 form."""
    _check_degree_two(space, alpha, "alpha")
    n = space.n
    s, sb = space.sigma_pow, space.sigma_bar_pow
    square_pairing = alpha.wedge(alpha).wedge(s[n - 1]).wedge(sb[n - 1]).integrate()
    holo_pairing = alpha.wedge(s[n - 1]).wedge(sb[n]).integrate()
    anti_pairing = alpha.wedge(s[n]).wedge(sb[n - 1]).integrate()
    return (
        space.volume * square_pairing * Fraction(n, 2)
        + holo_pairing * anti_pairing * Fraction(1 - n)
    )


def _pairing_kernel(space):
    """The pairing rows of the degree-2 monomials, from three wedges of
    sigma powers (one when n = 1).  By bilinearity the pairing record of a
    form is the combination of its monomials' rows, so no form is wedged or
    integrated.

    Returns (dual_rows, end_rows), keyed by monomial masks.  dual_rows[m]
    maps a degree-2 monomial k to (n/2) volume I[k m s^(n-1) sb^(n-1)]:
    each term w of W0 = s^(n-1) sb^(n-1) leaves four positions a < b < c <
    d, the complement full ^ w, and its value, the W0 coefficient
    pre-scaled by (n/2) volume V, goes to both orders of the splits ab|cd,
    ac|bd and ad|bc with the signs +, -, + of k m against abcd, times the
    one sign of I[abcd w].  end_rows[m] holds
    the nonzero values among "holo" = (1-n)/2 I[m s^(n-1) sb^n] and
    "anti" = I[m s^n sb^(n-1)]; it is empty when n = 1, where the (1-n)
    term vanishes."""
    n = space.n
    s, sb = space.sigma_pow, space.sigma_bar_pow
    cf = space.model.coframe
    v = cf.table.variable(cf.volume_variable)
    full = (1 << len(cf.generators)) - 1  # the volume names every generator

    def signed(value, mon, complement):
        # value times the sign of the volume monomial in complement ^ mon
        return value if product_sign(complement, mon) == cf.volume_sign else -value

    dual_rows = {}
    scale = space.volume * v * Fraction(n, 2)
    for w, coeff in s[n - 1].wedge(sb[n - 1])._masks.items():
        rest = full ^ w
        a, b, c, d = (1 << p for p in _positions(rest))
        value = signed(coeff * scale, w, rest)
        for m, k, split in ((a | b, c | d, value), (a | c, b | d, -value),
                            (a | d, b | c, value)):
            dual_rows.setdefault(m, {})[k] = dual_rows.setdefault(k, {})[m] = split
    end_rows = {}
    if n != 1:  # the (1-n) term vanishes on a surface
        for name, form, scale in (
            ("holo", s[n - 1].wedge(sb[n]), v * Fraction(1 - n, 2)),
            ("anti", s[n].wedge(sb[n - 1]), v),
        ):
            for mon, coeff in form._masks.items():
                k = full ^ mon
                end_rows.setdefault(k, {})[name] = signed(coeff * scale, mon, k)
    return dual_rows, end_rows


def _combination(rows, form, one):
    """The sum of coeff * rows[m] over the terms (m, coeff) of form, as a
    {key: value} map of its nonzero values; a unit coefficient multiplies
    nothing."""
    total = {}
    for mon, coeff in form._masks.items():
        unit = coeff == one
        for key, value in rows.get(mon, {}).items():
            if not unit:
                value = coeff * value
            old = total.get(key)
            total[key] = value if old is None else old + value
    return {key: value for key, value in total.items() if value}


def _pairing_table(space, forms):
    """The bilinear form on every ordered pair of checked forms, as one
    {j: value} map per row with a key only where some pairing term is
    nonzero.

    Each form's pairing record is read off the kernel: dual, a map from
    degree-2 monomials k such that volume (n/2) I[k form s^(n-1) sb^(n-1)]
    is dual[k], and the one-sided integrals holo = (1-n)/2 I[form s^(n-1)
    sb^n] and anti = I[form s^n sb^(n-1)].  Entry (i, j) sums coeff dual_i[k]
    over the terms (k, coeff) of form j, found through a monomial index,
    plus holo_i anti_j + holo_j anti_i; each product of a nonzero holo and
    a nonzero anti is made once and added to both of its entries."""
    one = space.model.table.one()
    dual_rows, end_rows = _pairing_kernel(space)
    index = {}
    for j, form in enumerate(forms):
        for mon, coeff in form._masks.items():
            index.setdefault(mon, []).append((j, None if coeff == one else coeff))
    rows, holo, anti = [], [], []
    for i, form in enumerate(forms):
        row = {}
        for mon, value in _combination(dual_rows, form, one).items():
            for j, coeff in index.get(mon, ()):
                term = value if coeff is None else coeff * value
                old = row.get(j)
                row[j] = term if old is None else old + term
        rows.append(row)
        ends = _combination(end_rows, form, one)
        if "holo" in ends:
            holo.append((i, ends["holo"]))
        if "anti" in ends:
            anti.append((i, ends["anti"]))
    for i, x in holo:
        for j, y in anti:
            product = x * y
            for row, col in ((rows[i], j), (rows[j], i)):
                old = row.get(col)
                row[col] = product if old is None else old + product
    return rows


def bilinear(space, psi, eta):
    """The symmetric bilinear form polarizing q_sigma; bilinear(a, a) equals
    q_sigma(a) exactly."""
    _check_degree_two(space, psi, "psi")
    _check_degree_two(space, eta, "eta")
    rows = _pairing_table(space, (psi, eta))
    return rows[0].get(1, space.model.table.zero())


# -- Gram matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """The matrix of the bilinear form on an explicit basis of closed
    degree-2 forms: rows of polynomial numerators over one denominator.
    ``entries`` is their view as exact fractions, built on first read; a
    racing second build stores an equal view."""

    basis: tuple
    numerators: tuple
    denominator: object

    @property
    def size(self):
        return len(self.numerators)

    @cached_property
    def entries(self):
        den = self.denominator
        return tuple(tuple(ScalarFraction(a, den) for a in row)
                     for row in self.numerators)

    def matches(self, other):
        """Whether other has the same size and equal entries; stops at the
        first differing entry (gram_discrepancies names them all)."""
        return self.size == other.size and next(_differing(self, other), None) is None

    def is_symmetric(self):
        rows = self.numerators
        return all(rows[i][j] is rows[j][i] or rows[i][j] == rows[j][i]
                   for i, j in combinations(range(self.size), 2))

    def render(self):
        """Every entry as text, once for equal numerators at (i, j) and (j, i)."""
        rows, out = self.numerators, []
        for i, row in enumerate(self.entries):
            out.append([out[j][i] if j < i and rows[j][i] == rows[i][j] else str(e)
                        for j, e in enumerate(row)])
        return out


def gram_matrix(space, basis, mode="oracle"):
    """Gram matrix of the bilinear form.

    oracle mode combines each basis form's pairing record from the pairing
    kernel's rows (at most three wedges per call, whatever the basis size,
    and no integration) and assembles only the entries some pairing term
    reaches, with V formal, over the unit denominator.  closed_form mode
    emits the coefficient formulas over the denominator 2*mu*mub, and is
    only available for torus models over basis forms that are standard
    monomials.  It evaluates only the (2,0) x (0,2) pairs and the (1,1)
    pairs that share no index, one formula for both (i, j) and (j, i); each
    distinct nu*nu_bar product, and its multiple by n, is made once per
    call.  After normalize_gram, both agree entrywise.
    """
    basis = tuple(basis)
    zero = space.model.table.zero()
    if mode == "oracle":
        for form in basis:
            _check_degree_two(space, form, "basis form")
        numerators = tuple(
            tuple(row.get(j, zero) for j in range(len(basis)))
            for row in _pairing_table(space, basis)
        )
        return GramMatrix(basis, numerators, space.model.table.one())
    if mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")
    model = space.model
    if any(model.differential_of(g.name) for g in model.coframe.generators):
        raise UnsupportedBasis("closed form entries require a torus model")
    blocks = {(2, 0): [], (0, 2): [], (1, 1): []}
    for i, form in enumerate(basis):
        bidegree, pair = _classify_standard(space, form)
        blocks[bidegree].append((i, pair))
    nu_bar = {pair: value.conjugate() for pair, value in space.nu.items()}

    # neither memo refers to itself, so both are freed on return
    @cache
    def product(left, right):
        return space.nu[left] * nu_bar[right]

    @cache
    def scaled(left, right):
        # a unit n multiplies nothing
        value = product(left, right)
        return value * space.n if space.n != 1 else value

    rows = [[zero] * len(basis) for _ in basis]
    for i, (alpha, beta) in blocks[(2, 0)]:
        for j, (gamma, delta) in blocks[(0, 2)]:
            value = product((alpha, beta), (gamma, delta))
            rows[i][j] = rows[j][i] = (
                -value if (alpha + beta + gamma + delta) % 2 else value)
    for (i, (alpha, beta)), (j, (gamma, delta)) in combinations(blocks[(1, 1)], 2):
        if alpha == gamma or beta == delta:
            continue
        e = alpha + beta + gamma + delta + ((alpha < gamma) == (beta < delta))
        value = scaled((min(alpha, gamma), max(alpha, gamma)),
                       (min(beta, delta), max(beta, delta)))
        rows[i][j] = rows[j][i] = -value if e % 2 else value
    numerators = tuple(map(tuple, rows))
    return GramMatrix(basis, numerators, space.mu * space.mu.conjugate() * 2)


def _classify_standard(space, form):
    """The bidegree of a standard basis monomial and its 1-based index pair
    within its block: holomorphic, antiholomorphic, or one of each."""
    cf = space.model.coframe
    if form.coframe is not cf:
        raise ModelMismatch("basis form belongs to a different model")
    if len(form._masks) != 1:
        raise UnsupportedBasis(f"{form} is not a standard basis monomial")
    (mask, coeff), = form._masks.items()
    if coeff != space.model.table.one() or mask.bit_count() != 2:
        raise UnsupportedBasis(f"{form} is not a standard basis monomial")
    h = cf.n_holomorphic
    p, q = cf.monomial_bidegree(mask)
    # the 1-based positions of the two bits; antiholomorphic ones count from h
    low, high = (mask & -mask).bit_length(), mask.bit_length()
    return (p, q), (low - h * (p == 0), high - h * (p != 2))


def gram_discrepancies(reference, candidate):
    """Entry positions where two Gram matrices of the same shape disagree.

    Used to audit the closed-form coefficient formulas against the
    integration oracle: a nonempty result names the defective closed-form
    entries instead of guessing a sign convention.  Zero patterns are
    compared first; each pair of nonzero numerators a/p and b/q is then
    compared as a*y == b*x, with x/y = p/q cofactors found once per call by
    one exact division of the denominators.  A unit cofactor (both when the
    denominators are equal) multiplies nothing and any other multiplies each
    distinct numerator object once: one product per side at most when one
    denominator divides the other, and one object at (i, j) and (j, i)
    costs one product for both."""
    if reference.size != candidate.size:
        raise ValueError("Gram matrices have different sizes")
    return list(_differing(reference, candidate))


def _differing(reference, candidate):
    """The positions of gram_discrepancies, in row-major order, as they are
    found.  Exact: Q(i)[vars] has no zero divisors and p*y == q*x with p, q
    nonzero."""
    p, q = reference.denominator, candidate.denominator
    one = p.table.one()
    x, y = _exact_quotient(p, q), one  # p = q*x
    if x is None:
        x, y = one, _exact_quotient(q, p)  # q = p*y
        if y is None:
            x, y = p, q
    # a unit cofactor multiplies nothing, any other each distinct numerator
    # object once (the memo holds the object, so its id is not reused)
    scale_a, scale_b, memo = y != one, x != one, {}

    def scaled(value, factor):
        key = id(value), id(factor)
        if key not in memo:
            memo[key] = value, value * factor
        return memo[key][1]

    for i, rows in enumerate(zip(reference.numerators, candidate.numerators)):
        for j, (a, b) in enumerate(zip(*rows)):
            if not (a.ints and b.ints):  # zero patterns, read off the term maps
                if a.ints or b.ints:
                    yield i, j
            elif (scaled(a, y) if scale_a else a) != (scaled(b, x) if scale_b else b):
                yield i, j


def normalize_gram(space, gram):
    """Impose the normalization V = 1/(mu*mub) on every entry.

    With P = mu*mub and k the largest V-degree of any numerator or of the
    denominator, the denominator and each distinct numerator object,
    sum_j a_j V^j, become sum_j a_j P^(k-j) once; a part of V-degree k
    costs no product and zero numerators pass through.  No content is
    removed, so an entry whose numerator has V-degree below k renders as an
    equal but unreduced fraction; the oracle on a basis with V-free
    coefficients is V-homogeneous and has no such entry."""
    name = space.model.coframe.volume_variable
    # one split per distinct nonzero numerator object; the gram holds them
    distinct = {id(a): a for a in chain.from_iterable(gram.numerators) if a.ints}
    splits = {key: a.coefficients_in(name) for key, a in distinct.items()}
    den = gram.denominator.coefficients_in(name)
    k = max(chain(den, *splits.values()))
    powers = [space.model.table.one(), space.mu * space.mu.conjugate()]
    while len(powers) <= k:
        powers.append(powers[-1] * powers[1])

    def cleared(split):
        return reduce(add, (c * powers[k - j] if j < k else c
                            for j, c in split.items()))

    done = {key: cleared(split) for key, split in splits.items()}
    numerators = tuple(tuple([done.get(id(a), a) for a in row])
                       for row in gram.numerators)
    return GramMatrix(gram.basis, numerators, cleared(den))


def standard_degree_two_basis(model):
    """The block-ordered monomial basis of the invariant two-forms of a torus
    model: (2,0) pairs, then the (1,1) block row-major, then (0,2) pairs."""
    cf = model.coframe
    h = cf.n_holomorphic
    names = [g.name for g in cf.generators]
    basis = []
    for i, j in combinations(range(h), 2):
        basis.append(cf.monomial_form((names[i], names[j])))
    for i in range(h):
        for j in range(h, len(names)):
            basis.append(cf.monomial_form((names[i], names[j])))
    for i, j in combinations(range(h, len(names)), 2):
        basis.append(cf.monomial_form((names[i], names[j])))
    return basis


@dataclass(frozen=True)
class OrthogonalityReport:
    pairs_checked: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def check_block_orthogonality(gram):
    """Verify the zero blocks of a Gram matrix on a basis of homogeneous
    forms, read off its numerators: every entry, in either order, that pairs
    a (2,0) or (0,2) form with anything but the opposite type is zero.  Only
    a violating entry is rendered."""
    typed = [(form, form.bidegree()) for form in gram.basis]
    outer = {(2, 0), (0, 2)}
    checked = 0
    violations = []
    for (a, p), row in zip(typed, gram.numerators):
        for (b, q), value in zip(typed, row):
            if (p in outer or q in outer) and {p, q} != outer:
                checked += 1
                if value:
                    entry = ScalarFraction(value, gram.denominator)
                    violations.append((str(a), str(b), str(entry)))
    return OrthogonalityReport(pairs_checked=checked, violations=tuple(violations))


# -- identities -------------------------------------------------------------------


@dataclass(frozen=True)
class VanishingIdentity:
    lhs: object
    rhs: object

    @property
    def holds(self):
        return self.lhs == self.rhs


def vanishing_identity(space, lam, alpha11, mubar):
    """Both sides of the identity

        I[(s sb)^n] * I[alpha^(n+1) sb^(n-1)] = (n+1) lam^(n-1) q(alpha)

    for alpha = lam*sigma + alpha11 + mubar*sigma_bar.  The sigma_bar
    coefficient is named mubar throughout to keep it apart from the top
    coefficient mu of sigma^n."""
    table = space.model.table
    lam = table.coerce(lam)
    mubar = table.coerce(mubar)
    if alpha11 and alpha11.bidegree() != (1, 1):
        raise ValueError("alpha11 must be a (1,1)-form")
    alpha = (
        space.sigma.scaled(lam)
        + alpha11
        + space.sigma_bar.scaled(mubar)
    )
    n = space.n
    rhs = q_sigma(space, alpha) * lam ** (n - 1) * (n + 1)
    power = alpha.power(n + 1)
    lhs = space.volume * power.wedge(space.sigma_bar_pow[n - 1]).integrate()
    return VanishingIdentity(lhs=lhs, rhs=rhs)


def product_q(q1, q2, p1s, p1sb, p2s, p2sb):
    """The quadratic form of a two-factor product evaluated from the factor
    data: the factor forms q_i(phi_i) and the pairings I[phi_i s_i],
    I[phi_i sb_i], under the normalization I[s_i sb_i] = 1."""
    return 8 * (q1 + q2) - 4 * ((p1sb - p2sb) * (p1s - p2s))
