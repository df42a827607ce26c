"""Seeded input generators owned by the benchmark.

Every generator takes a ``random.Random`` and returns plain data (Fractions,
tuples and JSON-ready model documents), so the same seed gives identical
inputs and nothing here depends on the package under test.  Inputs the
package would reject (a degenerate symplectic form) are redrawn here and
never reach a timed operation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

N_HOLO = 4  # complex dimension of every generated model

N_TERMS = 2  # terms in d of each non-closed generator of a nilpotent model

HOLO_PAIRS = tuple(combinations(range(1, N_HOLO + 1), 2))


def make_rng(workload, seed):
    """The generator stream of one workload; str seeds hash with SHA-512, so
    the stream does not depend on PYTHONHASHSEED."""
    return random.Random(f"formbench-bench:{workload}:{seed}")


def gaussian_integer(rng, bound=1):
    """A nonzero Gaussian integer with |re|, |im| <= bound, as a (re, im)
    pair of Fractions."""
    while True:
        re = Fraction(rng.randint(-bound, bound))
        im = Fraction(rng.randint(-bound, bound))
        if re or im:
            return re, im


def format_gaussian(value):
    """Render a (re, im) pair in the model-file coefficient grammar."""
    re, im = value
    if not im:
        return str(re)
    imag = f"{abs(im)}i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _neg(a):
    return (-a[0], -a[1])


def _conj(a):
    return (a[0], -a[1])


# -- gram: symplectic forms on the 4-torus -------------------------------------


class GramInput(NamedTuple):
    """sigma = sum l_ij x_i^x_j: five numeric coefficients and one pair left
    formal as the declared variable ``l``."""

    formal: tuple
    values: dict  # {(i, j): (re, im)} for the five numeric pairs


# Pf(sigma) = l12 l34 - l13 l24 + l14 l23
PFAFFIAN_TERMS = (((1, 2), (3, 4), 1), ((1, 3), (2, 4), -1), ((1, 4), (2, 3), 1))


def pfaffian_parts(values, formal):
    """Pf(sigma) as (constant, coefficient of l), with the formal pair
    standing for l."""
    constant = linear = (Fraction(0), Fraction(0))
    for left, right, sign in PFAFFIAN_TERMS:
        if formal in (left, right):
            other = values[right if formal == left else left]
            linear = (sign * other[0], sign * other[1])
        else:
            re, im = _mul(values[left], values[right])
            constant = (constant[0] + sign * re, constant[1] + sign * im)
    return constant, linear


def is_degenerate(values, formal):
    constant, linear = pfaffian_parts(values, formal)
    return not any(constant) and not any(linear)


def gram_input(rng):
    """One nondegenerate seeded sigma; numerators may be zero, so a
    degenerate draw is possible and is redrawn."""
    while True:
        formal = rng.choice(HOLO_PAIRS)
        values = {}
        for pair in HOLO_PAIRS:
            if pair == formal:
                continue
            values[pair] = (
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
        if not is_degenerate(values, formal):
            return GramInput(formal, values)


# -- model documents --------------------------------------------------------------


def nilpotent_document(rng, n_closed):
    """Conjugate-closed 2-step nilpotent structure equations on z1..z4 and
    their conjugates zb1..zb4.

    z1..z{n_closed} are closed; d of every other (1,0) generator is a seeded
    combination of the (2,0) and (1,1) monomials of the closed generators,
    and d of a conjugate generator is the conjugate equation.  d*d = 0
    holds because every differential lands in the closed subalgebra.
    """
    holo = [f"z{i}" for i in range(1, N_HOLO + 1)]
    anti = [f"zb{i}" for i in range(1, N_HOLO + 1)]
    mate = dict(zip(holo + anti, anti + holo))
    closed = range(n_closed)
    monomials = [[holo[a], holo[b]] for a, b in combinations(closed, 2)]
    monomials += [[holo[a], anti[b]] for a in closed for b in closed]
    differentials = []
    for j in range(n_closed, N_HOLO):
        terms = [(gaussian_integer(rng), m) for m in rng.sample(monomials, N_TERMS)]
        # conj(c x^y) = conj(c) conj(x)^conj(y); the package sorts monomials
        conj_terms = [(_conj(c), [mate[x] for x in m]) for c, m in terms]
        differentials.append(_differential(holo[j], terms))
        differentials.append(_differential(anti[j], conj_terms))
    generators = [
        {"name": h, "bidegree": [1, 0], "conjugate": a}
        for h, a in zip(holo, anti)
    ] + [{"name": a, "bidegree": [0, 1], "conjugate": None} for a in anti]
    return {
        "variables": [{"name": "V", "conjugate": "V"}],
        "generators": generators,
        "differentials": differentials,
        "volume": holo + anti,
    }


def _differential(target, terms):
    return {
        "generator": target,
        "terms": [
            {"coefficient": format_gaussian(c), "monomial": monomial}
            for c, monomial in terms
        ],
    }


def nakamura_parameter(rng):
    """A seeded Gaussian rational t with |t| < 1 and small height."""
    while True:
        t = (Fraction(rng.randint(-4, 4), 5), Fraction(rng.randint(-4, 4), 5))
        if 0 < t[0] ** 2 + t[1] ** 2 < 1:
            return t


def nakamura_document(t):
    """The deformed Nakamura product model at t, written out by hand from its
    structure equations (a = 1/(1-|t|^2)); no conjugation is declared."""
    norm = t[0] ** 2 + t[1] ** 2
    a = (1 / (1 - norm), Fraction(0))
    at = _mul(a, t)
    holo = [f"phi{i}" for i in range(1, 5)]
    anti = [f"om{i}" for i in range(1, 5)]
    differentials = [
        _differential("phi2", [(_neg(a), ["phi1", "phi2"]), (at, ["phi2", "om1"])]),
        _differential("phi3", [(a, ["phi1", "phi3"]), (_neg(at), ["phi3", "om1"])]),
        _differential("om2", [(_neg(a), ["phi1", "om2"]), (_neg(at), ["om1", "om2"])]),
        _differential("om3", [(a, ["phi1", "om3"]), (at, ["om1", "om3"])]),
    ]
    generators = [
        {"name": name, "bidegree": [1, 0], "conjugate": None} for name in holo
    ] + [{"name": name, "bidegree": [0, 1], "conjugate": None} for name in anti]
    return {
        "variables": [{"name": "V", "conjugate": "V"}],
        "generators": generators,
        "differentials": differentials,
        "volume": holo + anti,
    }


# Every seed times the same cycle of model shapes; only coefficients and
# sparsity patterns vary with the seed.  Two of every three operations are
# nilpotent, so the median and the tail percentile fall inside the nilpotent
# cost band, not on the edge between two bands.
POOL_SHAPES = ("nilpotent", "nakamura", "nilpotent")


def pool_document(rng, shape):
    """One model document of the cohomology pool: a 2-step nilpotent model
    with three closed (1,0) generators, or Nakamura at a seeded t."""
    if shape == "nakamura":
        return nakamura_document(nakamura_parameter(rng))
    return nilpotent_document(rng, 3)
