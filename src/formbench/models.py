"""Built-in structure models and the model file format.

Model files are JSON documents with four sections: scalar variable
declarations, generator records, differential records and the volume
monomial.  ``load_model`` validates the structure equations on load.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .dga import StructureModel
from .errors import ParseError
from .exterior import Coframe, Generator
from .expressions import parse_scalar
from .scalars import GaussianRational, VariableTable


def _paired_coframe(prefix, n, table):
    """Generators {prefix}1..{prefix}n of type (1,0) and their conjugates
    {prefix}b1..{prefix}bn of type (0,1), paired, with the volume of all of
    them in that order."""
    if n < 1:
        raise ValueError("dimension must be positive")
    holo = [Generator(f"{prefix}{i}", (1, 0)) for i in range(1, n + 1)]
    anti = [Generator(f"{prefix}b{i}", (0, 1)) for i in range(1, n + 1)]
    return Coframe(holo + anti, table,
                   conjugates={g.name: b.name for g, b in zip(holo, anti)},
                   volume=[g.name for g in holo + anti])


def torus(dim, parameters=()):
    """The invariant-form model of a complex torus of dimension ``dim``:
    generators x1..x{dim} and their conjugates, zero differential."""
    table = VariableTable([("V", "V"), *parameters])
    return StructureModel(_paired_coframe("x", dim, table), {})


def kodaira():
    """The standard Kodaira surface model: dw2 = w1^wb1 and its conjugate
    equation; carries the formal symplectic scale mu."""
    coframe = _paired_coframe("w", 2, VariableTable([("V", "V"), ("mu", "mub")]))
    differentials = {
        "w2": coframe.form({("w1", "wb1"): 1}),
        "wb2": coframe.form({("w1", "wb1"): -1}),
    }
    return StructureModel(coframe, differentials)


def kodaira_sigma(model):
    """The symplectic form mu * w1^w2 of the Kodaira model."""
    return model.coframe.monomial_form(
        ("w1", "w2"), model.table.variable("mu")
    )


def chain_nilmanifold(n):
    """The nilpotent model d phi_k = -phi_1 ^ phi_(k-1) for k >= 3 on
    phi_1..phi_n and the conjugate equations on phib_1..phib_n; n = 3 is
    the Iwasawa manifold, d phi3 = -phi1 ^ phi2."""
    cf = _paired_coframe("phi", n, VariableTable([("V", "V")]))
    differentials = {}
    for k in range(3, n + 1):
        dphi = cf.monomial_form(("phi1", f"phi{k - 1}"), -1)
        differentials[f"phi{k}"] = dphi
        differentials[f"phib{k}"] = dphi.conjugate()
    return StructureModel(cf, differentials)


class NakamuraFamily(NamedTuple):
    model: StructureModel
    sigma: object


def nakamura(t):
    """The deformed Nakamura product model at an exact parameter with
    |t| < 1; the returned form is the closed symplectic form of the fibre.

    The (0,1) coframe of this family is not the conjugate of the (1,0)
    coframe, so no conjugation pairing is declared.
    """
    t = GaussianRational.of(t)
    norm = t.norm()
    if norm >= 1:
        raise ValueError("the parameter must satisfy |t| < 1")
    a = GaussianRational(1 / (1 - norm))
    at = a * t
    table = VariableTable([("V", "V")])
    holo = [Generator(f"phi{i}", (1, 0)) for i in range(1, 5)]
    anti = [Generator(f"om{i}", (0, 1)) for i in range(1, 5)]
    coframe = Coframe(
        holo + anti, table, conjugates=None,
        volume=[g.name for g in holo + anti],
    )
    differentials = {
        "phi2": coframe.form({("phi1", "phi2"): -a, ("phi2", "om1"): at}),
        "phi3": coframe.form({("phi1", "phi3"): a, ("phi3", "om1"): -at}),
        "om2": coframe.form({("phi1", "om2"): -a, ("om1", "om2"): -at}),
        "om3": coframe.form({("phi1", "om3"): a, ("om1", "om3"): at}),
    }
    model = StructureModel(coframe, differentials)
    sigma = coframe.form({("phi1", "phi4"): 1, ("phi2", "phi3"): 1})
    return NakamuraFamily(model, sigma)


class TorusDeformation(NamedTuple):
    model: StructureModel
    sigma: object
    sigma_t: object


def torus4_deformed():
    """The four-torus family: the deformed coframe w_i is substituted into
    sigma_t = w1^w2 + w3^w4 + t3*w1^w3 + t4*w2^w4 and expanded over the
    central fibre's coframe.  The parameters t1..t4 stay formal."""
    model = torus(4, parameters=[(f"t{i}", f"tb{i}") for i in range(1, 5)])
    cf = model.coframe
    table = cf.table
    gen = cf.generator_form
    t = {i: table.variable(f"t{i}") for i in range(1, 5)}
    w1 = gen("x1") + gen("xb3").scaled(t[1])
    w2 = gen("x2") + gen("xb4").scaled(t[2])
    w3 = gen("x3") + gen("xb1").scaled(t[1])
    w4 = gen("x4") + gen("xb2").scaled(t[2])
    sigma_t = (
        w1.wedge(w2) + w3.wedge(w4)
        + w1.wedge(w3).scaled(t[3]) + w2.wedge(w4).scaled(t[4])
    )
    sigma = cf.form({("x1", "x2"): 1, ("x3", "x4"): 1})
    return TorusDeformation(model, sigma, sigma_t)


# -- model files ---------------------------------------------------------------


def model_from_dict(document):
    if not isinstance(document, dict):
        raise ParseError("model document must be a JSON object")
    try:
        declarations = [
            (record["name"], record.get("conjugate"))
            for record in document.get("variables", [])
        ]
    except (TypeError, KeyError) as exc:
        raise ParseError("each variable needs a name", field="variables") from exc
    try:
        table = VariableTable(declarations)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc), field="variables") from exc

    generators = []
    mates = []
    records = _list(document.get("generators", []), "generators")
    if not records:
        raise ParseError("at least one generator is required", field="generators")
    for record in records:
        try:
            name = record["name"]
            bidegree = tuple(record["bidegree"])
        except (TypeError, KeyError) as exc:
            raise ParseError(
                "generator records need name and bidegree", field="generators"
            ) from exc
        generators.append(Generator(name, bidegree))
        mates.append((name, record.get("conjugate")))
    names = [g.name for g in generators]  # a list: a looked-up entry may be unhashable
    volume = document.get("volume")
    if volume is not None:
        for name in _list(volume, "volume"):
            if name not in names:
                raise ParseError(f"undeclared generator {name!r}", field="volume")
    try:
        conjugates = {name: mate for name, mate in mates if mate is not None}
        coframe = Coframe(generators, table, conjugates=conjugates, volume=volume)
    except (TypeError, ValueError, KeyError) as exc:
        raise ParseError(str(exc)) from exc

    differentials = {}
    for record in _list(document.get("differentials", []), "differentials"):
        try:
            target = record["generator"]
            terms = _list(record["terms"], "differentials", "terms")
        except (TypeError, KeyError) as exc:
            raise ParseError(
                "differential records need generator and terms",
                field="differentials",
            ) from exc
        if target not in names:
            raise ParseError(
                f"undeclared generator {target!r}", field="differentials"
            )
        if target in differentials:
            raise ParseError(
                f"a second record for generator {target!r}", field="differentials"
            )
        total = coframe.zero_form()
        for term in terms:
            try:
                coefficient = parse_scalar(str(term["coefficient"]), table)
                monomial = _list(term["monomial"], "differentials", "monomial")
            except (TypeError, KeyError) as exc:
                raise ParseError(
                    "terms need coefficient and monomial", field="differentials"
                ) from exc
            for gen_name in monomial:
                if gen_name not in names:
                    raise ParseError(
                        f"undeclared generator {gen_name!r} in d({target})",
                        field="differentials",
                    )
            total = total + coframe.monomial_form(monomial, coefficient)
        differentials[target] = total
    try:
        return StructureModel(coframe, differentials)
    except OverflowError as exc:  # d(d g) raised an exponent past the bound
        raise ParseError(str(exc), field="differentials") from exc


def _list(value, field, name=None):
    """value when it is a list; ParseError naming the field otherwise."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{name or field} must be a list, got {value!r}",
                         field=field)
    return value


def load_model(path):
    """Load and validate a model file; raises ParseError on malformed input
    (also on bytes that are not UTF-8 and on JSON nested past the recursion
    limit) and IntegrabilityError on bad structure equations."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or too deep
        raise ParseError(f"unreadable model file: {exc}") from exc
    return model_from_dict(document)


def model_to_dict(model):
    cf = model.coframe
    table = cf.table
    variables = []
    emitted = set()
    for name in table.names:
        if name in emitted:
            continue
        mate = table.conjugate_of(name)
        variables.append({"name": name, "conjugate": mate})
        emitted.add(name)
        if mate is not None:
            emitted.add(mate)
    generators = []
    for pos, gen in enumerate(cf.generators):
        mate = cf.conjugate_position[pos]
        generators.append(
            {
                "name": gen.name,
                "bidegree": list(gen.bidegree),
                "conjugate": None if mate is None else cf.generators[mate].name,
            }
        )
    differentials = []
    for gen in cf.generators:
        form = model.differential_of(gen.name)
        if not form:
            continue
        terms = [
            {
                "coefficient": str(coeff),
                "monomial": [cf.generators[p].name for p in mon],
            }
            for mon, coeff in sorted(form.terms.items())
        ]
        differentials.append({"generator": gen.name, "terms": terms})
    volume = None
    if cf.volume_monomial is not None:
        volume = [cf.generators[p].name for p in cf.volume_monomial]
        if cf.volume_sign < 0:
            volume[0], volume[1] = volume[1], volume[0]
    return {
        "variables": variables,
        "generators": generators,
        "differentials": differentials,
        "volume": volume,
    }


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")
