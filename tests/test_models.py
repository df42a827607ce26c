import hashlib
import json
from fractions import Fraction

import pytest

from formbench.cli import main
from formbench.errors import IntegrabilityError, ParseError
from formbench.expressions import parse_form, parse_scalar
from formbench.models import (
    chain_nilmanifold,
    kodaira,
    kodaira_sigma,
    load_model,
    model_from_dict,
    model_to_dict,
    nakamura,
    save_model,
    torus,
    torus4_deformed,
)
from formbench.scalars import GaussianRational

I = GaussianRational(0, 1)


def test_torus_builder():
    model = torus(2)
    cf = model.coframe
    assert len(cf.generators) == 4
    assert cf.n_holomorphic == 2
    assert not any(model.differential_of(g.name) for g in cf.generators)
    assert cf.volume_monomial == (0, 1, 2, 3)
    assert torus(3).coframe.n_holomorphic == 3
    with pytest.raises(ValueError):
        torus(0)


@pytest.mark.parametrize("build", [lambda: torus(0), lambda: chain_nilmanifold(0),
                                   lambda: chain_nilmanifold(-2)])
def test_paired_builders_reject_empty_coframes(build):
    with pytest.raises(ValueError, match="dimension must be positive"):
        build()


def test_kodaira_builder():
    model = kodaira()
    cf = model.coframe
    assert model.differential_of("w2") == cf.monomial_form(("w1", "wb1"))
    assert model.differential_of("wb2") == -cf.monomial_form(("w1", "wb1"))
    sigma = kodaira_sigma(model)
    assert not model.d(sigma)
    assert sigma.bidegree() == (2, 0)


def test_nakamura_builder():
    family = nakamura(Fraction(1, 2))
    model, sigma = family.model, family.sigma
    a = Fraction(4, 3)  # 1 / (1 - 1/4)
    cf = model.coframe
    expected = cf.form({("phi1", "phi2"): -a, ("phi2", "om1"): a * Fraction(1, 2)})
    assert model.differential_of("phi2") == expected
    assert not model.d(sigma)
    assert sigma.power(2)
    # exact Gaussian-rational parameters stay exact
    complex_family = nakamura(GaussianRational(Fraction(1, 3), Fraction(1, 3)))
    assert not complex_family.model.d(complex_family.sigma)
    with pytest.raises(ValueError):
        nakamura(1)
    with pytest.raises(ValueError):
        nakamura(GaussianRational(1, 1))


def test_torus4_deformed_expansion():
    family = torus4_deformed()
    cf = family.model.coframe
    table = cf.table
    st = family.sigma_t
    # spot-check coefficients of the coframe substitution
    assert st.terms[cf.position["x1"], cf.position["x2"]] == table.one()
    t2 = table.variable("t2")
    assert st.terms[(cf.position["x1"], cf.position["xb4"])] == t2
    t1 = table.variable("t1")
    assert st.terms[(cf.position["x2"], cf.position["xb3"])] == -t1
    assert st.terms[(cf.position["xb1"], cf.position["xb2"])] == t1 * t2
    assert st.substitute({f"t{i}": 0 for i in range(1, 5)}) == family.sigma
    assert not family.model.d(st)


def test_model_file_roundtrip(tmp_path):
    for model in (torus(2), kodaira(), nakamura(Fraction(1, 2)).model):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert model_to_dict(loaded) == model_to_dict(model)


@pytest.mark.parametrize("name, make, digest", [
    ("torus2", lambda: torus(2),
     "ce930087307e489665a6191060a72345ce67b761a73a24eb4261369f0a0a3a38"),
    ("torus4", lambda: torus(4),
     "6f62282d0d73ba362d2ded3fb166ce054cabcc6a80df4c30321e8e3cea923708"),
    ("kodaira", kodaira,
     "420db5ed6193c4ab4aaed8c9948cd3a5da378eaa9ea2237039d21771cb91f032"),
    ("nakamura", lambda: nakamura(Fraction(1, 2)).model,
     "caaff056a2e12c033551b6664761db54c31a04d380ecc820f9f231b9859f5d23"),
])
def test_saved_model_bytes_are_pinned(tmp_path, name, make, digest):
    # the round trip above compares dict to dict; these pin the file bytes,
    # so the order of the differential terms (by position tuple) is fixed
    path = tmp_path / f"{name}.json"
    save_model(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_load_model_example(tmp_path):
    document = {
        "variables": [{"name": "V", "conjugate": "V"}],
        "generators": [
            {"name": "x1", "bidegree": [1, 0], "conjugate": "xb1"},
            {"name": "x2", "bidegree": [1, 0], "conjugate": "xb2"},
            {"name": "xb1", "bidegree": [0, 1], "conjugate": "x1"},
            {"name": "xb2", "bidegree": [0, 1], "conjugate": "x2"},
        ],
        "differentials": [],
        "volume": ["x1", "x2", "xb1", "xb2"],
    }
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(document))
    model = load_model(path)
    assert len(model.coframe.generators) == 4
    assert not any(
        model.differential_of(g.name) for g in model.coframe.generators
    )


def test_load_model_undeclared_generator(tmp_path):
    document = {
        "variables": [],
        "generators": [
            {"name": "g1", "bidegree": [1, 0]},
            {"name": "g2", "bidegree": [0, 1]},
        ],
        "differentials": [
            {"generator": "g1",
             "terms": [{"coefficient": "1", "monomial": ["g1", "nope"]}]}
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ParseError, match="nope"):
        load_model(path)


def test_load_model_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        load_model(path)


def test_load_model_bad_bidegree():
    with pytest.raises(ParseError, match="bidegree"):
        model_from_dict(
            {"generators": [{"name": "g1", "bidegree": [2, 0]}]}
        )


def test_load_model_structure_error():
    document = {
        "variables": [],
        "generators": [
            {"name": "g1", "bidegree": [1, 0]},
            {"name": "g2", "bidegree": [1, 0]},
            {"name": "g3", "bidegree": [0, 1]},
            {"name": "g4", "bidegree": [0, 1]},
        ],
        "differentials": [
            {"generator": "g1",
             "terms": [{"coefficient": "1", "monomial": ["g2", "g3"]}]},
            {"generator": "g3",
             "terms": [{"coefficient": "1", "monomial": ["g1", "g4"]}]},
        ],
    }
    with pytest.raises(IntegrabilityError):
        model_from_dict(document)


def _one_variable_model(first, second="1"):
    # d g1 = first * g2^g4 and d g2 = second * g3^g5, so d(d g1) multiplies
    # the two coefficients
    return {
        "variables": [{"name": "t"}],
        "generators": [{"name": f"g{k}", "bidegree": [1, 0] if k < 4 else [0, 1]}
                       for k in range(1, 7)],
        "differentials": [
            {"generator": "g1",
             "terms": [{"coefficient": first, "monomial": ["g2", "g4"]}]},
            {"generator": "g2",
             "terms": [{"coefficient": second, "monomial": ["g3", "g5"]}]},
        ],
    }


@pytest.mark.parametrize("first, second", [
    ("t^2147483648", "1"),  # an exponent at the bound as written
    ("t^2147483647*t", "1"),  # a product of parsed factors past it
    ("(t^1073741824)^2", "1"),  # a power of a parsed factor past it
    ("t^2147483647", "t"),  # d(d g1) multiplies the coefficients past it
])
def test_exponents_past_the_bound_are_parse_errors(tmp_path, capsys, first, second):
    # an exponent of 2**31 or more is malformed input: load_model raises
    # ParseError and the command line reports it and exits with status 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_one_variable_model(first, second)))
    with pytest.raises(ParseError, match=r"an exponent of t reaches 2\*\*31"):
        load_model(path)
    capsys.readouterr()
    assert main(["model", "check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("sigma", [
    "t^2147483648*x1^x2 + x3^x4",  # parsing the expression overflows
    "t^1073741824*(x1^x2 + x3^x4)",  # sigma^2 overflows after parsing
])
def test_sigma_exponents_past_the_bound_exit_cleanly(tmp_path, capsys, sigma):
    document = model_to_dict(torus(4))
    document["variables"].append({"name": "t", "conjugate": "tb"})
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(document))
    assert main(["bbf", "gram", str(path), "--sigma", sigma]) == 1
    assert capsys.readouterr().err.startswith("error: an exponent of t reaches")


DEEP = "(" * 3000 + "1" + ")" * 3000  # past the recursion limit


def _deep_coefficient_model():
    document = model_to_dict(kodaira())
    document["differentials"][0]["terms"][0]["coefficient"] = DEEP
    return document


@pytest.mark.parametrize("write", [
    lambda path: path.write_text(json.dumps(_deep_coefficient_model())),
    lambda path: path.write_text("[" * 200_000 + "]" * 200_000),
    lambda path: path.write_bytes(b"\xff\xfe{}"),  # not UTF-8
], ids=["nested_coefficient", "nested_array", "not_utf8"])
def test_unreadable_model_files_are_parse_errors(tmp_path, capsys, write):
    path = tmp_path / "model.json"
    write(path)
    with pytest.raises(ParseError):
        load_model(path)
    capsys.readouterr()
    assert main(["model", "check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_sigma_is_a_parse_error(tmp_path, capsys):
    model = kodaira()
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_form(DEEP + "*w1^w2", model.coframe)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_scalar(DEEP, model.table)
    path = tmp_path / "kodaira.json"
    save_model(model, path)
    assert main(["bbf", "gram", str(path), "--sigma", DEEP + "*w1^w2"]) == 1
    assert capsys.readouterr().err.startswith("error: expression nested too deeply")


def test_volume_order_carries_sign():
    document = {
        "variables": [{"name": "V", "conjugate": "V"}],
        "generators": [
            {"name": "x1", "bidegree": [1, 0], "conjugate": "xb1"},
            {"name": "xb1", "bidegree": [0, 1], "conjugate": "x1"},
        ],
        "differentials": [],
        "volume": ["xb1", "x1"],
    }
    model = model_from_dict(document)
    form = model.coframe.monomial_form(("x1", "xb1"))
    assert form.integrate() == -model.table.variable("V")


def test_parse_scalar():
    table = torus(2, parameters=[("t", "tb")]).table
    assert parse_scalar("3/2", table) == table.constant(Fraction(3, 2))
    assert parse_scalar("-i", table) == table.constant(-I)
    assert parse_scalar("1+2i", table) == table.constant(GaussianRational(1, 2))
    assert parse_scalar("2*t^2*V - 1", table) == table.monomial(
        {"t": 2, "V": 1}, 2
    ) - table.one()
    assert parse_scalar("(1+i)*(1-i)", table) == table.constant(2)
    with pytest.raises(ParseError):
        parse_scalar("t +* 2", table)
    with pytest.raises(ParseError):
        parse_scalar("nope", table)


def test_parse_form():
    cf = torus(2, parameters=[("t", "tb")]).coframe
    f = parse_form("x1^x2 - 2*x1^xb1", cf)
    assert f == cf.form({("x1", "x2"): 1, ("x1", "xb1"): -2})
    scaled = parse_form("t*x1^x2", cf)
    assert scaled == cf.monomial_form(("x1", "x2"), cf.table.variable("t"))
    mixed = parse_form("3/2 + x1^x2", cf)
    assert mixed == cf.unit(Fraction(3, 2)) + cf.monomial_form(("x1", "x2"))
    assert parse_form("x1^x2 - t", cf) == cf.monomial_form(("x1", "x2")) - cf.unit(
        cf.table.variable("t")
    )
    with pytest.raises(ParseError):
        parse_form("x1^V", cf)
    with pytest.raises(ParseError):
        parse_form("x1^x2 +", cf)


def test_load_model_inconsistent_pairing():
    document = {
        "variables": [],
        "generators": [
            {"name": "g1", "bidegree": [1, 0], "conjugate": "g3"},
            {"name": "g2", "bidegree": [1, 0], "conjugate": "g3"},
            {"name": "g3", "bidegree": [0, 1]},
            {"name": "g4", "bidegree": [0, 1]},
        ],
        "differentials": [],
    }
    with pytest.raises(ParseError, match="pairing"):
        model_from_dict(document)


def test_load_model_unhashable_names():
    # a list where a name belongs, or a number where a list belongs, is
    # malformed input, not a crash
    generators = [{"name": "g1", "bidegree": [1, 0]},
                  {"name": "g2", "bidegree": [0, 1]}]
    documents = [
        ({"variables": [{"name": ["t"]}],
          "generators": [{"name": "g1", "bidegree": [1, 0]}]}, "variables"),
        ({"generators": [{"name": "g1", "bidegree": [1, 0], "conjugate": ["g2"]},
                         {"name": "g2", "bidegree": [0, 1]}]}, None),
        ({"generators": [{"name": ["g1"], "bidegree": [1, 0], "conjugate": "g2"},
                         {"name": "g2", "bidegree": [0, 1]}]}, None),
        ({"generators": 5}, "generators: generators must be a list"),
        ({"generators": generators, "differentials": 5},
         "differentials: differentials must be a list"),
        ({"generators": generators,
          "differentials": [{"generator": "g1", "terms": 5}]},
         "differentials: terms must be a list"),
        ({"generators": generators,
          "differentials": [{"generator": "g1",
                             "terms": [{"coefficient": "1", "monomial": 5}]}]},
         "differentials: monomial must be a list"),
        ({"generators": generators,
          "differentials": [{"generator": ["g1"], "terms": []}]},
         r"differentials: undeclared generator \['g1'\]"),
        ({"generators": generators,
          "differentials": [{"generator": "g2",
                             "terms": [{"coefficient": "1", "monomial": [["g1"]]}]}]},
         r"differentials: undeclared generator \['g1'\] in d\(g2\)"),
        ({"generators": generators, "volume": "g1g2"},
         "volume: volume must be a list"),
        ({"generators": generators, "volume": 5},
         "volume: volume must be a list"),
        ({"generators": generators, "volume": ["g1", "g3"]},
         "volume: undeclared generator 'g3'"),
        ({"generators": generators, "volume": ["g1", ["g2"]]},
         r"volume: undeclared generator \['g2'\]"),
    ]
    for document, message in documents:
        with pytest.raises(ParseError, match=message):
            model_from_dict(document)


def test_load_model_rejects_a_second_differential_record():
    # an empty second record for x2 would otherwise replace d(x2) = x1^xb1
    # and load the torus
    document = {
        "generators": [{"name": "x1", "bidegree": [1, 0]},
                       {"name": "x2", "bidegree": [1, 0]},
                       {"name": "xb1", "bidegree": [0, 1]},
                       {"name": "xb2", "bidegree": [0, 1]}],
        "differentials": [
            {"generator": "x2",
             "terms": [{"coefficient": "1", "monomial": ["x1", "xb1"]}]},
            {"generator": "x2", "terms": []},
        ],
    }
    with pytest.raises(ParseError,
                       match="differentials: a second record for generator 'x2'"):
        model_from_dict(document)
    document["differentials"].pop()
    assert model_from_dict(document).betti(1) == 3


def test_model_without_volume_still_computes():
    document = {
        "variables": [],
        "generators": [
            {"name": "g1", "bidegree": [1, 0]},
            {"name": "g2", "bidegree": [0, 1]},
        ],
        "differentials": [],
    }
    model = model_from_dict(document)
    assert model.betti(1) == 2
    with pytest.raises(ValueError):
        model.coframe.monomial_form(("g1", "g2")).integrate()
