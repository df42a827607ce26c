import hashlib
import json

import pytest

import formbench.scenarios as scenarios
from formbench.cli import main
from formbench.errors import UnknownScenario
from formbench.models import kodaira, model_to_dict, save_model, torus
from formbench.scalars import GaussianRational, ScalarFraction, VariableTable
from formbench.scenarios import Step, list_scenarios, run_scenario

ALL_IDS = [
    "torus2-gram", "torus4-gram", "torus4-deformed", "bbf-vanishing",
    "kodaira", "kodaira-lambda", "nakamura", "k3-product", "grass-degree",
    "iwasawa",
]


def test_list_scenarios():
    listing = list_scenarios()
    assert [name for name, _ in listing] == ALL_IDS
    assert len(listing) >= 9
    assert listing == list_scenarios()
    assert all(desc for _, desc in listing)


@pytest.mark.parametrize("scenario_id", ALL_IDS)
def test_builtin_scenarios_pass(scenario_id):
    report = run_scenario(scenario_id)
    failures = [step.name for step in report.steps if not step.match]
    assert report.passed, failures
    assert not report.error
    assert report.first_failure() == 0


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("nosuch")


def test_report_json_is_deterministic():
    first = run_scenario("torus4-deformed").to_json()
    second = run_scenario("torus4-deformed").to_json()
    assert first == second
    payload = json.loads(first)
    assert payload["example_id"] == "torus4-deformed"
    assert payload["passed"] is True
    quantity = payload["quantities"][0]
    assert set(quantity) == {"name", "value", "reference", "match", "note"}


# sha256 of the `wb run <id> --json` stdout of each scenario; a change to
# rendering, signs or any computed value shows here as a changed digest
REPORT_SHA256 = {
    "torus2-gram":
        "dde7a0af6d7d2e35e68e3c675c2816fa83ca69246eeedecc42424993e10a2c6d",
    "torus4-gram":
        "1493ed2138430535d89eaaf9baa9e8f987b298dfc891397b57e79b7a98e59b0d",
    "torus4-deformed":
        "b39e01dabf8b6df64245b63e029336c3c312f02c476a15be380da57a1ca3070d",
    "bbf-vanishing":
        "4513d021775cc6a82a235086a04754ead6542ab1265171d5ec5998d13625ccb2",
    "kodaira":
        "ba7dd4d899aa3b73b8a42dc055f5a70789a35715b823934f3f53ed01c295f220",
    "kodaira-lambda":
        "7680f5739028ead70c7174e60fc2424c89a4fb3d4c5b0798e3003b70b7f33e1f",
    "nakamura":
        "f37c231369ca58b40bdd554a0e53a6b940d44f14decec0f8272b3be12336d3c0",
    "k3-product":
        "c271c0b5df4a49e5621d044fac471eb9580e752f3c50850afb52a4516d888a7b",
    "grass-degree":
        "ab03464970afe8377491139e273d0f12f676f6c415ef224d2829b798f0decbbb",
    "iwasawa":
        "afae97764a1521afd3357cc8bf389d81867b34a7eec1c9bc8a6fa57d0330a84e",
}


def test_report_json_is_pinned(capsys):
    assert list(REPORT_SHA256) == ALL_IDS
    changed = []
    for scenario_id, digest in REPORT_SHA256.items():
        main(["run", scenario_id, "--json"])
        out = capsys.readouterr().out.encode()
        if hashlib.sha256(out).hexdigest() != digest:
            changed.append(scenario_id)
    assert not changed, f"JSON report changed for {changed}"


def test_step_match_is_exact():
    table_value = GaussianRational(1, 2)
    assert Step("x", table_value, GaussianRational(1, 2)).match
    assert not Step("x", table_value, GaussianRational(1, -2)).match
    # incomparable values fail instead of raising
    assert not Step("x", object(), GaussianRational(1)).match


def test_failure_index(monkeypatch):
    def fake():
        return [
            Step("first", 1, 1),
            Step("second", 1, 2),
            Step("third", 2, 3),
        ]

    monkeypatch.setitem(
        scenarios._SCENARIOS, "fake", ("synthetic failure", fake)
    )
    report = run_scenario("fake")
    assert not report.passed
    assert report.first_failure() == 2


# -- command line ---------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "torus4-deformed" in out
    assert "grass-degree" in out


def test_cli_run_pass(capsys):
    assert main(["run", "nakamura"]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out


def test_cli_run_json_deterministic(capsys):
    assert main(["run", "torus2-gram", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "torus2-gram", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["passed"] is True


def test_cli_run_unknown(capsys):
    assert main(["run", "nosuch"]) == 70
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_failure_exit_code(monkeypatch, capsys):
    def fake():
        return [Step("first", 1, 1), Step("second", 1, 2)]

    monkeypatch.setitem(
        scenarios._SCENARIOS, "fake", ("synthetic failure", fake)
    )
    assert main(["run", "fake"]) == 2
    out = capsys.readouterr().out
    assert "FAIL second" in out


def test_cli_model_check(tmp_path, capsys):
    path = tmp_path / "kodaira.json"
    save_model(kodaira(), path)
    assert main(["model", "check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "4 generators" in out
    assert "d(w2) = w1^wb1" in out


def test_cli_model_check_bad_file(tmp_path, capsys):
    generators = [{"name": "x1", "bidegree": [1, 0]},
                  {"name": "x2", "bidegree": [0, 1]}]
    term = {"coefficient": "1", "monomial": [["x1"]]}
    documents = [
        "{oops",
        json.dumps({"generators": generators,
                    "differentials": [{"generator": ["x1"], "terms": []}]}),
        json.dumps({"generators": generators,
                    "differentials": [{"generator": "x2", "terms": [term]}]}),
    ]
    path = tmp_path / "broken.json"
    for text in documents:
        path.write_text(text)
        assert main(["model", "check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_cli_cohomology(tmp_path, capsys):
    path = tmp_path / "kodaira.json"
    save_model(kodaira(), path)
    assert main(["cohomology", str(path), "--theory", "de_rham",
                 "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "dimension 3" in out
    assert main(["cohomology", str(path), "--theory", "dolbeault",
                 "--degree", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out
    assert "w1^wb2" in out


@pytest.mark.parametrize("theory,degree,shape", [
    ("dolbeault", "1,x", "integers p,q"), ("dolbeault", "1", "integers p,q"),
    ("de_rham", "abc", "an integer k"), ("de_rham", "1,1", "an integer k")])
def test_cli_cohomology_malformed_degree_names_the_field(
        tmp_path, capsys, theory, degree, shape):
    path = tmp_path / "kodaira.json"
    save_model(kodaira(), path)
    assert main(["cohomology", str(path), "--theory", theory,
                 "--degree", degree]) == 1
    assert capsys.readouterr().err == (
        f"error: --degree: {theory} takes {shape}, got {degree!r}\n")


def test_cli_bbf_gram(tmp_path, capsys):
    path = tmp_path / "kodaira.json"
    save_model(kodaira(), path)
    assert main(["bbf", "gram", str(path), "--sigma", "mu*w1^w2",
                 "--normalized"]) == 0
    out = capsys.readouterr().out
    assert "mu = mu" in out
    assert "w1^w2" in out
    rows = [line for line in out.splitlines() if line.strip().startswith("[")]
    assert len(rows) == 4

    def expected(entry):
        # the Gram matrix on H^2 is anti-diagonal in this basis
        matrix = [
            "  [" + ", ".join(entry if i + j == 3 else "0" for j in range(4)) + "]"
            for i in range(4)
        ]
        return "\n".join(
            ["mu = mu", "basis:", "  w1^w2", "  w1^wb2", "  w2^wb1", "  wb1^wb2",
             "gram:", *matrix, ""]
        )

    assert out == expected("(mu*mub) / (2*mu^2*mub^2)")
    assert main(["bbf", "gram", str(path), "--sigma", "mu*w1^w2"]) == 0
    assert capsys.readouterr().out == expected("(V^2*mu*mub) / (2)")


def test_cli_unconjugated_parameter_is_an_error(tmp_path, capsys):
    document = model_to_dict(kodaira())
    document["variables"].append({"name": "t"})
    path = tmp_path / "kodaira_t.json"
    path.write_text(json.dumps(document))
    assert main(["bbf", "gram", str(path), "--sigma", "t*w1^w2"]) == 1
    assert "error: 't has no conjugation declaration'" in capsys.readouterr().err


def test_cli_grass_degree(capsys):
    assert main(["grass-degree", "--n", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "n=2 degree=1 distinguished_order=1",
        "n=3 degree=2 distinguished_order=2",
        "n=4 degree=3 distinguished_order=3",
    ]
    assert main(["grass-degree", "--n", "1"]) == 1


def test_step_comparison_error_is_reported_with_its_cause(monkeypatch, capsys):
    # values over two different tables or coframes cannot be compared; that
    # is an error of the scenario, not a failed step
    first = VariableTable([("V", "V")])
    second = VariableTable([("V", "V"), ("t", "tb")])
    tables = "ValueError: scalars over different variable tables (at scalars.py:"
    cases = [
        (ScalarFraction(first.variable("V")),
         ScalarFraction(second.variable("V")), tables),
        (first.variable("V"), second.variable("V"), tables),
        (torus(1).coframe.unit(), torus(1).coframe.unit(),
         "ModelMismatch: forms over different coframes (at exterior.py:"),
    ]
    for computed, expected, cause in cases:
        def fake(computed=computed, expected=expected):
            return [
                Step("same operand", computed, computed),
                Step("two operands", computed, expected),
            ]

        monkeypatch.setitem(
            scenarios._SCENARIOS, "fake", ("incomparable values", fake)
        )
        report = run_scenario("fake")
        assert not report.passed
        assert report.error.startswith(cause), report.error
        assert report.error.endswith(")")
        assert main(["run", "fake", "--json"]) == 70
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == report.error
        assert report.error in captured.err
