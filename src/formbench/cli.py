"""Command-line workbench: scenario runner, model checks, Gram matrices,
cohomology tables and embedding degrees."""

from __future__ import annotations

import argparse
import sys

from . import bbf
from .dga import THEORIES, DE_RHAM
from .errors import ParseError, UnknownScenario, UnknownVariable
from .expressions import parse_form
from .grass import pluecker_curve
from .models import load_model
from .scenarios import list_scenarios, run_scenario

EX_ERROR = 70


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wb",
        description="exact workbench for invariant-form models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in scenarios").set_defaults(
        handler=_cmd_list
    )

    run = sub.add_parser("run", help="run one scenario with exact comparisons")
    run.add_argument("id")
    run.add_argument("--json", action="store_true", help="machine-readable report")
    run.set_defaults(handler=_cmd_run)

    model = sub.add_parser("model", help="model file utilities")
    actions = model.add_subparsers(dest="action", required=True)
    check = actions.add_parser("check", help="parse and validate a model file")
    check.add_argument("path")
    check.set_defaults(handler=_cmd_model_check)

    bbf_cmd = sub.add_parser("bbf", help="quadratic-form computations")
    bbf_actions = bbf_cmd.add_subparsers(dest="action", required=True)
    gram = bbf_actions.add_parser(
        "gram", help="Gram matrix on the degree-2 cohomology representatives"
    )
    gram.add_argument("path")
    gram.add_argument("--sigma", required=True, help="symplectic form expression")
    gram.add_argument(
        "--normalized", action="store_true",
        help="substitute V -> 1/(mu*mub) into the entries",
    )
    gram.set_defaults(handler=_cmd_bbf_gram)

    coh = sub.add_parser("cohomology", help="dimension and basis of one group")
    coh.add_argument("path")
    coh.add_argument("--theory", required=True, choices=THEORIES)
    coh.add_argument(
        "--degree", required=True,
        help="an integer for de_rham, 'p,q' for the bigraded theories",
    )
    coh.set_defaults(handler=_cmd_cohomology)

    grass = sub.add_parser(
        "grass-degree", help="degree table of the bivector embedding up to n"
    )
    grass.add_argument("--n", type=int, required=True)
    grass.set_defaults(handler=_cmd_grass)
    return parser


def _cmd_list(args):
    for name, description in list_scenarios():
        print(f"{name:18} {description}")
    return 0


def _cmd_run(args):
    try:
        report = run_scenario(args.id)
    except UnknownScenario as exc:
        print(f"unknown scenario {exc.args[0]!r}", file=sys.stderr)
        return EX_ERROR
    if args.json:
        print(report.to_json())
    else:
        print(f"scenario {report.scenario}: {report.description}")
        for step in report.steps:
            flag = "ok " if step.match else "FAIL"
            print(f"  {flag} {step.name}: {_short(step.computed)}")
            if not step.match:
                print(f"       expected: {_short(step.expected)}")
        verdict = "pass" if report.passed else "fail"
        print(f"result: {verdict}")
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    if report.error:
        print(report.error, file=sys.stderr)
        return EX_ERROR
    return report.first_failure()


def _short(value):
    text = str(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _cmd_model_check(args):
    model = load_model(args.path)
    diagnostics = model.validate()
    cf = model.coframe
    print(
        f"ok: {len(cf.generators)} generators "
        f"({cf.n_holomorphic} holomorphic), "
        f"{sum(1 for g in cf.generators if model.differential_of(g.name))} "
        "nonzero differentials"
    )
    for line in diagnostics:
        print(f"  {line}")
    return 0


def _cmd_bbf_gram(args):
    model = load_model(args.path)
    sigma = parse_form(args.sigma, model.coframe)
    space = bbf.make_symplectic(model, sigma)
    basis = model.cohomology(DE_RHAM, 2).basis
    gram = bbf.gram_matrix(space, basis, mode="oracle")
    if args.normalized:
        gram = bbf.normalize_gram(space, gram)
    print(f"mu = {space.mu}")
    print("basis:")
    for form in basis:
        print(f"  {form}")
    print("gram:")
    for row in gram.render():
        print("  [" + ", ".join(row) + "]")
    return 0


def _cmd_cohomology(args):
    model = load_model(args.path)
    size, shape = (1, "an integer k") if args.theory == DE_RHAM else (2, "integers p,q")
    try:
        slot = tuple(int(part) for part in args.degree.split(","))
    except ValueError:
        slot = ()
    if len(slot) != size:
        raise ParseError(f"{args.theory} takes {shape}, got {args.degree!r}",
                         field="--degree")
    report = model.cohomology(args.theory, slot[0] if size == 1 else slot)
    print(f"{args.theory} {report.slot}: dimension {report.dimension}")
    for form in report.basis:
        print(f"  {form}")
    return 0


def _cmd_grass(args):
    if args.n < 2:
        raise ValueError("n must be at least 2")
    for n in range(2, args.n + 1):
        curve = pluecker_curve(n)
        print(
            f"n={n} degree={curve.degree()} "
            f"distinguished_order={curve.alpha_vanishing_order()}"
        )
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, UnknownVariable, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
