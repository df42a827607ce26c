"""Exact symbolic workbench for invariant-form models of compact complex
manifolds: wedge calculus, de Rham / Dolbeault / Bott-Chern / Aeppli
cohomology of finite bigraded differential algebras, and the
Beauville-Bogomolov-Fujiki quadratic form."""

from .bbf import (
    AntisymmetricMatrix,
    GramMatrix,
    SymplecticSpace,
    bilinear,
    check_block_orthogonality,
    gram_discrepancies,
    gram_matrix,
    make_symplectic,
    normalize_gram,
    pfaffian,
    product_q,
    q_sigma,
    standard_degree_two_basis,
    vanishing_identity,
)
from .dga import (
    AEPPLI,
    BOTT_CHERN,
    DE_RHAM,
    DOLBEAULT,
    THEORIES,
    CohomologyReport,
    DdbarCheck,
    LambdaMap,
    StructureModel,
)
from .errors import (
    ConjugationMismatch,
    DegenerateSymplectic,
    IntegrabilityError,
    ModelMismatch,
    NotClosed,
    OddSize,
    ParseError,
    UnknownScenario,
    UnknownVariable,
    UnspecializedParameters,
    UnsupportedBasis,
)
from .exterior import Coframe, Form, Generator
from .expressions import parse_form, parse_scalar
from .grass import PlueckerCurve, pluecker_curve
from .models import (
    kodaira,
    kodaira_sigma,
    load_model,
    model_to_dict,
    nakamura,
    save_model,
    torus,
    torus4_deformed,
)
from .scalars import (
    GaussianRational,
    PolyScalar,
    ScalarFraction,
    VariableTable,
    substitute_fraction,
)
from .scenarios import (
    ScenarioReport,
    Step,
    list_scenarios,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymmetricMatrix", "GramMatrix", "SymplecticSpace", "bilinear",
    "check_block_orthogonality", "gram_discrepancies", "gram_matrix",
    "make_symplectic",
    "normalize_gram", "pfaffian", "product_q", "q_sigma",
    "standard_degree_two_basis", "vanishing_identity",
    "AEPPLI", "BOTT_CHERN", "DE_RHAM", "DOLBEAULT", "THEORIES",
    "CohomologyReport", "DdbarCheck", "LambdaMap", "StructureModel",
    "ConjugationMismatch", "DegenerateSymplectic", "IntegrabilityError",
    "ModelMismatch", "NotClosed", "OddSize", "ParseError", "UnknownScenario",
    "UnknownVariable", "UnspecializedParameters", "UnsupportedBasis",
    "Coframe", "Form", "Generator", "parse_form", "parse_scalar",
    "PlueckerCurve", "pluecker_curve",
    "kodaira", "kodaira_sigma", "load_model", "model_to_dict", "nakamura",
    "save_model", "torus", "torus4_deformed",
    "GaussianRational", "PolyScalar", "ScalarFraction", "VariableTable",
    "substitute_fraction",
    "ScenarioReport", "Step", "list_scenarios", "run_scenario",
]
