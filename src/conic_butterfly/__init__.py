"""Exact projective geometry over a conic: harmonic reflection across chords,
butterfly-style incidence claims, and the machinery to check them.

Everything is computed in exact arithmetic. Verdicts are literal equalities,
never tolerance comparisons; the reports carry the witnesses that prove them.
"""

from .scalars import (
    BACKENDS,
    FieldContract,
    GaussianRational,
    PrimeFieldElement,
    ScalarDivisionError,
    ScalarParseError,
    backend_name,
    get_backend,
)
from .projective import (
    CrossRatioValue,
    DegenerateInputError,
    ProjLine,
    ProjPoint,
    Projectivity,
    ProjectiveError,
    collinearity_residual,
    cross_ratio,
    harmonic_conjugate,
    incident,
    join,
    meet,
)
from .conics import (
    Conic,
    ConicParametrization,
    DegenerateConicError,
    conic_through_five,
    homogenize_affine_conic,
    second_intersection,
    transform_conic,
)
from .reflection import ReflectionFrame
from .checks import (
    lemma_jap_check,
    lemma_mono_check,
    lemma_nut_check,
    lemma_sack_check,
    pascal_check,
    theorem_cutl_check,
    theorem_damn_check,
)
from .reports import CheckReport, Verdict, exit_status
from .scenarios import (
    ButterflyScenario,
    RetryBudget,
    RetryCapError,
    build_scenario,
    random_scenario,
    reference_conic,
)
from .scenario_io import (
    CLAIM_ORDER,
    Expect,
    ScenarioDocument,
    ScenarioParseError,
    parse_scenario,
    run_document,
    serialize_scenario,
)
from .fuzz import CampaignConfig, CampaignCounts, run_campaign
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "FieldContract",
    "GaussianRational",
    "PrimeFieldElement",
    "ScalarDivisionError",
    "ScalarParseError",
    "backend_name",
    "get_backend",
    "CrossRatioValue",
    "DegenerateInputError",
    "ProjLine",
    "ProjPoint",
    "Projectivity",
    "ProjectiveError",
    "collinearity_residual",
    "cross_ratio",
    "harmonic_conjugate",
    "incident",
    "join",
    "meet",
    "Conic",
    "ConicParametrization",
    "DegenerateConicError",
    "conic_through_five",
    "homogenize_affine_conic",
    "second_intersection",
    "transform_conic",
    "ReflectionFrame",
    "lemma_jap_check",
    "lemma_mono_check",
    "lemma_nut_check",
    "lemma_sack_check",
    "pascal_check",
    "theorem_cutl_check",
    "theorem_damn_check",
    "CLAIM_ORDER",
    "CheckReport",
    "Verdict",
    "exit_status",
    "ButterflyScenario",
    "RetryBudget",
    "RetryCapError",
    "build_scenario",
    "random_scenario",
    "reference_conic",
    "Expect",
    "ScenarioDocument",
    "ScenarioParseError",
    "parse_scenario",
    "run_document",
    "serialize_scenario",
    "CampaignConfig",
    "CampaignCounts",
    "run_campaign",
    "render_svg",
    "__version__",
]
