"""Sequential elimination voting games.

Voters take turns striking candidates from the ballot until one remains.
This package computes outcomes under sincere, strategic and mixed behaviour,
measures the welfare cost of strategy through exact Borda-score ratios,
constructs worst-case profiles attaining the closed-form bounds, and runs
exhaustive and Monte-Carlo ratio studies reproducibly across worker counts.

The top level re-exports the entry points and the types they take; every
other name lives in its submodule. Importing the package or naming a culture
loads no numpy; ``sample_rankings_batch`` loads it on first use, and the study
names when a study runs chunks: AB and Monte-Carlo ones, not CB exhaustive ones.
"""

from importlib import import_module

from .core import (
    CultureSpec,
    EliminationSequence,
    PreferenceProfile,
    Vote,
    format_profile,
    parse_profile,
)
from .errors import (
    BudgetExceeded,
    CandidateUnknown,
    ElimGameError,
    InvalidVoter,
    OutOfDomain,
    ParseError,
    PhiOutOfRange,
    SequenceLengthMismatch,
    StructureUnsatisfiable,
    TreeTooLarge,
    Unsatisfiable,
    ZeroWelfare,
)
from .extremal import ExtremalMode, generate, verify_tight
from .play import (
    BehaviorAssignment,
    backward_induction,
    mixed_play,
    sincere_play,
    spne_outcome,
)
from .welfare import (
    RatioMode,
    poa_for_sequence,
    poa_formula,
    ratio_ab,
    ratio_cb,
    sr_upper_bound,
)

__version__ = "0.1.0"

#: the study names and their modules, imported on first use: ``cultures``
#: loads numpy, and ``experiments`` loads it only once a study runs chunks
_STUDY_NAMES = {"sample_rankings_batch": "cultures",
                "ExperimentConfig": "experiments", "run_experiment": "experiments"}


def __getattr__(name):
    if name not in _STUDY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_STUDY_NAMES[name]}", __name__), name)


__all__ = [
    "BehaviorAssignment",
    "BudgetExceeded",
    "CandidateUnknown",
    "CultureSpec",
    "ElimGameError",
    "EliminationSequence",
    "ExperimentConfig",
    "ExtremalMode",
    "InvalidVoter",
    "OutOfDomain",
    "ParseError",
    "PhiOutOfRange",
    "PreferenceProfile",
    "RatioMode",
    "SequenceLengthMismatch",
    "StructureUnsatisfiable",
    "TreeTooLarge",
    "Unsatisfiable",
    "Vote",
    "ZeroWelfare",
    "__version__",
    "backward_induction",
    "format_profile",
    "generate",
    "mixed_play",
    "parse_profile",
    "poa_for_sequence",
    "poa_formula",
    "ratio_ab",
    "ratio_cb",
    "run_experiment",
    "sample_rankings_batch",
    "sincere_play",
    "spne_outcome",
    "sr_upper_bound",
    "verify_tight",
]
