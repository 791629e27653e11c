"""Sequential elimination voting games.

Voters take turns striking candidates from the ballot until one remains.
This package computes outcomes under sincere, strategic and mixed behaviour,
measures the welfare cost of strategy through exact Borda-score ratios,
constructs worst-case profiles attaining the closed-form bounds, and runs
exhaustive and Monte-Carlo ratio studies reproducibly across worker counts.

The top level re-exports the entry points and the types they take; every
other name lives in its submodule.
"""

from .core import (
    EliminationSequence,
    PreferenceProfile,
    Vote,
    format_profile,
    parse_profile,
)
from .cultures import CultureSpec, sample_rankings_batch
from .errors import (
    BudgetExceeded,
    CandidateUnknown,
    ElimGameError,
    InvalidVoter,
    LengthMismatch,
    OutOfDomain,
    ParseError,
    PhiOutOfRange,
    SequenceLengthMismatch,
    StructureUnsatisfiable,
    TreeTooLarge,
    Unsatisfiable,
    ZeroWelfare,
)
from .experiments import ExperimentConfig, run_experiment
from .extremal import ExtremalMode, generate, verify_tight
from .play import (
    BehaviorAssignment,
    backward_induction,
    mixed_play,
    sincere_play,
    spne_outcome,
)
from .sweep import RatioMode
from .welfare import (
    poa_for_sequence,
    poa_formula,
    ratio_ab,
    ratio_cb,
    sr_upper_bound,
)

__version__ = "0.1.0"

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
    "LengthMismatch",
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
