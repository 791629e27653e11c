"""Sequential elimination voting games.

Voters take turns striking candidates from the ballot until one remains.
This package computes outcomes under sincere, strategic and mixed behaviour,
measures the welfare cost of strategy through exact Borda-score ratios,
constructs worst-case profiles attaining the closed-form bounds, and runs
exhaustive and Monte-Carlo ratio studies reproducibly across worker counts.

The top level exports the entry points and the types they take; every other
name lives in its submodule. Each exported name is imported from its
submodule on first use, so ``import elimgame`` loads no submodule and no
numpy: ``sample_rankings_batch`` loads numpy, and the study names load it
when a study runs chunks (AB and Monte-Carlo ones, not CB exhaustive ones).
"""

from importlib import import_module

__version__ = "0.1.0"

#: each submodule and the names the package exports from it
_EXPORTS = {
    "core": ("CultureSpec", "EliminationSequence", "PreferenceProfile", "Vote",
             "format_profile", "parse_profile"),
    "errors": ("BudgetExceeded", "CandidateUnknown", "ElimGameError", "InvalidVoter",
               "OutOfDomain", "ParseError", "PhiOutOfRange", "SequenceLengthMismatch",
               "StructureUnsatisfiable", "TreeTooLarge", "Unsatisfiable", "ZeroWelfare"),
    "play": ("BehaviorAssignment", "backward_induction", "mixed_play", "sincere_play",
             "spne_outcome"),
    "welfare": ("RatioMode", "poa_for_sequence", "poa_formula", "ratio_ab", "ratio_cb",
                "sr_upper_bound"),
    "extremal": ("ExtremalMode", "generate", "verify_tight"),
    "cultures": ("sample_rankings_batch",),
    "experiments": ("ExperimentConfig", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
