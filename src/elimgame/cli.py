"""Command-line interface.

Subcommands: solve (play one game), exhaustive and montecarlo (ratio
studies), extremal (bound-attaining profiles), bounds (closed forms only).
Exit codes: 0 success, 2 parse errors, 3 model-shape errors, 4 infeasible
constructions, 5 budget refusals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import CultureKind, CultureSpec, EliminationSequence
from .core import format_profile, parse_profile, parse_voters
from .errors import BudgetExceeded, ElimGameError, OutOfDomain, ParseError, Unsatisfiable
from .welfare import RatioMode, poa_for_sequence, ratio_json, sr_bound_for_sequence

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_INFEASIBLE = 4
EXIT_BUDGET = 5
#: exit status of each error class, subclasses before their bases
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (BudgetExceeded, EXIT_BUDGET),
    (Unsatisfiable, EXIT_INFEASIBLE),
    (ElimGameError, EXIT_SHAPE),
)

#: most histogram bins; each costs about 140 bytes of peak memory
MAX_BINS = 10**5


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bins(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_BINS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_BINS}, got {value}")
    return value


def _add_sequence_arg(p):
    p.add_argument("--sequence", required=True,
                   help="comma-separated 1-based voter turns, e.g. 1,2,3,1")


def _add_game_args(p):
    p.add_argument("--n", type=int, required=True, help="number of voters")
    p.add_argument("--m", type=int, required=True, help="number of candidates")
    _add_sequence_arg(p)


def _add_study_args(p):
    _add_game_args(p)
    p.add_argument("--mode", choices=["ab", "cb"], default="ab",
                   help="ratio: ab = anarchy, cb = sincerity")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="processes, capped at the usable CPUs; "
                        "a CB exhaustive study runs in one")
    p.add_argument("--bins", type=_bins, default=60,
                   help=f"histogram bins, 1 to {MAX_BINS}")
    p.add_argument("--out", help="write histogram CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elimgame",
        description="sequential elimination voting games: outcomes, "
                    "welfare ratios, worst cases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="play one game and print its trace")
    p.add_argument("--profile", required=True, help="profile file path, - for stdin")
    _add_sequence_arg(p)
    p.add_argument("--behavior", choices=["sincere", "strategic", "oracle", "mixed"],
                   default="sincere")
    p.add_argument("--sincere-set",
                   help="mixed only: comma-separated 1-based sincere voters")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exhaustive", help="ratio stats over every profile")
    _add_study_args(p)
    p.add_argument("--fix-first", action=argparse.BooleanOptionalAction, default=True,
                   help="pin voter 1 to the identity ranking (sound by relabelling)")
    p.add_argument("--force", action="store_true",
                   help="ignore the enumeration budget")
    p.set_defaults(func=cmd_study, config=_exhaustive_config)

    p = sub.add_parser("montecarlo", help="ratio stats over sampled profiles")
    _add_study_args(p)
    p.add_argument("--culture", default="ic", help="ic or mallows:phi=X")
    p.add_argument("--phi", type=float, help="Mallows dispersion in (0,1]")
    p.add_argument("--reference", choices=["identity", "random"], default="identity",
                   help="Mallows reference ranking policy")
    p.add_argument("--samples", type=_positive_int, required=True,
                   help="profiles to sample, at least 1")
    p.add_argument("--seed", type=int, default=0, help="0 to 2**64-1")
    p.set_defaults(func=cmd_study, config=_montecarlo_config)

    p = sub.add_parser("extremal", help="construct a bound-attaining profile")
    _add_game_args(p)
    p.add_argument("--mode", choices=["poa", "sr"], default="poa")
    p.add_argument("--oracle", action="store_true",
                   help="re-verify the strategic winner by backward induction")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("bounds", help="print the closed-form bounds")
    _add_game_args(p)
    p.set_defaults(func=cmd_bounds)

    return parser


def _read_profile(path: str):
    if path == "-":
        return parse_profile(sys.stdin.read())
    with open(path) as fh:
        return parse_profile(fh.read())


def cmd_solve(args) -> int:
    from .play import (BehaviorAssignment, backward_induction, mixed_play, sincere_play,
                       spne_outcome, trace_report)
    if args.sincere_set is not None and args.behavior != "mixed":
        raise ParseError("--sincere-set applies only to --behavior mixed")
    profile = _read_profile(args.profile)
    seq = EliminationSequence.parse(args.sequence)
    if args.behavior == "sincere":
        trace = sincere_play(profile, seq)
    elif args.behavior == "strategic":
        trace = spne_outcome(profile, seq)
    elif args.behavior == "oracle":
        trace = backward_induction(profile, seq)
    else:
        # an empty or missing set is the empty set; anything else is a voter list
        text = args.sincere_set or ""
        voters = parse_voters(text, "sincere set") if text.strip() else ()
        trace = mixed_play(profile, seq, BehaviorAssignment(frozenset(voters)))
    print(json.dumps(trace_report(trace, profile), indent=2))
    return EXIT_OK


def _exhaustive_config(args) -> dict:
    return {"fix_first": args.fix_first, "budget": (1 << 63) if args.force else None}


def _montecarlo_config(args) -> dict:
    if not 0 <= args.seed < 1 << 64:
        raise ParseError(f"--seed must lie in 0..2**64-1, got {args.seed}")
    culture = CultureSpec.parse(args.culture, phi=args.phi)
    if args.reference == "random":
        if culture.kind is not CultureKind.MALLOWS:
            raise OutOfDomain("--reference only applies to Mallows cultures")
        culture = CultureSpec.mallows(culture.phi, random_reference=True)
    return {"culture": culture, "samples": args.samples, "seed": args.seed}


def _check_writable(path: str) -> None:
    """Raise OSError now if ``path`` cannot be opened for writing, so a bad
    ``--out`` fails before the study runs. A study refused later leaves no
    new file behind and an existing file's bytes as they were."""
    try:
        open(path, "x").close()
    except FileExistsError:
        open(path, "a").close()
    else:
        os.remove(path)


def cmd_study(args) -> int:
    # Each command imports the engine it runs, so only the study commands
    # import the study layer. It loads numpy once a study runs chunks (AB
    # exhaustive and Monte-Carlo studies; a CB exhaustive study never does)
    # or builds a culture.
    # The package calls no BLAS routine, so OpenBLAS's thread pool would only
    # spin beside the sweep; a value the user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .experiments import ExperimentConfig, render_report, run_experiment, write_histogram_csv
    own = args.config(args)  # first, so its refusals precede the sequence's
    config = ExperimentConfig(args.n, args.m, EliminationSequence.parse(args.sequence),
                              RatioMode.parse(args.mode), workers=args.workers,
                              histogram_bins=args.bins, **own)
    if args.out:
        _check_writable(args.out)
    result = run_experiment(config)
    sys.stdout.write(render_report(result))
    if args.out:
        write_histogram_csv(args.out, result)
    return EXIT_OK


def cmd_extremal(args) -> int:
    from .extremal import ExtremalMode, generate, verify_tight
    seq = EliminationSequence.parse(args.sequence)
    mode = ExtremalMode.parse(args.mode)
    profile, spec = generate(mode, seq, args.n, args.m)
    report = verify_tight(profile, seq, mode, oracle=args.oracle)
    payload = {
        "mode": mode.value,
        "n": args.n,
        "m": args.m,
        "sequence": seq.to_text(),
        "achieved": ratio_json(report.achieved),
        "bound": ratio_json(report.bound),
        "attained": report.attained,
        "x": spec.x + 1,
        "profile": format_profile(profile).splitlines(),
    }
    if report.oracle_agrees is not None:
        payload["oracle_agrees"] = report.oracle_agrees
    sys.stdout.write(format_profile(profile))
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_bounds(args) -> int:
    seq = EliminationSequence.parse(args.sequence)
    seq.validate(args.n, args.m)
    occ = seq.occurrences(args.n)
    payload = {
        "sequence": seq.to_text(),
        "n": args.n,
        "m": args.m,
        "o_max": occ.o_max,
        "occurrences": list(occ.counts),
        "poa": ratio_json(poa_for_sequence(seq, args.n, args.m)),
        "sr_upper_bound": ratio_json(sr_bound_for_sequence(seq, args.n, args.m)),
        "palindromic": seq.is_palindromic(),
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a write to a full disk or a closed pipe fails here, as one line and
        # exit 2, even when stdout is block-buffered, not at interpreter exit
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()
    except ElimGameError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
