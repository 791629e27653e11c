"""Acceptance gate: ten independent checks, one verdict line each.

Every test prints ``[criterion NN] PASS|FAIL: ...`` (run with ``-s`` to
stream the lines) and then asserts its check. Rational quantities are
compared exactly; sampled statistics are compared at the stated tolerance.

The reference anarchy-ratio means describe the reversed turn order. Each
is the Borda optimum over the *sincere* winner on the sequence ``s``,
which is the strategic winner on ``reverse(s)``. Criteria 2 and 5 therefore
compare them with runs on ``s[::-1]``:

* criterion 2 — all seven exhaustive reference means match the
  reversed-sequence sweep after rounding. The four rows that change under
  reversal (1112221, 1222111, 1122111, 111223) match only in that
  direction; the other three are their own reversal up to renaming
  voters. The worst-case column does not depend on the direction and is
  checked exactly on ``s``, and for the (2, 8) rows the sweep mean on
  ``s`` must equal the scalar game engine's exact mean over all profiles.
* criterion 5 — with the anarchy rows on ``s[::-1]``, 6 of the 8 anarchy
  rows and 3 of the 8 sincerity rows fit the reference. Seven rows match
  neither direction at 1e6 samples with seed 0: 111222345 ab ic,
  123451243 ab Mallows, 123114235 cb ic, and the four Mallows cb rows.
  The abstract alone does not settle whether the reference used another
  Mallows parametrisation, so this check stays red with the measured
  values in its verdict line.

One more check encodes an external reference statistic that a faithful
implementation measurably does not reproduce, and it also fails honestly:

* criterion 6 — under low-dispersion cultures the sampled ratios keep a
  real tail above 1 (the sampler itself is validated exactly by criterion
  9), so a mean of exactly 1 with zero deviation is not attainable.

The tolerances below are the acceptance contract; do not widen them to
make a red check green.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from elimgame import (
    BehaviorAssignment,
    CultureSpec,
    EliminationSequence,
    ExperimentConfig,
    ExtremalMode,
    RatioMode,
    Vote,
    backward_induction,
    generate,
    mixed_play,
    poa_for_sequence,
    poa_formula,
    ratio_ab,
    ratio_cb,
    run_experiment,
    sample_rankings_batch,
    sincere_play,
    spne_outcome,
    sr_upper_bound,
    verify_tight,
)
from elimgame.sweep import play_batch_winners
from elimgame.welfare import sr_bound_for_sequence
from helpers import enumerate_profiles, mallows_pmf, random_instance, relabel, seq, seq_from

WORKERS = min(8, os.cpu_count() or 1)

# Exhaustive anarchy-ratio rows: sequence, n, m, exact worst case, reference
# mean rounded to two decimals.
AB_ROWS = [
    ("1112221", 2, 8, Fraction(10, 7), 1.02),
    ("1222111", 2, 8, Fraction(10, 7), 1.03),
    ("1122111", 2, 8, Fraction(11, 7), 1.06),
    ("123123", 3, 7, Fraction(13, 6), 1.06),
    ("123321", 3, 7, Fraction(13, 6), 1.06),
    ("111223", 3, 7, Fraction(14, 6), 1.06),
    ("112233", 3, 7, Fraction(13, 6), 1.07),
]

# Exhaustive sincerity-ratio rows: sequence, n, m, exact worst case.
CB_ROWS = [
    ("1112221", 2, 8, Fraction(11, 8)),
    ("1222111", 2, 8, Fraction(10, 8)),
    ("1122111", 2, 8, Fraction(9, 8)),
    ("123123", 3, 7, Fraction(14, 7)),
    ("123321", 3, 7, Fraction(1)),
    ("111223", 3, 7, Fraction(15, 7)),
    ("112233", 3, 7, Fraction(14, 7)),
]

# Closed-form bound references; the anarchy entry is None where no reference
# value exists for the row.
BOUND_ROWS = [
    ("1112221", 2, 8, Fraction(10, 7), Fraction(11, 8)),
    ("1222111", 2, 8, Fraction(10, 7), Fraction(11, 8)),
    ("1122111", 2, 8, Fraction(11, 7), Fraction(12, 8)),
    ("123123", 3, 7, Fraction(13, 6), Fraction(14, 7)),
    ("123321", 3, 7, Fraction(13, 6), Fraction(14, 7)),
    ("111223", 3, 7, Fraction(14, 6), Fraction(15, 7)),
    ("112233", 3, 7, Fraction(13, 6), Fraction(14, 7)),
    ("112321345", 5, 10, None, Fraction(39, 10)),
    ("123114235", 5, 10, None, Fraction(39, 10)),
    ("123451243", 5, 10, None, Fraction(38, 10)),
    ("111222345", 5, 10, None, Fraction(39, 10)),
]

# Sampled rows at (5, 10): sequence, mode, phi (None = impartial culture),
# reference mean, reference std.
MC_ROWS = [
    ("112321345", RatioMode.AB, None, 1.10, 0.16),
    ("123114235", RatioMode.AB, None, 1.10, 0.16),
    ("123451243", RatioMode.AB, None, 1.10, 0.16),
    ("111222345", RatioMode.AB, None, 1.05, 0.16),
    ("112321345", RatioMode.AB, 0.6, 1.03, 0.07),
    ("123114235", RatioMode.AB, 0.6, 1.03, 0.07),
    ("123451243", RatioMode.AB, 0.6, 1.03, 0.12),
    ("111222345", RatioMode.AB, 0.6, 1.03, 0.07),
    ("112321345", RatioMode.CB, None, 1.04, 0.19),
    ("123114235", RatioMode.CB, None, 1.09, 0.17),
    ("123451243", RatioMode.CB, None, 1.01, 0.15),
    ("111222345", RatioMode.CB, None, 1.05, 0.20),
    ("112321345", RatioMode.CB, 0.6, 1.00, 0.08),
    ("123114235", RatioMode.CB, 0.6, 1.00, 0.06),
    ("123451243", RatioMode.CB, 0.6, 0.98, 0.10),
    ("111222345", RatioMode.CB, 0.6, 1.00, 0.08),
]

SEQS_510 = ["112321345", "123114235", "123451243", "111222345"]

_EXHAUSTIVE_CACHE: dict = {}


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def exhaustive(compact: str, n: int, m: int, mode: RatioMode):
    key = (compact, n, m, mode)
    if key not in _EXHAUSTIVE_CACHE:
        t0 = time.monotonic()
        res = run_experiment(ExperimentConfig(
            n=n, m=m, sequence=seq_from(compact), mode=mode, workers=WORKERS))
        _EXHAUSTIVE_CACHE[key] = (res, time.monotonic() - t0)
    return _EXHAUSTIVE_CACHE[key]


def montecarlo(compact: str, mode: RatioMode, phi, samples: int):
    culture = CultureSpec.impartial() if phi is None else CultureSpec.mallows(phi)
    return run_experiment(ExperimentConfig(
        n=5, m=10, sequence=seq_from(compact), mode=mode, culture=culture,
        samples=samples, seed=0, workers=WORKERS))


def test_c01_reduced_strategic_play_equals_game_tree_oracle():
    t0 = time.monotonic()
    rng = random.Random(4242)
    checked = bad = 0
    for _ in range(10_000):
        p, s = random_instance(rng, n_choices=(2, 3), m_choices=(3, 4, 5, 6))
        checked += 1
        if spne_outcome(p, s).winner != backward_induction(p, s).winner:
            bad += 1
    for m in (2, 3, 4):
        for p in enumerate_profiles(2, m, fix_first=False):
            for turns in itertools.product((1, 2), repeat=m - 1):
                s = seq(*turns)
                checked += 1
                if spne_outcome(p, s).winner != backward_induction(p, s).winner:
                    bad += 1
    dt = time.monotonic() - t0
    verdict(1, bad == 0 and dt < 60.0,
            f"{checked} games ({bad} disagreements), {dt:.1f}s of a 60s budget")


def exact_scalar_mean(compact: str, n: int, m: int) -> Fraction:
    """Mean anarchy ratio over the whole enumeration, one scalar game at a time."""
    s = seq_from(compact)
    ratios = [ratio_ab(p, s) for p in enumerate_profiles(n, m)]
    return sum(ratios, Fraction(0)) / len(ratios)


def test_c02_exhaustive_anarchy_ratio_rows():
    # Reference means describe the reversed sequence (see the module docstring).
    problems = []
    for compact, n, m, max_ref, mean_ref in AB_ROWS:
        res, dt = exhaustive(compact, n, m, RatioMode.AB)
        rev = compact[::-1]
        rres, _ = exhaustive(rev, n, m, RatioMode.AB)
        budget = 5.0 if (n, m) == (2, 8) else 600.0
        rounded = round(rres.mean, 2)
        print(f"  {compact} ({n},{m}): max {res.sweep.max_ratio}, mean {res.mean:.4f}; "
              f"reversed {rev} mean {rres.mean:.4f} -> {rounded:.2f} "
              f"(reference {mean_ref:.2f}), {dt:.1f}s")
        if res.sweep.max_ratio != max_ref:
            problems.append(f"{compact} max {res.sweep.max_ratio} != {max_ref}")
        if dt >= budget:
            problems.append(f"{compact} took {dt:.1f}s (budget {budget:.0f}s)")
        if abs(rounded - mean_ref) > 0.005 + 1e-12:
            problems.append(
                f"{compact} reference mean {mean_ref:.2f}, but reversed sequence "
                f"{rev} gives {rres.mean:.4f} -> {rounded:.2f}")
        if (n, m) == (2, 8):
            scalar = exact_scalar_mean(compact, n, m)
            if res.sweep.mean != scalar:
                problems.append(f"{compact} sweep mean {res.sweep.mean} != "
                                f"scalar mean {scalar}")
    verdict(2, not problems,
            "7 worst cases exact, 7 reversed-sequence means at reference within "
            "0.005 after rounding, 3 (2,8) sweep means equal to the scalar engine's"
            if not problems else "; ".join(problems))


def test_c03_exhaustive_sincerity_ratio_rows():
    problems = []
    for compact, n, m, max_ref in CB_ROWS:
        res, dt = exhaustive(compact, n, m, RatioMode.CB)
        print(f"  {compact} ({n},{m}): max {res.sweep.max_ratio}, "
              f"mean {res.mean:.4f}, {dt:.1f}s")
        if res.sweep.max_ratio != max_ref:
            problems.append(f"{compact} max {res.sweep.max_ratio} != {max_ref}")
    pal, _ = exhaustive("123321", 3, 7, RatioMode.CB)
    if pal.sweep.mean != 1 or pal.sweep.variance != 0:
        problems.append(
            f"palindromic 123321 mean {pal.sweep.mean}, variance "
            f"{pal.sweep.variance} (want exactly 1 and 0)")
    verdict(3, not problems,
            "7 worst cases exact; palindromic row has mean exactly 1, deviation exactly 0"
            if not problems else "; ".join(problems))


def test_c04_closed_form_bounds_from_occurrence_counts():
    problems = []
    entries = 0
    for compact, n, m, poa_ref, sr_ref in BOUND_ROWS:
        s = seq_from(compact)
        o_max = s.occurrences(n).o_max
        checks = [("sincerity bound", sr_upper_bound(n, m, o_max),
                   sr_bound_for_sequence(s, n, m), sr_ref)]
        if poa_ref is not None:
            checks.append(("anarchy bound", poa_formula(n, m, o_max),
                           poa_for_sequence(s, n, m), poa_ref))
        for name, from_o_max, from_seq, ref in checks:
            entries += 1
            if not (from_o_max == from_seq == ref):
                problems.append(f"{compact} {name}: formula {from_o_max}, "
                                f"wrapper {from_seq}, reference {ref}")
    # the one (5, 10) anarchy reference is stated for o_max = 3
    entries += 1
    if poa_formula(5, 10, 3) != Fraction(38, 9):
        problems.append(f"(5,10) o_max=3 anarchy bound {poa_formula(5, 10, 3)} != 38/9")
    verdict(4, not problems,
            f"{entries} bound entries reproduced exactly from (n, m, o_max)"
            if not problems else "; ".join(problems))


def test_c05_sampled_reference_statistics_at_1e6():
    # Anarchy rows run on s[::-1], the convention of criterion 2.
    problems = []
    t0 = time.monotonic()
    for compact, mode, phi, mean_ref, std_ref in MC_ROWS:
        run_on = compact[::-1] if mode is RatioMode.AB else compact
        res = montecarlo(run_on, mode, phi, 10**6)
        tag = f"{compact} {mode.value} {'ic' if phi is None else f'mallows {phi}'}"
        flaws = []
        if abs(res.mean - mean_ref) > 0.01:
            flaws.append(f"mean {res.mean:.4f} vs {mean_ref:.2f}")
        if abs(res.std - std_ref) > 0.02:
            flaws.append(f"std {res.std:.4f} vs {std_ref:.2f}")
        via = f" on {run_on}" if run_on != compact else ""
        print(f"  {tag}{via}: mean {res.mean:.4f} (ref {mean_ref:.2f}), "
              f"std {res.std:.4f} (ref {std_ref:.2f})"
              + (" MISMATCH" if flaws else ""))
        if flaws:
            problems.append(f"{tag}: " + ", ".join(flaws))
    dt = time.monotonic() - t0
    verdict(5, not problems,
            f"16 rows at 1e6 samples within mean +-0.01 / std +-0.02, {dt:.0f}s"
            if not problems else
            f"{len(problems)}/16 rows off reference at 1e6 samples (seed 0, "
            f"anarchy rows on the reversed sequence): "
            + "; ".join(problems))


def test_c06_low_dispersion_ratios_stay_near_one():
    problems = []
    for phi in (0.1, 0.3, 0.5):
        for compact in SEQS_510:
            for mode in (RatioMode.AB, RatioMode.CB):
                res = montecarlo(compact, mode, phi, 10**5)
                line = (f"phi {phi} {compact} {mode.value}: "
                        f"mean {res.mean:.4f} std {res.std:.4f}")
                bad = abs(res.mean - 1.0) > 0.001 or res.std > 0.005
                print("  " + line + (" MISMATCH" if bad else ""))
                if bad:
                    problems.append(line)
    verdict(6, not problems,
            "24 low-dispersion runs with mean 1.000+-0.001 and std <= 0.005"
            if not problems else
            f"{len(problems)}/24 runs outside mean 1.000+-0.001 / std <= 0.005 "
            f"at 1e5 samples; the ratio tail above 1 is real (the sampler is "
            f"validated exactly by criterion 9), e.g. {problems[-1]}")


def test_c07_extremal_constructions_attain_their_bounds():
    problems = []
    for compact, n, m, bound_ref, _mean in AB_ROWS:
        s = seq_from(compact)
        prof, _spec = generate(ExtremalMode.POA, s, n, m)
        rep = verify_tight(prof, s, ExtremalMode.POA, oracle=True)
        if not (rep.attained and rep.achieved == rep.bound == bound_ref
                and rep.oracle_agrees):
            problems.append(
                f"{compact}: achieved {rep.achieved}, bound {rep.bound}, "
                f"reference {bound_ref}, oracle_agrees {rep.oracle_agrees}")
    s = seq(1, 1, 2, 1, 3, 1)
    prof, _spec = generate(ExtremalMode.SR, s, 3, 7)
    borda = prof.borda_scores()
    scores = (borda[sincere_play(prof, s).winner], borda[spne_outcome(prof, s).winner])
    rep = verify_tight(prof, s, ExtremalMode.SR, oracle=True)
    if scores != (16, 7):
        problems.append(f"sincerity instance scores {scores} != (16, 7)")
    if not (rep.attained and rep.achieved == rep.bound == Fraction(16, 7)
            and rep.oracle_agrees
            and backward_induction(prof, s).winner == spne_outcome(prof, s).winner):
        problems.append(
            f"sincerity instance: achieved {rep.achieved}, bound {rep.bound}, "
            f"oracle_agrees {rep.oracle_agrees}")
    verdict(7, not problems,
            "7 anarchy constructions and the 16/7 sincerity instance attain "
            "their bounds, oracle-verified"
            if not problems else "; ".join(problems))


def test_c08_property_suites_hold_with_zero_violations():
    rng = random.Random(8181)
    violations: dict[str, int] = {}

    # palindromic turn orders: sincere and strategic winners coincide
    bad = 0
    for _ in range(1000):
        p, _ = random_instance(rng)
        n, m = p.n, p.m
        half = [rng.randrange(n) for _ in range((m - 1) // 2)]
        mid = [rng.randrange(n)] if (m - 1) % 2 else []
        s = seq(*[v + 1 for v in half + mid + half[::-1]])
        if sincere_play(p, s).winner != spne_outcome(p, s).winner:
            bad += 1
    violations["palindromic"] = bad

    # a voter with q turns never sees one of her q least-liked win
    bad = 0
    for _ in range(1000):
        p, s = random_instance(rng)
        occ = s.occurrences(p.n)
        for t in (sincere_play(p, s), spne_outcome(p, s)):
            for voter in range(p.n):
                if p.rank(t.winner, voter) > p.m - occ.counts[voter]:
                    bad += 1
    violations["rank-bound"] = bad

    # pointwise reversal duality, and the anarchy ratio never dips below 1
    bad = 0
    for _ in range(1000):
        p, s = random_instance(rng)
        if ratio_cb(p, s) * ratio_cb(p, s.reverse()) != 1:
            bad += 1
        if ratio_ab(p, s) < 1:
            bad += 1
    violations["duality-and-ab>=1"] = bad

    # mixed play ignores how sincere and strategic turns interleave
    bad = 0
    checked = 0
    while checked < 40:
        n = rng.choice([2, 3])
        m = rng.choice([3, 4, 5])
        p, _ = random_instance(rng, n_choices=(n, n), m_choices=(m, m))
        sincere = frozenset(v for v in range(n) if rng.random() < 0.5)
        turns = [rng.randrange(n) for _ in range(m - 1)]
        sinc_part = [t for t in turns if t in sincere]
        strat_part = [t for t in turns if t not in sincere]
        if len(sinc_part) > 4 or len(strat_part) > 4:
            continue
        checked += 1
        winners = set()
        for mask in itertools.combinations(range(m - 1), len(sinc_part)):
            arrangement: list = [None] * (m - 1)
            it_s = iter(sinc_part)
            for i in mask:
                arrangement[i] = next(it_s)
            it_t = iter(strat_part)
            for i in range(m - 1):
                if arrangement[i] is None:
                    arrangement[i] = next(it_t)
            t = mixed_play(p, seq(*[v + 1 for v in arrangement]),
                           BehaviorAssignment(sincere))
            winners.add(t.winner)
        if len(winners) != 1:
            bad += 1
    violations["interleaving"] = bad

    # relabelling the candidates leaves both ratios unchanged
    bad = 0
    for _ in range(1000):
        p, s = random_instance(rng)
        perm = list(range(p.m))
        rng.shuffle(perm)
        q = relabel(p, perm)
        if ratio_ab(q, s) != ratio_ab(p, s) or ratio_cb(q, s) != ratio_cb(p, s):
            bad += 1
    violations["relabelling"] = bad

    # both closed-form bounds hold pointwise on 1e5 sampled instances
    bad = 0
    batch = 1000
    for block in range(100):
        n = 2 + block % 4
        m = 3 + (block // 4) % 6
        shape_rng = random.Random(9000 + block)
        turns = [shape_rng.randrange(n) for _ in range(m - 1)]
        s = seq(*[v + 1 for v in turns])
        rows = sample_rankings_batch(n, m, CultureSpec.impartial(),
                                     5000 + block, 0, batch)
        pos = [np.argsort(rows[:, v, :], axis=1).astype(np.int64)
               for v in range(n)]
        borda = sum((m - 1) - pv for pv in pos)
        r = np.arange(batch)
        w_s = play_batch_winners(pos, turns)
        w_b = play_batch_winners(pos, turns[::-1])
        best = borda.max(axis=1)
        den = borda[r, w_b]
        num_s = borda[r, w_s]
        poa = poa_for_sequence(s, n, m)
        ub = sr_bound_for_sequence(s, n, m)
        bad += int(np.count_nonzero(best < den))
        bad += int(np.count_nonzero(best * poa.denominator > den * poa.numerator))
        bad += int(np.count_nonzero(num_s * ub.denominator > den * ub.numerator))
        bad += int(np.count_nonzero(num_s * ub.numerator < den * ub.denominator))
    violations["bounds-1e5"] = bad

    total = sum(violations.values())
    detail = ", ".join(f"{k}: {v}" for k, v in violations.items())
    verdict(8, total == 0,
            f"zero violations across all suites ({detail})"
            if total == 0 else f"violations found ({detail})")


def test_c09_mallows_sampler_matches_the_exact_distribution():
    votes = sample_rankings_batch(1, 4, CultureSpec.mallows(0.6),
                                  2024, 0, 10**6)[:, 0, :].astype(np.int64)
    code = ((votes[:, 0] * 4 + votes[:, 1]) * 4 + votes[:, 2]) * 4 + votes[:, 3]
    counts = np.bincount(code, minlength=256)
    pmf = mallows_pmf(4, 0.6, Vote((0, 1, 2, 3)))
    covered = 0
    worst = 0.0
    for p, prob in pmf.items():
        c = int(counts[((p[0] * 4 + p[1]) * 4 + p[2]) * 4 + p[3]])
        covered += c
        worst = max(worst, abs(c / 10**6 - prob))
    verdict(9, worst <= 0.003 and covered == 10**6,
            f"24 ranking frequencies within {worst:.2e} of exact at 1e6 votes "
            f"(tolerance 3e-3), all {covered} votes valid rankings")


def test_c10_sampled_output_bytes_identical_across_worker_counts(tmp_path):
    outputs = []
    for workers in (1, 4, 16):
        out = tmp_path / f"hist-{workers}.csv"
        cmd = [sys.executable, "-m", "elimgame", "montecarlo",
               "--n", "5", "--m", "10", "--sequence", "1,1,2,3,2,1,3,4,5",
               "--mode", "cb", "--culture", "mallows:phi=0.6",
               "--samples", "1200000", "--seed", "42",
               "--workers", str(workers), "--bins", "40", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, out.read_bytes()))
    ok = all(o == outputs[0] for o in outputs[1:])
    verdict(10, ok,
            "summary and histogram bytes identical for workers 1, 4 and 16 "
            "at 1.2e6 samples" if ok else
            "output bytes differ between worker counts")
