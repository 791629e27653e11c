import random
from fractions import Fraction

import pytest

from elimgame import (
    OutOfDomain,
    RatioMode,
    SequenceLengthMismatch,
    ZeroWelfare,
    poa_for_sequence,
    poa_formula,
    ratio_ab,
    ratio_cb,
    sr_upper_bound,
)
from elimgame.core import profile_at_index
from elimgame.experiments import run_exhaustive
from elimgame.welfare import _score_ratio, ratio_json, sr_bound_for_sequence
from helpers import enumerate_profiles, profile, random_instance, relabel, seq


EXAMPLE = profile("abcd", "cbad", "cadb")


class TestRatios:
    def test_walkthrough_values(self):
        s = seq(1, 2, 3)
        assert ratio_cb(EXAMPLE, s) == Fraction(7, 6)
        assert ratio_ab(EXAMPLE, s) == Fraction(7, 6)
        assert ratio_cb(EXAMPLE, seq(3, 2, 1)) == Fraction(6, 7)

    def test_ab_is_one_when_strategy_elects_borda_best(self):
        # all-identical votes: the unanimous favourite wins everything
        p = profile("bacd", "bacd")
        assert ratio_ab(p, seq(1, 2, 1)) == 1

    def test_palindromic_cb_is_one(self):
        rng = random.Random(17)
        for _ in range(50):
            p, _ = random_instance(rng)
            half = [rng.randrange(p.n) for _ in range((p.m - 1) // 2)]
            mid = [rng.randrange(p.n)] if (p.m - 1) % 2 else []
            turns = half + mid + half[::-1]
            assert ratio_cb(p, seq(*[v + 1 for v in turns])) == 1

    def test_ab_at_least_one(self):
        rng = random.Random(18)
        for _ in range(300):
            p, s = random_instance(rng)
            assert ratio_ab(p, s) >= 1

    def test_bounds_hold_pointwise(self):
        rng = random.Random(19)
        for _ in range(300):
            p, s = random_instance(rng)
            if p.n < 2:
                continue
            o_max = s.occurrences(p.n).o_max
            assert ratio_ab(p, s) <= poa_formula(p.n, p.m, o_max)
            cb = ratio_cb(p, s)
            ub = sr_upper_bound(p.n, p.m, o_max)
            assert 1 / ub <= cb <= ub

    def test_reversal_inverts_cb_pointwise(self):
        rng = random.Random(20)
        for _ in range(300):
            p, s = random_instance(rng)
            assert ratio_cb(p, s) * ratio_cb(p, s.reverse()) == 1

    def test_relabeling_invariance(self):
        rng = random.Random(21)
        for _ in range(100):
            p, s = random_instance(rng)
            perm = list(range(p.m))
            rng.shuffle(perm)
            q = relabel(p, perm)
            assert ratio_ab(p, s) == ratio_ab(q, s)
            assert ratio_cb(p, s) == ratio_cb(q, s)

    def test_ab_uses_max_score_under_ties(self):
        # b and c tie for the Borda maximum; the ratio uses that score value
        p = profile("bca", "cba")
        s = seq(1, 2)
        scores = p.borda_scores()
        assert scores[1] == scores[2] == max(scores)
        assert ratio_ab(p, s) == Fraction(max(scores), scores[2])

    def test_zero_welfare_guard(self):
        # single voter: her last-ranked candidate scores zero
        p = profile("ab")
        with pytest.raises(ZeroWelfare):
            _score_ratio(p.borda_scores(), 0, 1)

    def test_sequence_validated(self):
        with pytest.raises(SequenceLengthMismatch):
            ratio_ab(EXAMPLE, seq(1, 2))

    def test_ratio_json_shape(self):
        assert ratio_json(Fraction(7, 6)) == {"num": 7, "den": 6, "float": 7 / 6}


class TestClosedForms:
    def test_poa_values(self):
        assert poa_formula(2, 8, 4) == Fraction(10, 7)
        assert poa_formula(3, 7, 3) == Fraction(7, 3)
        assert poa_formula(2, 8, 5) == Fraction(11, 7)

    def test_sr_values(self):
        assert sr_upper_bound(2, 8, 4) == Fraction(11, 8)
        assert sr_upper_bound(5, 10, 3) == Fraction(39, 10)

    def test_sr_peak_when_everyone_votes_once(self):
        # with every voter taking at least one turn, the bound at fixed m is
        # largest for n = m-1 voters with one turn each
        for m in range(3, 9):
            peak = sr_upper_bound(m - 1, m, 1)
            assert peak == Fraction(1 + (m - 2) * (m - 1), m)
            for n in range(2, m):
                for o_max in range(1, m - 1):
                    rest = m - 1 - o_max
                    if not n - 1 <= rest <= (n - 1) * o_max:
                        continue  # no sequence gives everyone a turn
                    assert sr_upper_bound(n, m, o_max) <= peak

    def test_domain_checks(self):
        for fn in (poa_formula, sr_upper_bound):
            with pytest.raises(OutOfDomain):
                fn(1, 8, 4)
            with pytest.raises(OutOfDomain):
                fn(2, 1, 1)
            with pytest.raises(OutOfDomain):
                fn(2, 8, 0)
            with pytest.raises(OutOfDomain):
                fn(2, 8, 8)

    def test_sequence_wrappers_use_o_max_only(self):
        a = poa_for_sequence(seq(1, 1, 1, 2, 2, 2, 1), 2, 8)
        b = poa_for_sequence(seq(1, 2, 2, 2, 1, 1, 1), 2, 8)
        assert a == b == Fraction(10, 7)
        assert sr_bound_for_sequence(seq(1, 1, 1, 2, 2, 2, 1), 2, 8) == Fraction(11, 8)
        with pytest.raises(SequenceLengthMismatch):
            poa_for_sequence(seq(1, 2), 2, 8)


class TestExactWorstRatio:
    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_matches_naive_enumeration(self, mode):
        s = seq(1, 2, 1)
        fn = ratio_ab if mode is RatioMode.AB else ratio_cb
        best = max(fn(p, s) for p in enumerate_profiles(2, 4, fix_first=True))
        res = run_exhaustive(s, 2, 4, mode)
        assert res.max_ratio == best
        assert res.count == 24
        # the witness really attains the reported value
        assert fn(profile_at_index(2, 4, res.max_index), s) == res.max_ratio

    def test_full_space_agrees_with_reduced(self):
        s = seq(1, 2, 1)
        full = run_exhaustive(s, 2, 4, RatioMode.CB, fix_first=False)
        reduced = run_exhaustive(s, 2, 4, RatioMode.CB, fix_first=True)
        assert full.max_ratio == reduced.max_ratio
        assert full.count == 576

    def test_poa_tightness_small(self):
        for s, n, m in [(seq(1, 2, 1), 2, 4), (seq(1, 2, 3), 3, 4), (seq(2, 2, 1), 2, 4)]:
            res = run_exhaustive(s, n, m, RatioMode.AB)
            assert res.max_ratio == poa_for_sequence(s, n, m)

    def test_worst_case_reversal_duality(self):
        # the max sincerity ratio of a sequence is the reciprocal of the
        # reversed sequence's minimum
        for s in [seq(1, 2, 1), seq(2, 1, 1), seq(1, 1, 2)]:
            res = run_exhaustive(s, 2, 4, RatioMode.CB)
            rev = run_exhaustive(s.reverse(), 2, 4, RatioMode.CB)
            assert rev.min_ratio == 1 / res.max_ratio
