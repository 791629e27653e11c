import itertools
from fractions import Fraction

import pytest

from elimgame import (
    EliminationSequence,
    ExtremalMode,
    RatioMode,
    StructureUnsatisfiable,
    Unsatisfiable,
    backward_induction,
    generate,
    poa_for_sequence,
    ratio_ab,
    ratio_cb,
    sincere_play,
    spne_outcome,
    verify_tight,
)
from elimgame.extremal import gen_poa_tight, gen_sr_tight
from elimgame.experiments import run_exhaustive
from elimgame.welfare import sr_bound_for_sequence
from helpers import profile, seq, seq_from


POA_SEQS = [
    (seq_from("1112221"), 2, 8),
    (seq_from("1222111"), 2, 8),
    (seq_from("123123"), 3, 7),
    (seq_from("123321"), 3, 7),
    (seq_from("111223"), 3, 7),
    (seq(1, 2, 1), 2, 4),
    (seq(3, 3, 3), 3, 4),
]


class TestAnarchyTight:
    @pytest.mark.parametrize("s,n,m", POA_SEQS)
    def test_attains_the_bound(self, s, n, m):
        p, spec = gen_poa_tight(s, n, m)
        assert ratio_ab(p, s) == poa_for_sequence(s, n, m)
        assert spec.mode is ExtremalMode.POA

    @pytest.mark.parametrize("s,n,m", POA_SEQS)
    def test_structural_criteria(self, s, n, m):
        p, spec = gen_poa_tight(s, n, m)
        counts = s.occurrences(n).counts
        x, a, b = spec.x, spec.a, spec.b
        # b sits exactly O_i from the bottom for every voter
        for i in range(n):
            assert p.rank(b, i) == m - counts[i]
        # x puts the favourite a right below b; everyone else tops a
        assert p.rank(a, x) == p.rank(b, x) + 1
        for i in range(n):
            if i != x:
                assert p.rank(a, i) == 1
        # nobody shares a below-b candidate with another voter
        seen = {}
        for i in range(n):
            for c in range(m):
                if p.rank(c, i) > p.rank(b, i):
                    assert c not in seen, (c, seen[c], i)
                    seen[c] = i

    @pytest.mark.parametrize("s,n,m", POA_SEQS)
    def test_b_wins_both_ways_and_a_never(self, s, n, m):
        p, spec = gen_poa_tight(s, n, m)
        assert sincere_play(p, s).winner == spec.b
        assert spne_outcome(p, s).winner == spec.b
        assert spec.a not in (sincere_play(p, s).winner, spne_outcome(p, s).winner)

    @pytest.mark.parametrize(
        "s,n,m", [(seq(1, 2, 1), 2, 4), (seq(1, 2, 3), 3, 4), (seq(2, 2, 1), 2, 4)]
    )
    def test_nothing_beats_it_in_the_full_space(self, s, n, m):
        p, _ = gen_poa_tight(s, n, m)
        assert run_exhaustive(s, n, m, RatioMode.AB).max_ratio == ratio_ab(p, s)

    def test_rejects_single_voter(self):
        with pytest.raises(Unsatisfiable):
            gen_poa_tight(seq(1, 1, 1), 1, 4)


class TestSincerityTight:
    def test_three_voter_walkthrough(self):
        # the (3,7) instance with turn counts (4,1,1): sincere winner scores
        # 16, strategic winner 7, hitting the bound 16/7 exactly
        s = seq(1, 1, 2, 1, 3, 1)
        p, spec = gen_sr_tight(s, 3, 7)
        sinc = sincere_play(p, s).winner
        strat = spne_outcome(p, s).winner
        assert sinc == spec.c and strat == spec.b
        assert p.borda_score(sinc) == 16
        assert p.borda_score(strat) == 7
        assert ratio_cb(p, s) == Fraction(16, 7)
        assert sr_bound_for_sequence(s, 3, 7) == Fraction(16, 7)
        assert backward_induction(p, s).winner == strat

    @pytest.mark.parametrize(
        "s,n,m",
        [
            (seq_from("1112221"), 2, 8),
            (seq(1, 1, 1, 1, 2, 2, 2), 2, 8),  # block order, busiest first
            (seq(1, 1, 1, 2, 2, 3), 3, 7),
            (seq(1, 1, 2), 2, 4),
        ],
    )
    def test_attains_the_bound_when_structure_exists(self, s, n, m):
        p, spec = gen_sr_tight(s, n, m)
        assert ratio_cb(p, s) == sr_bound_for_sequence(s, n, m)
        assert sincere_play(p, s).winner == spec.c
        assert spne_outcome(p, s).winner == spec.b

    def test_structural_criteria(self):
        s = seq(1, 1, 1, 2, 2, 3)
        n, m = 3, 7
        p, spec = gen_sr_tight(s, n, m)
        counts = s.occurrences(n).counts
        x, y, b, c, e = spec.x, spec.y, spec.b, spec.c, spec.e
        assert p.rank(c, x) == m - counts[x]
        assert p.rank(b, x) == m - counts[x] - 1
        for i in range(n):
            if i != x:
                assert p.rank(c, i) == 1
                assert p.rank(b, i) == m - counts[i]
        # exactly one candidate (e) is below b for two voters: x and y
        shared = {
            cand
            for cand in range(m)
            if sum(p.rank(cand, i) > p.rank(b, i) for i in range(n)) > 1
        }
        assert shared == {e}
        assert p.rank(e, x) > p.rank(b, x) and p.rank(e, y) > p.rank(b, y)

    def test_reversed_sequence_hits_the_reciprocal_minimum(self):
        s = seq(1, 1, 2)
        p, _ = gen_sr_tight(s, 2, 4)
        bound = sr_bound_for_sequence(s, 2, 4)
        assert ratio_cb(p, s.reverse()) == 1 / bound
        rev = run_exhaustive(s.reverse(), 2, 4, RatioMode.CB)
        assert rev.min_ratio == 1 / bound

    @pytest.mark.parametrize(
        "s,n,m",
        [
            (seq_from("1222111"), 2, 8),
            (seq_from("1122111"), 2, 8),
            (seq_from("123321"), 3, 7),   # palindromic
            (seq(1, 2, 2, 1), 2, 5),      # palindromic
        ],
    )
    def test_unsatisfiable_sequences_refused(self, s, n, m):
        with pytest.raises(StructureUnsatisfiable):
            gen_sr_tight(s, n, m)

    def test_busiest_voter_block_too_tall(self):
        # o_max = m-1 leaves no slot for b above the block
        with pytest.raises(StructureUnsatisfiable):
            gen_sr_tight(seq(1, 1, 1), 2, 4)

    def test_refusals_are_honest(self):
        # at (2, 4): where the generator refuses, no profile attains the
        # bound either; where it builds one, nothing in the full space beats
        # it (TestBoundAudit checks the same over larger spaces)
        for turns in itertools.product([1, 2], repeat=3):
            s = seq(*turns)
            bound = sr_bound_for_sequence(s, 2, 4)
            true_max = run_exhaustive(s, 2, 4, RatioMode.CB).max_ratio
            try:
                p, _ = gen_sr_tight(s, 2, 4)
            except StructureUnsatisfiable:
                assert true_max < bound, s
            else:
                assert ratio_cb(p, s) == bound == true_max, s

    def test_rejects_single_voter(self):
        with pytest.raises(Unsatisfiable):
            gen_sr_tight(seq(1, 1, 1), 1, 4)

    @pytest.mark.parametrize("gen", [gen_poa_tight, gen_sr_tight])
    def test_rejects_single_candidate(self, gen):
        with pytest.raises(Unsatisfiable):
            gen(EliminationSequence(()), 2, 1)


class TestBoundAudit:
    """Both bounds against exhaustive sweeps of every sequence at small sizes.

    The anarchy bound is always reached. The sincerity bound is never
    exceeded, and it is reached exactly where gen_sr_tight builds a profile,
    which then attains it; tied busiest voters each get a turn as x.
    """

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5)])
    def test_every_sequence(self, n, m):
        for turns in itertools.product(range(1, n + 1), repeat=m - 1):
            s = seq(*turns)
            assert run_exhaustive(s, n, m, RatioMode.AB).max_ratio == poa_for_sequence(s, n, m), s
            self.assert_sincerity_bound(s, n, m)

    @pytest.mark.parametrize("n,m", [(3, 6), (4, 5)])
    def test_every_sequence_cb_only(self, n, m):
        # an AB sweep still plays every profile, 1.7 million per sequence at
        # (4, 5); a CB sweep counts trajectories and searches for its witness
        for turns in itertools.product(range(1, n + 1), repeat=m - 1):
            self.assert_sincerity_bound(seq(*turns), n, m)

    @staticmethod
    def assert_sincerity_bound(s, n, m):
        bound = sr_bound_for_sequence(s, n, m)
        true_max = run_exhaustive(s, n, m, RatioMode.CB).max_ratio
        try:
            p, _ = gen_sr_tight(s, n, m)
        except StructureUnsatisfiable:
            assert true_max < bound, s
        else:
            assert ratio_cb(p, s) == bound == true_max, s


class TestVerifyAndDispatch:
    def test_generate_dispatch(self):
        s = seq(1, 1, 2)
        assert generate(ExtremalMode.POA, s, 2, 4)[0] == gen_poa_tight(s, 2, 4)[0]
        assert generate(ExtremalMode.SR, s, 2, 4)[0] == gen_sr_tight(s, 2, 4)[0]

    def test_mode_parse(self):
        assert ExtremalMode.parse("poa") is ExtremalMode.POA
        assert ExtremalMode.parse("SR") is ExtremalMode.SR
        with pytest.raises(ValueError):
            ExtremalMode.parse("abc")

    def test_verify_tight_attained(self):
        s = seq(1, 2, 1)
        p, _ = gen_poa_tight(s, 2, 4)
        rep = verify_tight(p, s, ExtremalMode.POA, oracle=True)
        assert rep.attained
        assert rep.achieved == rep.bound == poa_for_sequence(s, 2, 4)
        assert rep.oracle_agrees is True

    def test_verify_tight_not_attained(self):
        # unanimous voters: strategy changes nothing, ratio stays 1 < bound
        p = profile("abcd", "abcd")
        s = seq(1, 2, 1)
        rep = verify_tight(p, s, ExtremalMode.SR)
        assert not rep.attained
        assert rep.achieved == 1
        assert rep.oracle_agrees is None
