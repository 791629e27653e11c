import random

import pytest
from hypothesis import example, given, strategies as st

from elimgame import (
    CandidateUnknown,
    EliminationSequence,
    InvalidVoter,
    ParseError,
    PreferenceProfile,
    SequenceLengthMismatch,
    Vote,
    format_profile,
    parse_profile,
)
from elimgame.core import default_labels
from helpers import profile, seq


def permutations(m_max=7):
    return st.integers(2, m_max).flatmap(
        lambda m: st.permutations(list(range(m))).map(tuple)
    )


class TestVote:
    def test_rank_examples(self):
        assert Vote((0, 1, 2, 3)).rank(0) == 1
        assert Vote((0, 1, 2, 3)).rank(2) == 3
        assert Vote((4, 3, 2, 1, 0)).rank(1) == 4

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Vote((0, 0, 1))
        with pytest.raises(ValueError):
            Vote((1, 2, 3))

    def test_unknown_candidate(self):
        with pytest.raises(CandidateUnknown):
            Vote((0, 1, 2)).rank(3)

    @given(permutations())
    def test_rank_is_a_bijection(self, ranking):
        v = Vote(ranking)
        assert sorted(v.rank(c) for c in range(v.m)) == list(range(1, v.m + 1))
        for slot, c in enumerate(ranking):
            assert v.rank(c) == slot + 1

    def test_prefers_and_worst(self):
        v = Vote((2, 0, 1))
        assert v.prefers(2, 0) and v.prefers(0, 1) and not v.prefers(1, 2)
        assert v.worst_among({0, 2}) == 0
        assert v.worst_among({0, 1, 2}) == 1


class TestBorda:
    def test_example_scores(self):
        p = profile("abcd", "cbad", "cadb")
        assert p.borda_score(2) == 7
        assert p.borda_score(0) == 6
        assert p.borda_scores() == (6, 4, 7, 1)

    def test_single_vote_extremes(self):
        p = profile("abcd")
        assert p.borda_score(0) == 3
        assert p.borda_score(3) == 0

    def test_unknown_candidate(self):
        with pytest.raises(CandidateUnknown):
            profile("abc").borda_score(3)

    @given(st.integers(1, 4), st.integers(2, 5), st.integers(0, 10**6))
    def test_total_mass_conserved(self, n, m, seed):
        rng = random.Random(seed)
        rankings = []
        for _ in range(n):
            r = list(range(m))
            rng.shuffle(r)
            rankings.append(tuple(r))
        p = PreferenceProfile.from_rankings(rankings)
        assert sum(p.borda_scores()) == n * m * (m - 1) // 2

    def test_relabel_permutes_scores(self):
        p = profile("abcd", "cbad", "cadb")
        perm = (2, 0, 3, 1)
        q = p.relabel(perm)
        for c in range(4):
            assert q.borda_score(perm[c]) == p.borda_score(c)

    @pytest.mark.parametrize("perm", [(0, 0, 1), (1, 2, 3), (0, 1)])
    def test_relabel_rejects_non_permutation(self, perm):
        with pytest.raises(ValueError):
            profile("abc", "cba").relabel(perm)


class TestProfile:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PreferenceProfile(())
        with pytest.raises(ValueError):
            PreferenceProfile((Vote((0, 1)), Vote((0, 1, 2))))
        with pytest.raises(ValueError):
            PreferenceProfile((Vote((0, 1)),), labels=("x",))
        with pytest.raises(ValueError):
            PreferenceProfile((Vote((0, 1)),), labels=("x", "x"))

    def test_default_labels(self):
        assert default_labels(3) == ("a", "b", "c")
        assert default_labels(27)[26] == "c27"
        assert profile("cab").label(2) == "c"

    @pytest.mark.parametrize("c", [-1, 3])
    def test_label_out_of_range(self, c):
        with pytest.raises(CandidateUnknown):
            profile("cab").label(c)

    def test_rank_lookup(self):
        p = profile("abc", "cba")
        assert p.rank(0, 0) == 1
        assert p.rank(0, 1) == 3
        with pytest.raises(InvalidVoter):
            p.rank(0, 2)


class TestOccurrences:
    def test_examples(self):
        assert seq(1, 1, 1, 2, 2, 2, 1).occurrences(2).counts == (4, 3)
        assert seq(1, 1, 1, 2, 2, 2, 1).occurrences(2).o_max == 4
        assert seq(1, 2, 3, 1, 2, 3).occurrences(3).counts == (2, 2, 2)
        assert seq(1).occurrences(3).counts == (1, 0, 0)

    def test_rejects_out_of_range_voter(self):
        with pytest.raises(InvalidVoter):
            seq(1, 3).occurrences(2)
        with pytest.raises(InvalidVoter):
            EliminationSequence((-1,))

    def test_length_check(self):
        with pytest.raises(SequenceLengthMismatch):
            seq(1, 2).validate(2, 4)
        seq(1, 2, 1).validate(2, 4)


class TestSequence:
    def test_palindromic(self):
        assert seq(1, 2, 3, 3, 2, 1).is_palindromic()
        assert seq(1).is_palindromic()
        assert not seq(1, 2, 3).is_palindromic()

    def test_reverse_examples(self):
        assert seq(1, 2, 3).reverse() == seq(3, 2, 1)
        assert seq(1, 2, 2).reverse() == seq(2, 2, 1)
        p = seq(1, 2, 2, 1)
        assert p.reverse() == p

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=9))
    def test_reverse_involution(self, turns):
        s = EliminationSequence(tuple(turns))
        assert s.reverse().reverse() == s
        assert s.is_palindromic() == (s.reverse() == s)

    def test_parse_and_render(self):
        s = EliminationSequence.parse("1,2,3,1")
        assert s.turns == (0, 1, 2, 0)
        assert s.to_text() == "1,2,3,1"
        assert s.compact() == "1231"
        assert EliminationSequence.parse(" 2 , 1 ").turns == (1, 0)

    def test_compact_falls_back_for_wide_indices(self):
        s = EliminationSequence((9, 0))
        assert s.compact() == "10,1"

    @pytest.mark.parametrize("text", ["", "0", "1,,2", "1,x", "-1", "1.5", "²,1", "+1", "1_0",
                                      pytest.param("1" * 5000, id="5000-digits")])
    def test_parse_rejects(self, text):
        # "²" is a digit that int() refuses, and so are 5,000 digits
        with pytest.raises(ParseError):
            EliminationSequence.parse(text)

    def test_parse_reads_any_decimal_digits(self):
        assert EliminationSequence.parse("１,2").turns == (0, 1)

    # numbers, punctuation and separators as well as any text, so digits
    # such as "²" and "１" come up often
    @given(st.one_of(st.text(), st.text(st.characters(categories=["N", "P", "Z"]))))
    @example("²")
    def test_parse_returns_a_sequence_or_refuses(self, text):
        try:
            s = EliminationSequence.parse(text)
        except ParseError:
            return
        assert s.turns and all(t >= 0 for t in s.turns)


class TestProfileText:
    def test_parse_basic(self):
        p = parse_profile("a b c\nc b a\n")
        assert p.n == 2 and p.m == 3
        assert p.votes[1].ranking == (2, 1, 0)
        assert p.labels == ("a", "b", "c")

    def test_first_line_fixes_candidate_ids(self):
        p = parse_profile("x z y\ny z x\n")
        # ids follow first-line order: x=0, z=1, y=2
        assert p.votes[0].ranking == (0, 1, 2)
        assert p.votes[1].ranking == (2, 1, 0)
        assert p.label(0) == "x"

    def test_comments_and_blanks(self):
        text = "# header\n\na b  # trailing\nb a\n   \n"
        p = parse_profile(text)
        assert p.n == 2 and p.m == 2

    def test_roundtrip(self):
        text = "north south east\neast south north\nsouth north east\n"
        assert format_profile(parse_profile(text)) == text

    @pytest.mark.parametrize(
        "text,line",
        [
            ("a b\nc b", 2),       # unknown candidate
            ("a b\nb b", 2),       # repeated candidate
            ("a b\na", 2),         # wrong count
            ("a a", 1),            # duplicate in header line
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_profile(text)
        assert err.value.line == line
        assert f"line {line}" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_profile("# only comments\n")
