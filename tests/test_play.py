import itertools
import random
import tracemalloc

import numpy as np
import pytest

from elimgame import (
    BehaviorAssignment,
    InvalidVoter,
    PreferenceProfile,
    SequenceLengthMismatch,
    TreeTooLarge,
    backward_induction,
    mixed_play,
    sincere_play,
    spne_outcome,
)
from elimgame.cultures import permutation_table
from elimgame.play import GameTrace, trace_report
from elimgame import sweep
from elimgame.sweep import next_mask_table, play_batch_winners, range_batch_play
from helpers import profile, random_instance, random_sequence, rank, seq


def names(p, trace):
    return [p.label(c) for _, c in trace.steps], p.label(trace.winner)


class TestSincere:
    def test_five_candidate_walkthrough(self):
        p = profile("abcde", "edcba", "debca")
        t = sincere_play(p, seq(1, 2, 3, 1))
        steps, winner = names(p, t)
        assert steps == ["e", "a", "c", "d"]
        assert winner == "b"
        assert t.mode == "sincere"
        assert t.semantics == "elimination-path"

    def test_four_candidate_walkthrough(self):
        p = profile("abcd", "cbad", "cadb")
        steps, winner = names(p, sincere_play(p, seq(1, 2, 3)))
        assert steps == ["d", "a", "b"]
        assert winner == "c"

    def test_single_turn(self):
        p = profile("ab", "ba")
        t = sincere_play(p, seq(2))
        assert names(p, t) == (["a"], "b")

    def test_length_mismatch_rejected(self):
        with pytest.raises(SequenceLengthMismatch):
            sincere_play(profile("abc", "cba"), seq(1))


class TestStrategic:
    def test_four_candidate_walkthrough(self):
        # optimal play elects a where sincere play elects c
        p = profile("abcd", "cbad", "cadb")
        t = spne_outcome(p, seq(1, 2, 3))
        assert p.label(t.winner) == "a"
        assert t.semantics == "sincere-on-reversed-sequence"

    def test_equals_sincere_on_reversed_sequence(self):
        p = profile("abcde", "edcba", "debca")
        s = seq(1, 3, 2, 1)
        assert spne_outcome(p, s).winner == sincere_play(p, s.reverse()).winner

    def test_oracle_agrees_on_walkthrough(self):
        p = profile("abcd", "cbad", "cadb")
        t = backward_induction(p, seq(1, 2, 3))
        assert p.label(t.winner) == "a"
        assert t.mode == "oracle"
        # the oracle's path is a real elimination path of the original game
        assert [v for v, _ in t.steps] == [0, 1, 2]

    @pytest.mark.parametrize("trial", range(60))
    def test_oracle_agrees_on_random_instances(self, trial):
        rng = random.Random(7000 + trial)
        p, s = random_instance(rng)
        assert backward_induction(p, s).winner == spne_outcome(p, s).winner

    def test_oracle_winner_invariant_to_tie_break(self):
        p = profile("abcd", "cbad", "cadb")
        s = seq(1, 2, 3)
        winners = {
            backward_induction(p, s, tie_break=tb).winner
            for tb in itertools.permutations(range(4))
        }
        assert len(winners) == 1

    def test_oracle_path_depends_on_tie_break(self):
        # lone voter ranks c > b > a: eliminating a or b first both keep c
        # winning, so the first step is exactly the tie-break's earliest of
        # the two while the winner stays fixed.
        p = profile("cba")
        s = seq(1, 1)
        asc = backward_induction(p, s, tie_break=(0, 1, 2))
        desc = backward_induction(p, s, tie_break=(2, 1, 0))
        assert p.label(asc.winner) == p.label(desc.winner) == "c"
        assert names(p, asc)[0] == ["a", "b"]
        assert names(p, desc)[0] == ["b", "a"]

    def test_oracle_tree_guard(self):
        m = 11
        ranking = tuple(range(m))
        p = profile(*["".join(chr(97 + c) for c in ranking)] * 2)
        s = seq(*([1] * (m - 1)))
        with pytest.raises(TreeTooLarge):
            backward_induction(p, s)
        t = backward_induction(p, s, max_candidates=11)
        assert p.label(t.winner) == "a"

    def test_oracle_rejects_bad_tie_break(self):
        p = profile("abc", "cba")
        with pytest.raises(ValueError):
            backward_induction(p, seq(1, 2), tie_break=(0, 0, 1))


class TestMixed:
    def test_one_strategic_voter_walkthrough(self):
        # voter 2 strategic among sincere 1 and 3: winner moves from b to c
        p = profile("abcd", "cbad", "bcad")
        s = seq(1, 2, 3)
        t = mixed_play(p, s, BehaviorAssignment.of(0, 2))
        assert p.label(t.winner) == "c"
        assert t.semantics == "sincere-subsequence-then-reversed-strategic"
        all_sincere = mixed_play(p, s, BehaviorAssignment.of(0, 1, 2))
        assert p.label(all_sincere.winner) == "b"

    def test_six_candidate_walkthrough(self):
        p = profile("abcdef", "edcbaf", "fdebca", "afecdb")
        t = mixed_play(p, seq(1, 2, 3, 4, 4), BehaviorAssignment.of(1, 3))
        steps, winner = names(p, t)
        assert winner == "c"
        # reduced order: sincere subsequence (2,4,4) then reversed (1,3)
        assert steps == ["f", "b", "d", "a", "e"]
        assert [v + 1 for v, _ in t.steps] == [2, 4, 4, 3, 1]

    def test_empty_sincere_set_is_strategic(self):
        for trial in range(20):
            rng = random.Random(7100 + trial)
            p, s = random_instance(rng)
            t = mixed_play(p, s, BehaviorAssignment())
            want = spne_outcome(p, s)
            assert (t.steps, t.winner) == (want.steps, want.winner)

    def test_all_sincere_set_is_sincere(self):
        for trial in range(20):
            rng = random.Random(7200 + trial)
            p, s = random_instance(rng)
            t = mixed_play(p, s, BehaviorAssignment(frozenset(range(p.n))))
            want = sincere_play(p, s)
            assert (t.steps, t.winner) == (want.steps, want.winner)

    def test_interleaving_invariance(self):
        # every interleaving of fixed sincere/strategic contents ties
        rng = random.Random(321)
        for _ in range(40):
            n = rng.choice([2, 3])
            m = rng.choice([3, 4, 5])
            p, _ = random_instance(rng, n_choices=(n, n), m_choices=(m, m))
            sincere = frozenset(
                v for v in range(n) if rng.random() < 0.5
            )
            turns = [rng.randrange(n) for _ in range(m - 1)]
            sinc_part = [t for t in turns if t in sincere]
            strat_part = [t for t in turns if t not in sincere]
            if len(sinc_part) > 4 or len(strat_part) > 4:
                continue
            winners = set()
            for mask in itertools.combinations(range(m - 1), len(sinc_part)):
                arrangement = [None] * (m - 1)
                it_s = iter(sinc_part)
                for i in mask:
                    arrangement[i] = next(it_s)
                it_t = iter(strat_part)
                for i in range(m - 1):
                    if arrangement[i] is None:
                        arrangement[i] = next(it_t)
                t = mixed_play(
                    p,
                    seq(*[v + 1 for v in arrangement]),
                    BehaviorAssignment(sincere),
                )
                winners.add(t.winner)
            assert len(winners) == 1

    def test_rejects_unknown_voter(self):
        p = profile("abc", "cba")
        with pytest.raises(InvalidVoter):
            mixed_play(p, seq(1, 2), BehaviorAssignment.of(5))


class TestWinnerGuarantees:
    def test_palindromic_sequences_need_no_strategy(self):
        # palindromic turn order: sincere and optimal winners coincide
        rng = random.Random(99)
        for _ in range(1000):
            p, _ = random_instance(rng)
            m, n = p.m, p.n
            half = [rng.randrange(n) for _ in range((m - 1) // 2)]
            mid = [rng.randrange(n)] if (m - 1) % 2 else []
            turns = half + mid + half[::-1]
            s = seq(*[v + 1 for v in turns])
            assert s.is_palindromic()
            assert sincere_play(p, s).winner == spne_outcome(p, s).winner

    def test_frequent_voters_block_their_worst(self):
        # a voter with q turns never sees one of her q least liked win
        rng = random.Random(123)
        for _ in range(500):
            p, s = random_instance(rng)
            occ = s.occurrences(p.n)
            for t in (sincere_play(p, s), spne_outcome(p, s)):
                for voter in range(p.n):
                    q = occ.counts[voter]
                    assert rank(p, t.winner, voter) <= p.m - q


class TestTraceReport:
    def test_report_shape(self):
        p = profile("abcde", "edcba", "debca")
        rep = trace_report(sincere_play(p, seq(1, 2, 3, 1)), p)
        assert rep["winner"] == "b"
        assert rep["steps"][0] == {"voter": 1, "eliminated": "e"}
        assert rep["steps"][3] == {"voter": 1, "eliminated": "d"}
        assert rep["mode"] == "sincere"

    def test_trace_is_frozen(self):
        t = GameTrace("sincere", ((0, 1),), 0)
        with pytest.raises(AttributeError):
            t.winner = 2


class TestBatchKernel:
    def test_matches_scalar_play(self):
        rng = random.Random(55)
        for _ in range(30):
            n = rng.choice([2, 3])
            m = rng.choice([3, 4, 5, 6])
            B = rng.choice([1, 7, 33])
            batches = []
            profiles = []
            for _ in range(B):
                p, _ = random_instance(rng, n_choices=(n, n), m_choices=(m, m))
                profiles.append(p)
            for v in range(n):
                arr = np.array(
                    [list(p.votes[v].positions) for p in profiles], dtype=np.int8
                )
                batches.append(arr)
            turns = tuple(rng.randrange(n) for _ in range(m - 1))
            s = seq(*[t + 1 for t in turns])
            got = play_batch_winners(batches, turns)
            want = [sincere_play(p, s).winner for p in profiles]
            assert got.tolist() == want

    def test_broadcast_rows(self):
        # a (1, m) row stands for the same vote across the whole batch
        rng = random.Random(56)
        n, m, B = 3, 5, 40
        fixed, _ = random_instance(rng, n_choices=(1, 1), m_choices=(m, m))
        var_profiles = []
        for _ in range(B):
            p, _ = random_instance(rng, n_choices=(2, 2), m_choices=(m, m))
            var_profiles.append(p)
        pos0 = np.array([list(fixed.votes[0].positions)], dtype=np.int8)
        pos1 = np.array(
            [list(p.votes[0].positions) for p in var_profiles], dtype=np.int8
        )
        pos2 = np.array(
            [list(p.votes[1].positions) for p in var_profiles], dtype=np.int8
        )
        turns = (0, 2, 1, 0)
        got = play_batch_winners([pos0, pos1, pos2], turns)
        from elimgame import PreferenceProfile

        for b in range(B):
            full = PreferenceProfile(
                (fixed.votes[0], var_profiles[b].votes[0], var_profiles[b].votes[1])
            )
            want = sincere_play(full, seq(*[t + 1 for t in turns])).winner
            assert got[b] == want


class TestInPlaceKernel:
    """Each turn multiplies the acting voter's slots by the (m, B) alive mask
    and reduces the m rows to the worst alive slot; dead entries read 0,
    below every alive slot while two or more candidates are alive, so
    clearing the one entry equal to that worst slot is exact."""

    @staticmethod
    def scalar_winners(batches, turns):
        B = max(b.shape[0] for b in batches)
        s = seq(*[t + 1 for t in turns])
        out = []
        for row in range(B):
            votes = [b[row if b.shape[0] > 1 else 0] for b in batches]
            p = PreferenceProfile.from_rankings(
                [tuple(int(c) for c in np.argsort(v)) for v in votes]
            )
            out.append(sincere_play(p, s).winner)
        return out

    @staticmethod
    def random_positions(rng, rows, m, dtype=np.int8):
        return np.argsort(rng.random((rows, m)), axis=1).astype(dtype)

    def test_int64_positions(self):
        rng = np.random.default_rng(80)
        for m in (2, 3, 7, 12):
            n = 3
            batches = [self.random_positions(rng, 25, m, np.int64) for _ in range(n)]
            turns = tuple(int(t) for t in rng.integers(n, size=m - 1))
            got = play_batch_winners(batches, turns)
            narrow = play_batch_winners([b.astype(np.int8) for b in batches], turns)
            assert got.tolist() == narrow.tolist() == self.scalar_winners(batches, turns)

    def test_all_but_one_voter_broadcast(self):
        rng = np.random.default_rng(81)
        for m in (3, 6, 10):
            n = 4
            batches = [self.random_positions(rng, 1, m) for _ in range(n)]
            batches[2] = self.random_positions(rng, 60, m)
            turns = tuple(int(t) for t in rng.integers(n, size=m - 1))
            got = play_batch_winners(batches, turns)
            assert got.shape == (60,)
            assert got.tolist() == self.scalar_winners(batches, turns)

    def test_reused_buffers_carry_no_state(self):
        # one process's kernel buffers serve back-to-back calls of several
        # shapes, dtypes and turn orders: each call equals a fresh process's
        # call, and no call writes into winners a caller still holds
        rng = np.random.default_rng(84)
        cases = []
        for m, rows, dtype in [(5, 40, np.int8), (5, 40, np.int64), (9, 40, np.int8),
                               (5, 17, np.int8), (5, 40, np.int8)]:
            batches = [self.random_positions(rng, rows, m, dtype) for _ in range(3)]
            batches[1] = batches[1][:1]
            cases.append((batches, tuple(int(t) for t in rng.integers(3, size=m - 1))))
        fresh = []
        for batches, turns in cases:
            sweep._play_buffers.cache_clear()
            fresh.append(play_batch_winners(batches, turns).tolist())
        held = [(play_batch_winners(batches, turns), want)
                for (batches, turns), want in zip(cases * 2, fresh * 2)]
        for i, (got, want) in enumerate(held):
            assert got.tolist() == want
            assert not any(np.shares_memory(got, other) for other, _ in held[i + 1:])
        assert fresh == [self.scalar_winners(*case) for case in cases]

    @pytest.mark.parametrize("m", [2, 5, 9, 16, 24])
    def test_matches_sincere_play(self, m):
        rng = np.random.default_rng(82 + m)
        for _ in range(4):
            n = int(rng.integers(1, 6))
            batches = [self.random_positions(rng, 30, m) for _ in range(n)]
            turns = tuple(int(t) for t in rng.integers(n, size=m - 1))
            assert play_batch_winners(batches, turns).tolist() == self.scalar_winners(
                batches, turns
            )

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("m", [2, 10, 24, 127])
    def test_layouts_agree(self, m, dtype):
        # C-contiguous (B, m) rows, (m, B)-contiguous transposes (the sampler's
        # layout) and (1, m) broadcast rows all give the scalar winners
        rng = np.random.default_rng(90 + m)
        n, B = 3, 20
        rows = [self.random_positions(rng, B, m, dtype) for _ in range(n)]
        rows[1] = self.random_positions(rng, 1, m, dtype)
        cols = [np.ascontiguousarray(r.T).T for r in rows]
        assert not cols[0].flags.c_contiguous and cols[0].T.flags.c_contiguous
        turns = tuple(int(t) for t in rng.integers(n, size=m - 1))
        want = self.scalar_winners(rows, turns)
        assert play_batch_winners(rows, turns).tolist() == want
        assert play_batch_winners(cols, turns).tolist() == want

    @pytest.mark.parametrize("m,dtype", [(127, np.int8), (127, np.int64), (300, np.int64)])
    def test_winners_index_take(self, m, dtype):
        # winners reduce over candidate ids of the narrowest unsigned type:
        # the largest id must come back as a valid index at int8's limit of
        # 127 candidates and past a byte's 256
        rng = np.random.default_rng(m)
        n, B = 2, 40
        rows = [self.random_positions(rng, B, m, dtype) for _ in range(n)]
        turns = tuple(int(t) for t in rng.integers(n, size=m - 1))
        got = play_batch_winners(rows, turns)
        want = self.scalar_winners(rows, turns)
        assert got.tolist() == want
        labels = np.arange(1000, 1000 + m)
        assert labels.take(got).tolist() == [1000 + w for w in want]
        # a batch whose winner is the last candidate everywhere
        last = np.broadcast_to(np.arange(m, dtype=dtype)[::-1], (B, m))
        top = play_batch_winners([last], (0,) * (m - 1))
        assert top.tolist() == [m - 1] * B and labels.take(top).tolist() == [1000 + m - 1] * B


class TestWorstAliveTable:
    """The next-mask table and the kernel that plays ranking ids through it."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_every_entry_is_the_lowest_alive(self, m):
        # every entry is the mask minus its lowest-ranked alive candidate
        pos = permutation_table(m)
        table = next_mask_table(m)
        assert table.shape == (1 << m, pos.shape[0]) and table.dtype == np.uint8
        for r in range(pos.shape[0]):
            for mask in range(1, 1 << m):
                alive = [c for c in range(m) if mask >> c & 1]
                assert table[mask, r] == mask ^ 1 << max(alive, key=lambda c: pos[r, c])

    def test_building_the_largest_table_stays_in_bytes(self):
        # the m = 7 table is 0.62 MiB; one intp temporary of its shape is 4.9 MiB.
        # The position table it reads is built first and the table itself is
        # dropped from its cache, so the peak is this build's alone.
        permutation_table(7)
        next_mask_table.cache_clear()
        tracemalloc.start()
        try:
            next_mask_table(7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_kernel_matches_position_kernel(self, m):
        rng = np.random.default_rng(70 + m)
        pos = permutation_table(m)
        table = next_mask_table(m)
        fact = pos.shape[0]
        shapes = ["random", "idle", "first"] + (["consecutive"] if m > 2 else [])
        inner = False
        for shape in shapes * 4:
            # the last voter runs over a random range of ranking ids, the
            # others keep one id each
            n = int(rng.integers(2 if shape == "idle" else 1, 5))
            last = n - 1
            turns = [int(t) for t in rng.integers(n - (shape == "idle"), size=m - 1)]
            if shape == "first":
                turns[0] = last
            elif shape == "consecutive":
                at = int(rng.integers(m - 2))
                turns[at:at + 2] = [last, last]
            ids = [int(i) for i in rng.integers(fact, size=last)]
            low = int(rng.integers(fact))
            high = int(rng.integers(low + 1, fact + 1))
            inner |= 0 < low and high < fact
            winners = range_batch_play(table, ids, np.arange(low, high), turns)
            assert isinstance(winners, int) == (last not in turns)
            got = np.broadcast_to(winners, (high - low,))
            want = play_batch_winners([pos[i:i + 1] for i in ids] + [pos[low:high]], turns)
            assert got.tolist() == want.tolist()
        assert inner or m == 2
