import itertools
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from elimgame import (
    BudgetExceeded,
    CultureSpec,
    OutOfDomain,
    RatioMode,
    ZeroWelfare,
    ratio_ab,
    ratio_cb,
    sincere_play,
    spne_outcome,
)
from elimgame import experiments, sweep
from elimgame.core import EliminationSequence, enumeration_size, profile_at_index
from elimgame.cultures import permutation_table
from elimgame.experiments import SweepResult, montecarlo_witness, run_exhaustive, run_montecarlo
from helpers import enumerate_profiles, seq


def assert_same_result(a, b):
    for field in fields(SweepResult):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def naive_exhaustive(s, n, m, mode, fix_first=True):
    fn = ratio_ab if mode is RatioMode.AB else ratio_cb
    vals = [fn(p, s) for p in enumerate_profiles(n, m, fix_first=fix_first)]
    mean = sum(vals, Fraction(0)) / len(vals)
    return {
        "count": len(vals),
        "mean": mean,
        "variance": sum((v - mean) ** 2 for v in vals) / len(vals),
        "max_ratio": max(vals),
        "max_index": vals.index(max(vals)),
        "min_ratio": min(vals),
        "spike_count": sum(1 for v in vals if v == 1),
    }


#: every sequence at four small sizes, as (n, m, 1-based turns)
FULL_SPACE_CASES = [
    (n, m, turns)
    for n, m in [(1, 3), (2, 3), (2, 4), (3, 3)]
    for turns in itertools.product(range(1, n + 1), repeat=m - 1)
]


def assert_matches(res, want):
    for key, value in want.items():
        assert getattr(res, key) == value, key


@contextmanager
def chunks_run():
    """The ``(start, count)`` of every exhaustive chunk that a serial study
    runs inside the block, so a chunk test cannot pass without a chunk."""
    calls = []
    chunk = sweep._exhaustive_chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_exhaustive_chunk",
                      lambda args: calls.append(args[-2:]) or chunk(args))
        yield calls


def tiles(total, chunk):
    """The ``(start, count)`` chunks of ``range(total)``."""
    return [(start, min(chunk, total - start)) for start in range(0, total, chunk)]


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs, whatever the host has, so sweeps may fork three."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


@pytest.fixture
def forks(monkeypatch, three_cpus):
    """The pid of every child this process forks while the test runs."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExhaustiveExactness:
    def test_two_voter_frozen_values(self):
        res = run_exhaustive(seq(1, 2, 1, 2), 2, 5, RatioMode.AB)
        assert_matches(
            res,
            {
                "count": 120,
                "mean": Fraction(2441, 2400),
                "variance": Fraction(2111, 640000),
                "max_ratio": Fraction(5, 4),
                "max_index": 94,
                "min_ratio": Fraction(1),
                "spike_count": 110,
            },
        )
        res = run_exhaustive(seq(1, 2, 1, 2), 2, 5, RatioMode.CB)
        assert_matches(
            res,
            {
                "count": 120,
                "mean": Fraction(25229, 25200),
                "variance": Fraction(1481519, 635040000),
                "max_ratio": Fraction(6, 5),
                "max_index": 62,
                "min_ratio": Fraction(5, 6),
                "spike_count": 110,
            },
        )

    def test_three_voter_frozen_values(self):
        res = run_exhaustive(seq(1, 2, 3), 3, 4, RatioMode.CB)
        assert_matches(
            res,
            {
                "count": 576,
                "mean": Fraction(81457, 80640),
                "variance": Fraction(140725759, 6502809600),
                "max_ratio": Fraction(7, 4),
                "max_index": 305,
                "min_ratio": Fraction(4, 7),
                "spike_count": 428,
            },
        )

    @pytest.mark.parametrize(
        "s,n,m",
        [
            (seq(1, 2, 2, 2), 2, 5),
            (seq(3, 1, 2), 3, 4),
            (seq(1, 2, 3), 3, 4),
        ],
    )
    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_agrees_with_naive_enumeration(self, s, n, m, mode):
        assert_matches(run_exhaustive(s, n, m, mode), naive_exhaustive(s, n, m, mode))

    @pytest.mark.parametrize("n,m,turns", FULL_SPACE_CASES,
                             ids=["{}x{}-{}".format(n, m, "".join(map(str, t)))
                                  for n, m, t in FULL_SPACE_CASES])
    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_full_space_agrees_with_naive(self, n, m, turns, mode):
        # the sweep plays the pinned space and scales its counts by m!; the
        # oracle plays every profile of the full space
        s = seq(*turns)
        want = naive_exhaustive(s, n, m, mode, fix_first=False)
        assert want["count"] == factorial(m) ** n
        assert_matches(run_exhaustive(s, n, m, mode, fix_first=False), want)

    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_pairs_are_the_population(self, mode):
        # the published table, rebuilt from every profile's two Borda scores
        s = seq(1, 2, 3)
        res = run_exhaustive(s, 3, 4, mode)
        want = Counter()
        for p in enumerate_profiles(3, 4):
            scores = p.borda_scores()
            den = scores[spne_outcome(p, s).winner]
            if mode is RatioMode.CB:
                num = scores[sincere_play(p, s).winner]
            else:
                num = max(scores)
            want[den, num] += 1
        assert res.pairs == tuple((num, den, want[den, num]) for den, num in sorted(want))
        assert all(type(x) is int for row in res.pairs for x in row)
        assert sum(c for _, _, c in res.pairs) == res.count
        assert sum(c for a, b, c in res.pairs if a == b) == res.spike_count
        weighted = sum(Fraction(c * a, b) for a, b, c in res.pairs)
        assert weighted / res.count == res.mean

    def test_single_profile_space(self):
        # one voter pinned to the identity: the population is a single profile
        res = run_exhaustive(seq(1, 1), 1, 3, RatioMode.AB, fix_first=True)
        assert res.count == 1
        assert res.mean == 1 and res.variance == 0
        assert res.spike_count == 1

    def test_witness_lookup(self):
        s = seq(1, 2, 1, 2)
        res = run_exhaustive(s, 2, 5, RatioMode.CB)
        w = profile_at_index(2, 5, res.max_index)
        assert ratio_cb(w, s) == res.max_ratio


class TestDeterminism:
    def test_worker_count_is_invisible_exhaustive(self, monkeypatch, three_cpus):
        # 576 profiles in batches of 24, three batches a chunk: eight chunks,
        # in shares of 3, 3 and 2 chunks for three workers
        s = seq(1, 2, 3)
        monkeypatch.setattr("elimgame.sweep.EXHAUSTIVE_OUTER_CHUNK", 3)
        with chunks_run() as calls:
            a = run_exhaustive(s, 3, 4, RatioMode.AB, workers=1)
        assert calls == tiles(576, 72)
        assert_same_result(a, run_exhaustive(s, 3, 4, RatioMode.AB, workers=3))

    def test_worker_count_is_invisible_montecarlo(self, monkeypatch, three_cpus):
        # a random-reference Mallows study of four chunks of 700 samples and
        # a last one of 200: shares of 2, 2 and 1 chunks for three workers
        s = seq(1, 2, 2, 1, 3)
        kw = dict(culture=CultureSpec.mallows(0.7, True), samples=3000, seed=11)
        monkeypatch.setattr("elimgame.sweep.MC_CHUNK", 700 * 3)
        a = run_montecarlo(s, 3, 6, RatioMode.AB, workers=1, **kw)
        b = run_montecarlo(s, 3, 6, RatioMode.AB, workers=3, **kw)
        assert_same_result(a, b)

    def test_chunk_size_is_invisible_montecarlo(self, monkeypatch):
        s = seq(1, 2, 1)
        kw = dict(culture=CultureSpec.impartial(), samples=1000, seed=5)
        whole = run_montecarlo(s, 2, 4, RatioMode.CB, **kw)
        monkeypatch.setattr("elimgame.sweep.MC_CHUNK", 64)
        chunked = run_montecarlo(s, 2, 4, RatioMode.CB, **kw)
        assert_same_result(whole, chunked)

    def test_word_budget_chunks_are_invisible(self, monkeypatch):
        s = seq(1, 2, 3, 1, 2)
        kw = dict(culture=CultureSpec.mallows(0.6), seed=9)
        whole = {k: run_montecarlo(s, 3, 6, RatioMode.CB, samples=k, **kw) for k in (40, 2000)}
        counts = []
        chunk = sweep._montecarlo_chunk
        monkeypatch.setattr(
            "elimgame.sweep._montecarlo_chunk",
            lambda args: counts.append(args[-1]) or chunk(args),
        )
        # a budget of 1,202 voter rows holds 400 samples of 3 voters; a budget
        # below the voter count still holds one sample
        for budget, samples, sizes in [(400 * 3 + 2, 2000, [400] * 5), (2, 40, [1] * 40)]:
            monkeypatch.setattr("elimgame.sweep.MC_CHUNK", budget)
            counts.clear()
            chunked = run_montecarlo(s, 3, 6, RatioMode.CB, samples=samples, **kw)
            assert counts == sizes
            assert_same_result(whole[samples], chunked)

    def test_word_budget_sizes_chunks(self, monkeypatch):
        counts = []
        monkeypatch.setattr(
            "elimgame.sweep._montecarlo_chunk",
            lambda args: counts.append(args[-1]) or (np.array([3]), np.array([1]), np.array([0])),
        )
        monkeypatch.setattr("elimgame.experiments._finish", lambda *args: None)
        # MC_CHUNK voter rows per chunk: 65,536 // n samples, one at the
        # voter ceiling, which equals the budget; past it nothing runs
        for n, m, rows in [(5, 10, 13107), (9, 24, 7281), (50, 50, 1310), (3, 1, 21845),
                           (sweep.MC_CHUNK, 2, 1)]:
            counts.clear()
            run_montecarlo(EliminationSequence((0,) * (m - 1)), n, m, RatioMode.AB,
                           CultureSpec.impartial(), rows + 1, seed=0)
            assert counts == [rows, 1]
        counts.clear()
        with pytest.raises(OutOfDomain):
            run_montecarlo(EliminationSequence((0,)), sweep.MC_CHUNK + 1, 2, RatioMode.AB,
                           CultureSpec.impartial(), 2, seed=0)
        assert counts == []

    def test_exhaustive_chunk_size_is_invisible(self, monkeypatch, three_cpus):
        # (sequence, n, m, fix_first, batch rows); m = 8 plays on rank
        # positions whatever the table limit
        cases = [
            (seq(1, 2, 3), 3, 4, True, 5),
            (seq(1, 2, 1, 2), 2, 5, False, 50),
            (seq(1, 1, 1), 1, 4, True, 5),
            (seq(1, 1, 1), 1, 4, False, 5),
            (seq(1, 2, 1, 2, 1, 2, 1), 2, 8, True, 1000),
        ]
        for s, n, m, fix_first, batch in cases:
            kw = dict(fix_first=fix_first)
            whole = run_exhaustive(s, n, m, RatioMode.AB, **kw)
            # batches that do not divide m!, three batches a chunk
            assert factorial(m) % batch
            with monkeypatch.context() as patch:
                patch.setattr("elimgame.sweep.MC_CHUNK", batch * n)
                patch.setattr("elimgame.sweep.EXHAUSTIVE_OUTER_CHUNK", 3)
                for table_max_m in (sweep.WORST_TABLE_MAX_M, 0):
                    patch.setattr("elimgame.sweep.WORST_TABLE_MAX_M", table_max_m)
                    with chunks_run() as calls:
                        assert_same_result(whole, run_exhaustive(s, n, m, RatioMode.AB, **kw))
                    assert calls == tiles(enumeration_size(n, m), 3 * batch)
                    for workers in (2, 3) if n == 2 else ():
                        # the same chunks in two or three uneven shares
                        chunked = run_exhaustive(s, n, m, RatioMode.AB, workers=workers, **kw)
                        assert_same_result(whole, chunked)

    def test_exhaustive_memory_does_not_scale_with_m_factorial(self):
        # the position table is m! * m bytes per process by design; a sweep's
        # own arrays are bounded by its batch of MC_CHUNK // n rows
        permutation_table(9)
        s = seq(1, 2, 1, 2, 1, 2, 1, 2)
        with chunks_run() as calls:
            tracemalloc.start()
            try:
                res = run_exhaustive(s, 2, 9, RatioMode.AB)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2**20
        # one chunk of 32,768-row batches
        assert calls == [(0, factorial(9))]
        assert ratio_ab(profile_at_index(2, 9, res.max_index), s) == res.max_ratio


class TestPool:
    """The forked children a parallel sweep runs its chunk shares in."""

    def test_pool_is_clamped_and_bounded(self, monkeypatch, forks):
        s = seq(1, 2, 1)
        kw = dict(culture=CultureSpec.mallows(0.5), samples=1000, seed=4)
        serial = run_montecarlo(s, 2, 4, RatioMode.CB, **kw)
        assert forks == []
        # 25 samples of 2 voters per chunk: 40 chunks
        monkeypatch.setattr("elimgame.sweep.MC_CHUNK", 50)
        assert run_montecarlo(s, 2, 4, RatioMode.CB, workers=64, **kw) == serial
        assert len(forks) == 3
        assert_all_reaped()

    def test_pool_never_outnumbers_chunks(self, monkeypatch, forks):
        s = seq(1, 2, 3)
        serial = run_exhaustive(s, 3, 4, RatioMode.AB)
        # 576 profiles in batches of 24: two chunks of 12 batches, then one chunk
        for outer, children in [(12, 2), (24, 0)]:
            forks.clear()
            monkeypatch.setattr("elimgame.sweep.EXHAUSTIVE_OUTER_CHUNK", outer)
            assert run_exhaustive(s, 3, 4, RatioMode.AB, workers=64) == serial
            assert len(forks) == children
        assert_all_reaped()

    def test_a_failing_share_is_raised_and_its_siblings_killed(self, monkeypatch, forks):
        # share 0 raises at once while shares 1 and 2 would run for a
        # minute: the parent re-raises the error, kills and reaps them all
        def chunk(args):
            if args[-2] == 0:
                raise OutOfDomain("chunk 0 refused")
            time.sleep(60)

        monkeypatch.setattr("elimgame.sweep._montecarlo_chunk", chunk)
        t0 = time.monotonic()
        with pytest.raises(OutOfDomain, match="chunk 0 refused"):
            run_montecarlo(seq(1, 2), 2, 3, RatioMode.AB, CultureSpec.impartial(),
                           3 * (sweep.MC_CHUNK // 2), seed=0, workers=3)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 3
        assert_all_reaped()

    def test_a_child_that_dies_without_a_table_is_one_line_error(self, monkeypatch, forks):
        chunk = sweep._montecarlo_chunk
        monkeypatch.setattr("elimgame.sweep._montecarlo_chunk",
                            lambda args: os._exit(3) if args[-2] else chunk(args))
        with pytest.raises(ChildProcessError) as info:
            run_montecarlo(seq(1, 2), 2, 3, RatioMode.AB, CultureSpec.impartial(),
                           2 * (sweep.MC_CHUNK // 2), seed=0, workers=2)
        assert str(info.value) == "sweep worker 1 exited without sending its table"
        assert len(forks) == 2
        assert_all_reaped()

    @pytest.mark.parametrize(
        "s,n,m,fix_first,index",
        [
            # E1: the witness lies 26% of the way into the pinned space
            (seq(1, 2, 3, 1, 2, 3), 3, 7, True, 6_622_774),
            (seq(1, 2, 3, 1, 2, 3), 3, 7, False, 6_622_774),
            # 95% of the way in
            (seq(2, 1, 2, 3), 4, 5, True, 1_642_201),
            # small spaces, every field checked against the enumeration,
            # one of them over the full space
            (seq(3, 2, 2), 3, 4, True, None),
            (seq(2, 1, 1, 2, 2), 2, 6, True, None),
            (seq(2, 2, 1), 2, 4, False, None),
            (seq(1, 1, 2, 2), 2, 5, True, None),
            (seq(1, 2, 1, 2), 2, 5, True, None),
        ],
    )
    def test_cb_search_settles_without_chunks(self, monkeypatch, forks, s, n, m, fix_first, index):
        # the counts come from the trajectory table and the maximum's first
        # index from the trajectory search, so no chunk runs and no worker
        # starts; ``index`` None compares every field with the enumeration
        def no_chunk(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr("elimgame.sweep._exhaustive_chunk", no_chunk)
        res = run_exhaustive(s, n, m, RatioMode.CB, fix_first=fix_first, budget=10**12, workers=2)
        if index is None:
            assert_matches(res, naive_exhaustive(s, n, m, RatioMode.CB, fix_first=fix_first))
        else:
            assert res.max_index == index
        assert forks == []

    @pytest.mark.parametrize(
        "n,m,voter",
        [(n, m, voter) for n, ms in [(2, range(3, 7)), (3, range(4, 8))]
         for m in ms for voter in range(n)],
    )
    def test_cb_maximum_one_is_witnessed_by_index_zero(self, monkeypatch, forks, n, m, voter):
        # one voter takes every turn, so both games crown its favourite and
        # every ratio is 1. Pinned profile 0 attains it, the lowest index
        # there is, so neither the search nor a chunk runs
        def refuse(*args):
            raise AssertionError("a search or chunk ran")

        monkeypatch.setattr("elimgame.sweep._exhaustive_chunk", refuse)
        monkeypatch.setattr("elimgame.trajectories._witness", refuse)
        s = EliminationSequence((voter,) * (m - 1))
        for fix_first in (True, False):
            res = run_exhaustive(s, n, m, RatioMode.CB, fix_first=fix_first,
                                 budget=10**12, workers=2)
            assert (res.max_ratio, res.max_index, res.min_ratio) == (1, 0, 1)
        assert forks == []


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "culture", [CultureSpec.impartial(), CultureSpec.mallows(0.6)]
    )
    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_agrees_with_scalar_resampling(self, culture, mode):
        s = seq(1, 2, 3, 1)
        n, m, N, seed = 3, 5, 500, 77
        fn = ratio_ab if mode is RatioMode.AB else ratio_cb
        vals = [fn(montecarlo_witness(n, m, culture, seed, i), s) for i in range(N)]
        mean = sum(vals, Fraction(0)) / N
        res = run_montecarlo(s, n, m, mode, culture, N, seed)
        assert res.count == N
        assert res.mean == mean
        assert res.max_ratio == max(vals) and res.max_index == vals.index(max(vals))
        assert res.min_ratio == min(vals)
        assert res.spike_count == sum(1 for v in vals if v == 1)

    def test_witness_lookup(self):
        s = seq(2, 1, 2, 1)
        culture = CultureSpec.mallows(0.8)
        res = run_montecarlo(s, 2, 5, RatioMode.CB, culture, 2000, seed=3)
        w = montecarlo_witness(2, 5, culture, 3, res.max_index)
        assert ratio_cb(w, s) == res.max_ratio

    @pytest.mark.parametrize("phi", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("n,m", [(3, 6), (2, 24)])
    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_random_reference_is_a_relabelling(self, monkeypatch, phi, n, m, mode):
        # a random reference relabels each profile's candidates, which moves
        # no Borda score: the sweep equals the identity-reference one, and
        # both witnesses attain its maximum
        s = EliminationSequence(tuple(v % n for v in range(m - 1)))
        monkeypatch.setattr("elimgame.sweep.MC_CHUNK", 150 * n)
        fixed, relabelled = CultureSpec.mallows(phi), CultureSpec.mallows(phi, True)
        res = run_montecarlo(s, n, m, mode, fixed, 400, seed=6)
        assert_same_result(run_montecarlo(s, n, m, mode, relabelled, 400, seed=6), res)
        fn = ratio_ab if mode is RatioMode.AB else ratio_cb
        witnesses = [montecarlo_witness(n, m, c, 6, res.max_index) for c in (fixed, relabelled)]
        assert [fn(w, s) for w in witnesses] == [res.max_ratio] * 2

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            run_montecarlo(
                seq(1, 1), 1, 3, RatioMode.AB, CultureSpec.impartial(), 0, seed=1
            )

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed"):
            run_montecarlo(
                seq(1, 1), 1, 3, RatioMode.AB, CultureSpec.impartial(), 5, seed=seed
            )


class TestTracedKernel:
    """``benchmark/inproc.py`` counts the batch kernel by replacing
    ``sweep.play_batch_winners``, so every chunk looks that name up when it
    plays."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        kernel = sweep.play_batch_winners

        def counted(positions, turns):
            calls.append(turns)
            return kernel(positions, turns)

        monkeypatch.setattr(sweep, "play_batch_winners", counted)
        return calls

    @pytest.mark.parametrize("mode,plays", [(RatioMode.CB, 2), (RatioMode.AB, 1)])
    def test_montecarlo_chunks(self, monkeypatch, mode, plays):
        calls = self.count_calls(monkeypatch)
        monkeypatch.setattr("elimgame.sweep.MC_CHUNK", 100 * 3)
        # 450 samples in five chunks of up to 100
        run_montecarlo(seq(1, 2, 3, 1), 3, 5, mode, CultureSpec.impartial(), 450, seed=2)
        assert len(calls) == 5 * plays

    def test_exhaustive_sweep_above_the_table_limit(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        s = seq(1, 2, 1, 2, 1, 2, 1)
        sweep.exhaustive_table(s, 2, 8)
        # one chunk of two batches, 0..32767 and 32768..40319, each played
        # on the reversed sequence only: an AB numerator is the best score
        assert calls == [s.reverse().turns] * 2


class TestWorstTablePath:
    """Exhaustive sweeps play through the next-mask table for small m; the
    position kernel that larger m uses must give the same result."""

    @pytest.mark.parametrize(
        "s,n,m,mode,fix_first",
        [
            (seq(1, 2, 3), 3, 4, RatioMode.AB, True),
            # the last voter never acts, so the range kernel returns one int
            (seq(1, 1, 2), 3, 4, RatioMode.AB, True),
            (seq(2, 1, 2, 1), 2, 5, RatioMode.AB, False),
            (seq(1, 1, 1), 1, 4, RatioMode.AB, True),
            (seq(1, 1, 1), 1, 4, RatioMode.AB, False),
            # the last voter acts first, consecutively and last
            (seq(2, 2, 1, 2, 1, 2), 2, 7, RatioMode.AB, True),
            (seq(3, 1, 3, 3, 2), 3, 6, RatioMode.AB, True),
        ],
    )
    def test_same_result_as_position_kernel(self, monkeypatch, s, n, m, mode, fix_first):
        # whole m! batches, then batches of m!//3 + 1 rows, whose ranges
        # start above 0, end below m!, or both
        for batch in (factorial(m), factorial(m) // 3 + 1):
            with monkeypatch.context() as patch, chunks_run() as calls:
                patch.setattr("elimgame.sweep.MC_CHUNK", batch * n)
                table = run_exhaustive(s, n, m, mode, fix_first=fix_first)
                patch.setattr("elimgame.sweep.WORST_TABLE_MAX_M", 0)
                plain = run_exhaustive(s, n, m, mode, fix_first=fix_first)
            assert calls
            assert_same_result(table, plain)


class TestSummary:
    """The exact pair table every sweep reduces to, fed by hand."""

    @staticmethod
    def build(base, batches):
        """The folded rows of (tag_offset, [(num, den), ...]) batches' tables."""
        return sweep._fold([
            sweep._batch_table(
                *(np.array(col, dtype=np.int64) for col in zip(*pairs)), base, tag_offset
            )
            for tag_offset, pairs in batches
        ])

    def test_equal_ratios_go_to_the_lowest_tag(self):
        # 1/2, 2/4, 3/6 and 3/2, 6/4, 9/6 are two ratios under six keys
        a = [(10, [(2, 4), (6, 4), (5, 5)]), (20, [(1, 2), (3, 2)])]
        b = [(3, [(5, 5), (3, 6), (9, 6)]), (30, [(1, 2)])]
        alone = experiments._finish(self.build(10, a), 10)
        assert alone.min_ratio == Fraction(1, 2)
        assert (alone.max_ratio, alone.max_index) == (Fraction(3, 2), 11)
        for first, second in [(a, b), (b, a)]:
            folded = self.build(10, first + second)
            res = experiments._finish(folded, 10)
            assert res.min_ratio == Fraction(1, 2)
            assert (res.max_ratio, res.max_index) == (Fraction(3, 2), 5)
            assert res.count == 9 and res.spike_count == 2
            assert folded == self.build(10, a + b)

    def test_results_differ_by_their_tables_alone(self):
        # 1/2 and 3/2 against 2/4 and 6/4: every statistic and the maximum's
        # index agree, so only the pair tables tell the two results apart
        halves = experiments._finish([(21, 1, 0), (23, 1, 1)], 10)
        quarters = experiments._finish([(42, 1, 0), (46, 1, 1)], 10)
        assert (halves.count, halves.mean, halves.variance) == (2, 1, Fraction(1, 4))
        assert (halves.max_ratio, halves.max_index) == (Fraction(3, 2), 1)
        assert all(getattr(halves, f.name) == getattr(quarters, f.name)
                   for f in fields(SweepResult) if f.name != "pairs")
        assert halves != quarters

    def test_fold_counts_are_exact_past_int64(self):
        # each count fits int64, but the two sum past 2**63, where a numpy
        # sum would wrap to a negative count
        big = (1 << 62) + 5
        one = tuple(np.array(col, dtype=np.int64) for col in ([3, 7], [1, big], [4, 9]))
        two = tuple(np.array(col, dtype=np.int64) for col in ([7], [big], [2]))
        for tables in [(one, two), (two, one)]:
            assert sweep._fold(tables) == [(3, 1, 4), (7, 2 * big, 2)]

    def test_wide_moments_are_exact(self):
        # base = 2**27 + 1: the squared numerators pass 2**53, where float
        # sums stop being exact
        d = 1 << 27
        pairs = [(d, d - 1), (d - 1, d), (d - 3, d - 5), (d, d), (d - 1, d), (7, d)]
        vals = [Fraction(num, den) for num, den in pairs]
        mean = sum(vals, Fraction(0)) / len(vals)
        table = self.build(d + 1, [(0, pairs[:3]), (3, pairs[3:])])
        res = experiments._finish(table, d + 1)
        assert res.count == len(vals)
        assert res.mean == mean
        assert res.variance == sum((v - mean) ** 2 for v in vals) / len(vals)

    def test_exhaustive_chunk_matches_batch_table(self):
        # the grid an exhaustive chunk counts into gives the sorted table of
        # the scalar engine's (num, den) pairs in enumeration order
        s, n, m = seq(1, 2, 3), 3, 4
        profiles = list(enumerate_profiles(n, m))
        for mode in RatioMode:
            pairs = []
            for p in profiles:
                scores = p.borda_scores()
                top = max(scores) if mode is RatioMode.AB else scores[sincere_play(p, s).winner]
                pairs.append((top, scores[spne_outcome(p, s).winner]))
            num, den = (np.array(col, dtype=np.int64) for col in zip(*pairs))
            want = sweep._batch_table(num, den, n * (m - 1) + 1, 0)
            args = (s.turns, n, m, mode, factorial(m), 0, len(profiles))
            for got, col in zip(sweep._exhaustive_chunk(args), want):
                assert np.array_equal(got, col), mode


class TestGuards:
    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            run_exhaustive(seq(1, 2, 1, 2), 2, 5, RatioMode.AB,
                           fix_first=False, budget=1000)
        run_exhaustive(seq(1, 2, 1, 2), 2, 5, RatioMode.AB, budget=1000)

    def test_zero_denominator_guard(self):
        num, den = np.array([1, 2], dtype=np.int64), np.array([2, 0], dtype=np.int64)
        table = sweep._batch_table(num, den, 5, 0)
        with pytest.raises(ZeroWelfare):
            experiments._finish(sweep._fold([table]), 5)

    def test_budget_bounds_the_grid(self):
        # for m <= 11, n(m-1) > 63 means at least 2**63 profiles, pinned and
        # full, so the 2**63 refusal covers it; every admitted sweep then has
        # n(m-1) <= 63, and an exhaustive chunk's grid holds at most 64**2 keys
        for m in range(2, 12):
            for n in range(1, 201):
                pinned = enumeration_size(n, m)
                if n * (m - 1) > 63:
                    assert pinned >= 2**63, (n, m)
                    assert pinned * factorial(m) >= 2**63, (n, m)
                if pinned < 2**63:
                    assert (n * (m - 1) + 1) ** 2 <= 4096, (n, m)

    @pytest.mark.parametrize("n,m", [(64, 2), (3000, 2), (22, 4)])
    def test_grid_cap_refuses_before_any_chunk(self, monkeypatch, n, m):
        # n(m-1) > 63 is refused whatever the budget, as 2**63 profiles or
        # more, before a chunk could allocate its (n(m-1)+1)**2 grid
        def no_chunks(*args, **kwargs):
            raise AssertionError("a table, search or chunk ran")

        for module, name in [(sweep, "_run_chunks"), (experiments, "cb_study")]:
            monkeypatch.setattr(module, name, no_chunks)
        monkeypatch.setenv("ELIMGAME_BUDGET", str(10**1000))
        s = EliminationSequence(tuple(v % n for v in range(m - 1)))
        with pytest.raises(BudgetExceeded, match="m <= 11 and under 2\\*\\*63 profiles"):
            run_exhaustive(s, n, m, RatioMode.CB)
        with pytest.raises(BudgetExceeded):
            run_exhaustive(s, n, m, RatioMode.AB, fix_first=False, budget=10**1000)

    @pytest.mark.parametrize(
        "n,m,fix_first",
        [(n, m, fix_first) for n, m in [(2, 12), (2, 13), (1, 12)] for fix_first in (True, False)]
        + [(25, 3, False)],
    )
    def test_table_and_int64_caps_refuse_before_any_table(self, monkeypatch, n, m, fix_first):
        # from m = 12 the m!*m-byte position table passes 1 GiB (5.4 GiB at
        # m = 12), and 6**25 profiles pass 2**63, where int64 counts wrap;
        # both are refused whatever the budget
        def no_work(*args, **kwargs):
            raise AssertionError("a table or chunk was built")

        for module, name in [(sweep, "_run_chunks"), (sweep, "permutation_table"),
                             (experiments, "cb_study")]:
            monkeypatch.setattr(module, name, no_work)
        monkeypatch.setenv("ELIMGAME_BUDGET", str(10**1000))
        s = EliminationSequence(tuple(v % n for v in range(m - 1)))
        with pytest.raises(BudgetExceeded, match="m <= 11 and under 2\\*\\*63 profiles"):
            run_exhaustive(s, n, m, RatioMode.CB, fix_first=fix_first)

    def test_many_voters_are_refused_before_the_exact_count(self, monkeypatch):
        # for m >= 2, n >= 64 means 2**63 pinned profiles or more, refused
        # without computing (m!)**(n-1), which takes 0.1 s at (65,536, 11)
        size = enumeration_size

        def under_64_voters(n, m):
            assert n < 64, "the exact count was computed"
            return size(n, m)

        monkeypatch.setattr(experiments, "enumeration_size", under_64_voters)
        for n, m in [(65536, 11), (64, 2)]:
            s = EliminationSequence(tuple(v % n for v in range(m - 1)))
            with pytest.raises(BudgetExceeded, match="m <= 11 and under 2\\*\\*63 profiles"):
                run_exhaustive(s, n, m, RatioMode.CB)
        # 2**62 pinned profiles, and 2**63 in the full space
        with pytest.raises(BudgetExceeded, match="over the budget"):
            run_exhaustive(seq(1), 63, 2, RatioMode.CB, budget=10**9)
        with pytest.raises(BudgetExceeded, match="m <= 11 and under 2\\*\\*63 profiles"):
            run_exhaustive(seq(1), 63, 2, RatioMode.CB, fix_first=False, budget=10**9)

    @pytest.mark.parametrize("n,m,fix_first", [(2, 11, False), (25, 3, True)])
    def test_largest_admitted_sweeps_start(self, monkeypatch, n, m, fix_first):
        # m = 11, and 6**24 pinned profiles, still reach the trajectory table
        def started(*args, **kwargs):
            raise AssertionError("started")

        monkeypatch.setattr(experiments, "cb_study", started)
        s = EliminationSequence(tuple(v % n for v in range(m - 1)))
        with pytest.raises(AssertionError, match="started"):
            run_exhaustive(s, n, m, RatioMode.CB, fix_first=fix_first, budget=10**1000)

    def test_mode_parse(self):
        assert RatioMode.parse("ab") is RatioMode.AB
        assert RatioMode.parse("CB") is RatioMode.CB
        with pytest.raises(ValueError):
            RatioMode.parse("xy")
