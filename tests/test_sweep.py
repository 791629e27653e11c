import tracemalloc
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from elimgame import (
    BudgetExceeded,
    CultureSpec,
    RatioMode,
    ZeroWelfare,
    ratio_ab,
    ratio_cb,
    sincere_play,
    spne_outcome,
)
from elimgame import sweep
from elimgame.core import EliminationSequence
from elimgame.cultures import enumerate_profiles, permutation_table
from elimgame.sweep import (
    SweepResult,
    _Summary,
    exhaustive_witness,
    montecarlo_witness,
    run_exhaustive,
    run_montecarlo,
)
from helpers import seq


def assert_same_result(a, b):
    for field in fields(SweepResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


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
        "min_index": vals.index(min(vals)),
        "spike_count": sum(1 for v in vals if v == 1),
    }


def assert_matches(res, want):
    for key, value in want.items():
        assert getattr(res, key) == value, key


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
                "min_index": 0,
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
                "min_index": 84,
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
                "min_index": 128,
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

    def test_full_space_agrees_with_naive(self):
        s = seq(2, 1, 2)
        want = naive_exhaustive(s, 2, 4, RatioMode.CB, fix_first=False)
        assert_matches(run_exhaustive(s, 2, 4, RatioMode.CB, fix_first=False), want)
        assert want["count"] == 576

    @pytest.mark.parametrize("mode", [RatioMode.AB, RatioMode.CB])
    def test_pairs_are_the_population(self, mode):
        # the published table, rebuilt from every profile's two Borda scores
        s = seq(1, 2, 3)
        res = run_exhaustive(s, 3, 4, mode)
        want = Counter()
        for p in enumerate_profiles(3, 4):
            den = p.borda_score(spne_outcome(p, s).winner)
            if mode is RatioMode.CB:
                num = p.borda_score(sincere_play(p, s).winner)
            else:
                num = max(p.borda_score(c) for c in range(p.m))
            want[den, num] += 1
        assert res.pairs.dtype == np.int64
        assert res.pairs.tolist() == [[num, den, want[den, num]] for den, num in sorted(want)]
        num, den, count = res.pairs.T
        assert count.sum() == res.count
        assert count[num == den].sum() == res.spike_count
        weighted = sum(Fraction(c * a, b) for a, b, c in res.pairs.tolist())
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
        w = exhaustive_witness(2, 5, res.max_index)
        assert ratio_cb(w, s) == res.max_ratio


class TestDeterminism:
    def test_worker_count_is_invisible_exhaustive(self):
        s = seq(1, 2, 3)
        a = run_exhaustive(s, 3, 4, RatioMode.CB, workers=1)
        b = run_exhaustive(s, 3, 4, RatioMode.CB, workers=4)
        assert_same_result(a, b)

    def test_worker_count_is_invisible_montecarlo(self):
        s = seq(1, 2, 2, 1, 3)
        kw = dict(culture=CultureSpec.mallows(0.7), samples=3000, seed=11)
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
            lambda args: counts.append(args[8]) or chunk(args),
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
            lambda args: counts.append(args[8]) or _Summary(1),
        )
        monkeypatch.setattr("elimgame.sweep._finish", lambda *args: None)
        # MC_CHUNK voter rows per chunk: 65,536 // n samples, at least one
        for n, m, rows in [(5, 10, 13107), (9, 24, 7281), (50, 50, 1310), (3, 1, 21845),
                           (sweep.MC_CHUNK + 1, 2, 1)]:
            counts.clear()
            run_montecarlo(EliminationSequence((0,) * (m - 1)), n, m, RatioMode.AB,
                           CultureSpec.impartial(), rows + 1, seed=0)
            assert counts == [rows, 1]

    def test_exhaustive_chunk_size_is_invisible(self, monkeypatch):
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
            whole = run_exhaustive(s, n, m, RatioMode.CB, **kw)
            # batches that do not divide m!, three batches a chunk
            assert factorial(m) % batch
            with monkeypatch.context() as patch:
                patch.setattr("elimgame.sweep.MC_CHUNK", batch * n)
                patch.setattr("elimgame.sweep.EXHAUSTIVE_OUTER_CHUNK", 3)
                for table_max_m in (sweep.WORST_TABLE_MAX_M, 0):
                    patch.setattr("elimgame.sweep.WORST_TABLE_MAX_M", table_max_m)
                    for workers in (1, 2) if n == 2 else (1,):
                        chunked = run_exhaustive(s, n, m, RatioMode.CB, workers=workers, **kw)
                        assert_same_result(whole, chunked)

    def test_exhaustive_memory_does_not_scale_with_m_factorial(self):
        # the position table is m! * m bytes per process by design; a sweep's
        # own arrays are bounded by its batch of MC_CHUNK // n rows
        permutation_table(9)
        s = seq(1, 2, 1, 2, 1, 2, 1, 2)
        tracemalloc.start()
        try:
            res = run_exhaustive(s, 2, 9, RatioMode.CB)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert ratio_cb(exhaustive_witness(2, 9, res.max_index), s) == res.max_ratio


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that runs each task as it is submitted
    and records its size and the most tasks submitted and not yet collected."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.in_flight = self.peak = 0
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        value = fn(arg)
        pool = self

        class Done:
            def result(self):
                pool.in_flight -= 1
                return value

        return Done()


class TestPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        _RecordingPool.made = []
        monkeypatch.setattr("elimgame.sweep.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr("elimgame.sweep.os.sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        return _RecordingPool.made

    def test_pool_is_clamped_and_bounded(self, monkeypatch, pools):
        s = seq(1, 2, 1)
        kw = dict(culture=CultureSpec.mallows(0.5), samples=1000, seed=4)
        serial = run_montecarlo(s, 2, 4, RatioMode.CB, **kw)
        # 25 samples of 2 voters per chunk: 40 chunks
        monkeypatch.setattr("elimgame.sweep.MC_CHUNK", 50)
        assert run_montecarlo(s, 2, 4, RatioMode.CB, workers=64, **kw) == serial
        assert [(p.max_workers, p.peak, p.in_flight) for p in pools] == [(3, 6, 0)]

    def test_pool_never_outnumbers_chunks(self, monkeypatch, pools):
        s = seq(1, 2, 3)
        serial = run_exhaustive(s, 3, 4, RatioMode.AB)
        # 576 profiles in batches of 24: two chunks of 12 batches, then one chunk
        monkeypatch.setattr("elimgame.sweep.EXHAUSTIVE_OUTER_CHUNK", 12)
        assert run_exhaustive(s, 3, 4, RatioMode.AB, workers=64) == serial
        monkeypatch.setattr("elimgame.sweep.EXHAUSTIVE_OUTER_CHUNK", 24)
        assert run_exhaustive(s, 3, 4, RatioMode.AB, workers=64) == serial
        assert [(p.max_workers, p.peak) for p in pools] == [(2, 2)]


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
        assert res.min_ratio == min(vals) and res.min_index == vals.index(min(vals))
        assert res.spike_count == sum(1 for v in vals if v == 1)

    def test_witness_lookup(self):
        s = seq(2, 1, 2, 1)
        culture = CultureSpec.mallows(0.8)
        res = run_montecarlo(s, 2, 5, RatioMode.CB, culture, 2000, seed=3)
        w = montecarlo_witness(2, 5, culture, 3, res.max_index)
        assert ratio_cb(w, s) == res.max_ratio

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


class TestWorstTablePath:
    """Exhaustive sweeps play through the worst-alive table for small m; the
    position kernel that larger m uses must give the same result."""

    @pytest.mark.parametrize(
        "s,n,m,mode,fix_first",
        [
            (seq(1, 2, 3), 3, 4, RatioMode.AB, True),
            (seq(1, 2, 3), 3, 4, RatioMode.CB, True),
            (seq(2, 1, 2, 1), 2, 5, RatioMode.CB, False),
            (seq(1, 1, 1), 1, 4, RatioMode.CB, True),
            (seq(1, 1, 1), 1, 4, RatioMode.AB, False),
        ],
    )
    def test_same_result_as_position_kernel(self, monkeypatch, s, n, m, mode, fix_first):
        table = run_exhaustive(s, n, m, mode, fix_first=fix_first)
        monkeypatch.setattr("elimgame.sweep.WORST_TABLE_MAX_M", 0)
        plain = run_exhaustive(s, n, m, mode, fix_first=fix_first)
        assert_same_result(table, plain)


class TestSummary:
    """The exact pair table every sweep reduces to, fed by hand."""

    @staticmethod
    def build(den_limit, batches):
        summary = _Summary(den_limit)
        for tag_offset, pairs in batches:
            num, den = (np.array(col, dtype=np.int64) for col in zip(*pairs))
            summary.absorb_batch(num, den, tag_offset)
        return summary

    def test_equal_ratios_go_to_the_lowest_tag(self):
        # 1/2, 2/4, 3/6 and 3/2, 6/4, 9/6 are two ratios under six keys
        a = [(10, [(2, 4), (6, 4), (5, 5)]), (20, [(1, 2), (3, 2)])]
        b = [(3, [(5, 5), (3, 6), (9, 6)]), (30, [(1, 2)])]
        alone = sweep._finish(self.build(9, a), RatioMode.CB)
        assert (alone.min_ratio, alone.min_index) == (Fraction(1, 2), 10)
        assert (alone.max_ratio, alone.max_index) == (Fraction(3, 2), 11)
        for first, second in [(a, b), (b, a)]:
            merged = self.build(9, first)
            merged.merge(self.build(9, second))
            res = sweep._finish(merged, RatioMode.CB)
            assert (res.min_ratio, res.min_index) == (Fraction(1, 2), 4)
            assert (res.max_ratio, res.max_index) == (Fraction(3, 2), 5)
            assert res.count == 9 and res.spike_count == 2
        for got, want in zip(merged.table(), self.build(9, a + b).table()):
            assert np.array_equal(got, want)

    def test_wide_moments_are_exact(self):
        # base = 2**27 + 1: the squared numerators pass 2**53, where float
        # sums stop being exact
        d = 1 << 27
        pairs = [(d, d - 1), (d - 1, d), (d - 3, d - 5), (d, d), (d - 1, d), (7, d)]
        res = sweep._finish(self.build(d, [(0, pairs[:3]), (3, pairs[3:])]), RatioMode.AB)
        vals = [Fraction(num, den) for num, den in pairs]
        mean = sum(vals, Fraction(0)) / len(vals)
        assert res.count == len(vals)
        assert res.mean == mean
        assert res.variance == sum((v - mean) ** 2 for v in vals) / len(vals)


class TestGuards:
    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            run_exhaustive(seq(1, 2, 1, 2), 2, 5, RatioMode.AB,
                           fix_first=False, budget=1000)
        run_exhaustive(seq(1, 2, 1, 2), 2, 5, RatioMode.AB, budget=1000)

    def test_zero_denominator_guard(self):
        s = _Summary(den_limit=4)
        with pytest.raises(ZeroWelfare):
            s.absorb_batch(
                np.array([1, 2], dtype=np.int64),
                np.array([2, 0], dtype=np.int64),
                0,
            )

    def test_mode_parse(self):
        assert RatioMode.parse("ab") is RatioMode.AB
        assert RatioMode.parse("CB") is RatioMode.CB
        with pytest.raises(ValueError):
            RatioMode.parse("xy")
