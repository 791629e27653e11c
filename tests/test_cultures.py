import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from elimgame import (
    BudgetExceeded,
    CultureSpec,
    LengthMismatch,
    OutOfDomain,
    ParseError,
    PhiOutOfRange,
    RatioMode,
    Vote,
    sample_rankings_batch,
)
from elimgame.cultures import (
    INSERT_BITS,
    SELECT_STEPS,
    CultureKind,
    _finish64,
    _fisher_yates,
    _insertion_slots,
    _insertion_table,
    _stream_keys,
    _word_rows,
    permutation_table,
    fill_positions,
)
from elimgame import cultures, sweep
from elimgame.core import (
    EliminationSequence,
    enumeration_size,
    profile_at_index,
    ranking_ids,
    resolve_budget,
)
from elimgame.experiments import montecarlo_witness, run_exhaustive
from elimgame.sweep import MC_CHUNK
from helpers import enumerate_profiles, kendall_tau, mallows_pmf


IC = CultureSpec.impartial()


class TestStreams:
    def test_same_inputs_same_rankings(self):
        a = sample_rankings_batch(3, 5, IC, 42, 0, 50)
        b = sample_rankings_batch(3, 5, IC, 42, 0, 50)
        assert np.array_equal(a, b)

    def test_seed_changes_rankings(self):
        a = sample_rankings_batch(3, 5, IC, 42, 0, 50)
        b = sample_rankings_batch(3, 5, IC, 43, 0, 50)
        assert not np.array_equal(a, b)

    def test_chunking_is_invisible(self):
        whole = sample_rankings_batch(2, 4, IC, 7, 0, 100)
        parts = np.concatenate(
            [
                sample_rankings_batch(2, 4, IC, 7, 0, 37),
                sample_rankings_batch(2, 4, IC, 7, 37, 63),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_rows_are_permutations(self):
        batch = sample_rankings_batch(3, 6, IC, 11, 5, 200)
        assert batch.shape == (200, 3, 6)
        sorted_rows = np.sort(batch, axis=2)
        assert np.array_equal(
            sorted_rows, np.broadcast_to(np.arange(6, dtype=np.int8), batch.shape)
        )

    def test_stream_handle_matches_batch(self):
        # (seed, index) names one stream; the single-profile sampler reads it
        # exactly as the batch sampler does, for every culture
        for culture in (IC, CultureSpec.mallows(0.5)):
            p = montecarlo_witness(4, 5, culture, 42, 9)
            batch = sample_rankings_batch(4, 5, culture, 42, 9, 1)[0]
            assert [v.ranking for v in p.votes] == [tuple(r) for r in batch]

    def test_candidate_ids_fit_int8(self):
        assert sample_rankings_batch(1, 127, IC, 0, 0, 2).shape == (2, 1, 127)
        with pytest.raises(OutOfDomain):
            sample_rankings_batch(1, 200, IC, 0, 0, 3)


def _oracle_mix64(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _oracle_fisher_yates(words):
    rows_n, mm1 = words.shape
    m = mm1 + 1
    perm = np.tile(np.arange(m, dtype=np.int8), (rows_n, 1))
    rows = np.arange(rows_n)
    for j in range(m - 1, 0, -1):
        r = (((words[:, m - 1 - j] >> np.uint64(32)) * np.uint64(j + 1))
             >> np.uint64(32)).astype(np.int64)
        tmp = perm[rows, r]
        perm[rows, r] = perm[:, j]
        perm[:, j] = tmp
    return perm


def _oracle_mallows_identity(words, phi):
    rows_n, mm1 = words.shape
    m = mm1 + 1
    order = np.zeros((rows_n, m), dtype=np.int8)
    cols = np.arange(m, dtype=np.int64)[None, :]
    for j in range(2, m + 1):
        cdf = np.cumsum(phi ** np.arange(j - 1, -1, -1, dtype=np.float64))
        u = (words[:, j - 2] >> np.uint64(11)).astype(np.float64) * (2.0**-53) * cdf[-1]
        p = np.searchsorted(cdf, u, side="right").astype(np.int64)[:, None]
        shifted = np.roll(order, 1, axis=1)
        order = np.where(cols < p, order, np.where(cols == p, np.int8(j - 1), shifted))
    return order


def _unfinish(words):
    """The words, mixed without the finalizer's last step ``x ^= x >> 31``,
    that finish to ``words``: ``y ^ (y >> 31) ^ (y >> 62)`` inverts it."""
    return words ^ (words >> np.uint64(31)) ^ (words >> np.uint64(62))


def oracle_rankings(n, m, spec, seed, start, count):
    """The row-major sampler that built full rankings before the position
    sampler: one (count, (n+1)(m-1)) word block, rankings by Fisher-Yates or
    by repeated insertion over the prefix order, then the random reference."""
    if count == 0 or m == 1:
        return np.zeros((count, n, m), dtype=np.int8)
    golden = np.uint64(0x9E3779B97F4A7C15)
    idx = np.arange(start, start + count, dtype=np.uint64)
    keys = _oracle_mix64(np.uint64(seed) + (idx + np.uint64(1)) * golden)
    ks = (np.arange((n + 1) * (m - 1), dtype=np.uint64) + np.uint64(1)) * golden
    words = _oracle_mix64(keys[:, None] + ks[None, :])
    vote_words = words[:, : n * (m - 1)].reshape(count * n, m - 1)
    if spec.kind is CultureKind.IMPARTIAL or spec.phi == 1.0:
        rankings = _oracle_fisher_yates(vote_words).reshape(count, n, m)
    else:
        rankings = _oracle_mallows_identity(vote_words, spec.phi).reshape(count, n, m)
    if spec.random_reference:
        refs = _oracle_fisher_yates(words[:, n * (m - 1):])
        rankings = np.take_along_axis(
            np.broadcast_to(refs[:, None, :], rankings.shape),
            rankings.astype(np.int64), axis=2,
        ).astype(np.int8)
    return rankings


class TestSamplerStages:
    @pytest.mark.parametrize("voters,width", [(1, 1), (3, 5), (2, 23)])
    def test_reversed_word_rows_are_forward_rows_reversed(self, voters, width):
        keys = _stream_keys(6, 100, 37)
        forward = [row.copy() for row in _word_rows(keys, 4, voters, width)]
        backward = [row.copy() for row in _word_rows(keys, 4, voters, width, reverse=True)]
        assert len(forward) == width
        assert all(np.array_equal(a, b) for a, b in zip(forward, backward[::-1]))
        words = _oracle_mix64(keys[None, :] + np.uint64(0x9E3779B97F4A7C15) * (
            np.uint64(5) + np.uint64(width) * np.arange(voters, dtype=np.uint64))[:, None])
        assert np.array_equal(forward[0], words.reshape(-1))

    # steps below SELECT_STEPS run as compare-select and the rest as a
    # gather, so the m list covers the switch and both of its sides
    @pytest.mark.parametrize("m", sorted({2, 10, 24, 127, *(
        SELECT_STEPS + d for d in (-1, 0, 1, 2))}))
    def test_fisher_yates_positions_invert_oracle(self, m):
        keys = _stream_keys(3, 0, 300)
        words = np.stack([row.copy() for row in _word_rows(keys, 0, 1, m - 1)], axis=1)
        want = np.argsort(_oracle_fisher_yates(words), axis=1)
        # the block starts as garbage: the sampler must overwrite all of it
        block = np.full((m, 300), -7, dtype=np.int8)
        got = _fisher_yates(_word_rows(keys, 0, 1, m - 1, reverse=True), block)
        assert got is block and np.array_equal(got.T, want)

    @pytest.mark.parametrize("phi", [1e-6, 0.1, 0.6, 0.999])
    def test_insertion_table_matches_the_float_formula(self, phi):
        # the step's slot is the number of cumulative weights at or below
        # u = (x * 2**-53) * total for the word's top 53 bits x, in float64
        rng = np.random.default_rng(round(phi * 10**6))
        shift = np.uint64(64 - INSERT_BITS)
        buckets = np.arange(1 << INSERT_BITS, dtype=np.uint64) << shift
        fixed = np.concatenate([
            buckets, buckets + ((np.uint64(1) << shift) - np.uint64(1)),
            np.frombuffer(rng.bytes(8 * 10**5), dtype=np.uint64),
        ])
        one = np.uint64(1)
        for j in range(2, 128):
            table, thresholds = _insertion_table(phi, j)
            assert table.shape == (1 << INSERT_BITS,) and table.dtype == np.int8
            assert np.count_nonzero(table < 0) <= j - 1
            at = thresholds[thresholds < one << np.uint64(53)] << np.uint64(11)
            words = np.concatenate([at - one, at, at + one, fixed])
            edges = np.cumsum(phi ** np.arange(j - 1, -1, -1, dtype=np.float64))
            u = ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53) * edges[-1]
            want = np.searchsorted(edges, u, side="right")
            got = np.full(words.shape, -7, dtype=np.int8)
            raw = _unfinish(words)
            kept = raw.copy()
            assert _insertion_slots(raw, j, phi, got, np.empty_like(raw)) is got
            assert np.array_equal(got, want), (phi, j)
            assert np.array_equal(raw, kept)

    def test_top_bits_survive_the_last_mixing_step(self):
        # the Mallows path looks words up before the finalizer's last step
        keys = _stream_keys(9, 0, 1000)
        finished = [row.copy() for row in _word_rows(keys, 0, 3, 4)]
        raw = [row.copy() for row in _word_rows(keys, 0, 3, 4, finish=False)]
        words = np.frombuffer(np.random.default_rng(5).bytes(8 * 10**5), dtype=np.uint64)
        shift = np.uint64(64 - INSERT_BITS)
        for done, mixed in [*zip(finished, raw), (_finish64(words.copy()), words)]:
            assert np.array_equal(done >> shift, mixed >> shift)
            assert np.array_equal(_finish64(mixed.copy()), done)
            assert np.array_equal(_unfinish(done), mixed)

    def test_word_rows_fill_a_given_scratch(self):
        keys = _stream_keys(6, 100, 37)
        scratch = np.zeros((2, 3, 37), dtype=np.uint64)
        rows = _word_rows(keys, 4, 3, 5, scratch=scratch)
        first = next(rows)
        assert np.shares_memory(first, scratch[0])
        assert np.array_equal(first, next(_word_rows(keys, 4, 3, 5)))


SAMPLER_CULTURES = [
    IC,
    CultureSpec.mallows(0.3),
    CultureSpec.mallows(0.6),
    CultureSpec.mallows(1.0),
    CultureSpec.mallows(0.6, random_reference=True),
]


def filled(n, m, culture, seed, start, count):
    """Rank positions ``[s, v, c]`` that fill_positions draws into a fresh
    candidate-major block: the block's ``.transpose(2, 1, 0)`` view."""
    block = np.empty((m, n, count), dtype=np.int8)
    scratch = np.empty((2, n, count), dtype=np.uint64)
    return fill_positions(block, scratch, culture, seed, start).transpose(2, 1, 0)


class TestPositionSampler:
    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    @pytest.mark.parametrize("n,m", [(1, 2), (3, 5), (4, 9), (2, 24)])
    def test_equals_argsort_of_oracle_rankings(self, culture, n, m):
        # fill_positions draws identity-reference profiles; the rankings
        # sample_rankings_batch returns carry the random reference too
        identity = replace(culture, random_reference=False)
        want = np.argsort(oracle_rankings(n, m, identity, 19, 3, 257), axis=2)
        got = filled(n, m, culture, 19, 3, 257)
        assert got.dtype == np.int8 and got.shape == (257, n, m)
        assert np.array_equal(got, want)
        rankings = sample_rankings_batch(n, m, culture, 19, 3, 257)
        assert np.array_equal(rankings, oracle_rankings(n, m, culture, 19, 3, 257))

    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    def test_rankings_are_the_inverse(self, culture):
        identity = replace(culture, random_reference=False)
        pos = filled(3, 6, culture, 4, 0, 200)
        rankings = sample_rankings_batch(3, 6, identity, 4, 0, 200)
        assert np.array_equal(rankings, oracle_rankings(3, 6, identity, 4, 0, 200))
        assert np.array_equal(np.take_along_axis(rankings, pos.astype(np.int64), axis=2),
                              np.broadcast_to(np.arange(6, dtype=np.int8), pos.shape))

    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    def test_single_candidate_and_empty_batches(self, culture):
        one = filled(3, 1, culture, 5, 0, 4)
        assert one.shape == (4, 3, 1) and not one.any()
        assert not sample_rankings_batch(3, 1, culture, 5, 0, 4).any()
        for m in (1, 2, 5):
            for empty in (filled(2, m, culture, 5, 10, 0),
                          sample_rankings_batch(2, m, culture, 5, 10, 0)):
                assert empty.shape == (0, 2, m) and empty.dtype == np.int8
        two = sample_rankings_batch(2, 2, culture, 5, 0, 400)
        assert np.array_equal(np.sort(two, axis=2),
                              np.broadcast_to(np.arange(2, dtype=np.int8), two.shape))
        assert 0 < int(two[:, :, 0].sum()) < 800

    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    def test_chunking_is_invisible(self, culture):
        whole = sample_rankings_batch(3, 7, culture, 8, 40, 500)
        parts = np.concatenate([
            sample_rankings_batch(3, 7, culture, 8, lo, hi - lo)
            for lo, hi in [(40, 41), (41, 200), (200, 200), (200, 540)]
        ])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    def test_candidate_major_layout(self, culture):
        # play_batch_winners reduces each voter's (m, count) transpose over its
        # m rows; that is fast only while those rows are contiguous
        block, scratch, _ = sweep._chunk_buffers(3, 6, 200)
        pos = fill_positions(block, scratch, culture, 4, 0).transpose(2, 1, 0)
        assert pos.transpose(2, 1, 0).flags.c_contiguous
        assert pos[:, 1, :].T.strides == (3 * 200, 1)
        identity = replace(culture, random_reference=False)
        rankings = sample_rankings_batch(3, 6, identity, 4, 0, 200)
        assert np.array_equal(rankings, np.argsort(pos, axis=2))

    @pytest.mark.parametrize(
        "culture",
        [IC, CultureSpec.mallows(0.6), CultureSpec.mallows(0.4),
         CultureSpec.mallows(0.6, random_reference=True)],
    )
    def test_sweep_chunks_concatenate_to_whole(self, culture):
        # sweeps draw MC_CHUNK // n samples per call
        n, m = 7, 5
        chunk = MC_CHUNK // n
        whole = sample_rankings_batch(n, m, culture, 21, 5, 2 * chunk + 33)
        parts = np.concatenate([
            sample_rankings_batch(n, m, culture, 21, 5 + lo, min(chunk, 2 * chunk + 33 - lo))
            for lo in range(0, 2 * chunk + 33, chunk)
        ])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    def test_back_to_back_batches_are_independent(self, culture):
        # every call returns memory of its own: a second batch of the same
        # shape must not overwrite the first
        first = sample_rankings_batch(3, 7, culture, 8, 0, 300)
        kept = first.copy()
        second = sample_rankings_batch(3, 7, culture, 8, 300, 300)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("culture", SAMPLER_CULTURES)
    def test_refilled_blocks_match_fresh_batches(self, culture):
        # a reused block and scratch carry nothing from one fill to the next;
        # a fill leaves a random reference to sample_rankings_batch
        n, m, count = 3, 7, 200
        block = np.empty((m, n, count), dtype=np.int8)
        scratch = np.empty((2, n, count), dtype=np.uint64)
        identity = replace(culture, random_reference=False)
        for start in (0, 200, 5):
            got = fill_positions(block, scratch, culture, 8, start)
            assert got is block
            assert np.array_equal(got.transpose(2, 1, 0), filled(n, m, identity, 8, start, count))

    def test_one_process_runs_chunks_of_every_culture_and_shape(self):
        # a process's chunk, kernel and insertion-table caches serve Mallows
        # phi = 0.6, impartial-culture and Mallows phi = 0.3 chunks of two
        # shapes in turn; each chunk's block and table equal a fresh
        # process's
        runs = []
        for n, m, count in [(3, 7, 300), (2, 9, 257)]:
            turns = tuple(v % n for v in range(m - 1))
            for k, culture in enumerate([CultureSpec.mallows(0.6), IC, CultureSpec.mallows(0.3)]):
                runs.append((turns, turns[::-1], n, m, RatioMode.CB, culture, 4, 100 * k, count))

        def chunk(args):
            table = sweep._montecarlo_chunk(args)
            n, m, culture, seed, start, count = args[2], args[3], *args[5:]
            block = sweep._chunk_buffers(n, m, count)[0]
            want = filled(n, m, culture, seed, start, count)
            assert np.array_equal(block.transpose(2, 1, 0), want)
            return table

        fresh = []
        for args in runs:
            for cache in (sweep._chunk_buffers, sweep._play_buffers, cultures._insertion_table):
                cache.cache_clear()
            fresh.append(chunk(args))
        for args, want in zip(runs + runs[::-1], fresh + fresh[::-1]):
            got = chunk(args)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_candidate_ids_fit_int8(self):
        for culture in (IC, CultureSpec.mallows(0.9)):
            pos = filled(1, 127, culture, 0, 0, 2)
            assert pos.shape == (2, 1, 127)
            assert np.array_equal(np.sort(pos, axis=2),
                                  np.broadcast_to(np.arange(127, dtype=np.int8), pos.shape))
            with pytest.raises(OutOfDomain):
                filled(1, 200, culture, 0, 0, 3)

    @pytest.mark.parametrize("n,m", [(0, 3), (2, 0)])
    def test_empty_profiles_are_refused(self, n, m):
        with pytest.raises(ValueError, match="n >= 1 voters and m >= 1 candidates"):
            filled(n, m, IC, 0, 0, 3)
        with pytest.raises(ValueError, match="n >= 1 voters and m >= 1 candidates"):
            sample_rankings_batch(n, m, IC, 0, 0, 3)


class TestKendall:
    def test_examples(self):
        assert kendall_tau(Vote((0, 1, 2)), Vote((0, 1, 2))) == 0
        assert kendall_tau(Vote((0, 1, 2)), Vote((1, 0, 2))) == 1
        assert kendall_tau(Vote((0, 1, 2, 3)), Vote((3, 2, 1, 0))) == 6

    def test_symmetry_and_range(self):
        for a in itertools.permutations(range(4)):
            for b in itertools.permutations(range(4)):
                d = kendall_tau(Vote(a), Vote(b))
                assert d == kendall_tau(Vote(b), Vote(a))
                assert 0 <= d <= 6

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kendall_tau(Vote((0, 1)), Vote((0, 1, 2)))


class TestCultureSpec:
    def test_phi_domain(self):
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(PhiOutOfRange):
                CultureSpec.mallows(bad)
        CultureSpec.mallows(1.0)
        CultureSpec.mallows(1e-9)

    def test_parse(self):
        assert CultureSpec.parse("ic").kind is CultureKind.IMPARTIAL
        spec = CultureSpec.parse("mallows:phi=0.6")
        assert spec.kind is CultureKind.MALLOWS and spec.phi == 0.6
        assert CultureSpec.parse("mallows", phi=0.3).phi == 0.3
        assert CultureSpec.parse(" ic ").kind is CultureKind.IMPARTIAL

    REJECTED = [("mallows", None), ("mallows:phi=", None), ("mallows:theta=2", None),
                ("urn", None), ("mallows:phi=x", None),
                # phi applies only to a bare mallows
                ("ic", 0.5), ("mallows:phi=0.5", 0.2)]

    @pytest.mark.parametrize(
        "text,phi", REJECTED, ids=[t if p is None else f"{t}-{p}" for t, p in REJECTED]
    )
    def test_parse_rejects(self, text, phi):
        with pytest.raises(ParseError):
            CultureSpec.parse(text, phi)

    def test_describe(self):
        assert CultureSpec.impartial().kind.value == "ic"
        assert CultureSpec.mallows(0.5).kind.value == "mallows"


class TestImpartialDistribution:
    def test_ranking_frequencies_uniform(self):
        N = 600_000
        batch = sample_rankings_batch(1, 3, IC, 2024, 0, N)[:, 0, :]
        codes = batch[:, 0] * 9 + batch[:, 1] * 3 + batch[:, 2]
        counts = Counter(codes.tolist())
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / N - 1 / 6) < 0.005


class TestMallowsDistribution:
    def test_pmf_oracle_is_a_distribution(self):
        pmf = mallows_pmf(4, 0.7, Vote((0, 1, 2, 3)))
        assert len(pmf) == 24
        assert math.isclose(sum(pmf.values()), 1.0, rel_tol=1e-12)
        # dispersion weights orderings by pairwise disagreement count
        assert math.isclose(
            pmf[(1, 0, 2, 3)] / pmf[(0, 1, 2, 3)], 0.7, rel_tol=1e-12
        )

    def test_sampler_matches_exact_pmf(self):
        N = 200_000
        phi = 0.5
        batch = sample_rankings_batch(1, 3, CultureSpec.mallows(phi), 99, 0, N)[:, 0, :]
        codes = batch[:, 0] * 9 + batch[:, 1] * 3 + batch[:, 2]
        counts = Counter(codes.tolist())
        pmf = mallows_pmf(3, phi, Vote((0, 1, 2)))
        for perm, p in pmf.items():
            code = perm[0] * 9 + perm[1] * 3 + perm[2]
            assert abs(counts.get(code, 0) / N - p) < 0.01

    def test_phi_one_equals_impartial_exactly(self):
        a = sample_rankings_batch(3, 5, CultureSpec.mallows(1.0), 5, 0, 64)
        b = sample_rankings_batch(3, 5, IC, 5, 0, 64)
        assert np.array_equal(a, b)

    def test_tiny_phi_concentrates_on_reference(self):
        batch = sample_rankings_batch(2, 5, CultureSpec.mallows(1e-6), 1, 0, 100)
        ident = np.arange(5, dtype=np.int8)
        assert np.array_equal(batch, np.broadcast_to(ident, batch.shape))

    def test_random_reference_preserves_vote_dispersion(self):
        # drawing a fresh reference per profile relabels candidates, which
        # leaves every within-profile pairwise disagreement count unchanged
        spec_rr = CultureSpec.mallows(0.3, random_reference=True)
        spec_id = CultureSpec.mallows(0.3)
        rr = sample_rankings_batch(3, 5, spec_rr, 31, 0, 40)
        ident = sample_rankings_batch(3, 5, spec_id, 31, 0, 40)
        for s in range(40):
            for i in range(3):
                for j in range(i + 1, 3):
                    d_rr = kendall_tau(
                        Vote(tuple(int(c) for c in rr[s, i])),
                        Vote(tuple(int(c) for c in rr[s, j])),
                    )
                    d_id = kendall_tau(
                        Vote(tuple(int(c) for c in ident[s, i])),
                        Vote(tuple(int(c) for c in ident[s, j])),
                    )
                    assert d_rr == d_id

    def test_random_reference_actually_varies(self):
        spec = CultureSpec.mallows(1e-6, random_reference=True)
        batch = sample_rankings_batch(1, 4, spec, 8, 0, 30)[:, 0, :]
        # at negligible dispersion each sample sits on its own reference
        assert len({tuple(r.tolist()) for r in batch}) > 1


class TestEnumeration:
    def test_sizes(self):
        assert enumeration_size(1, 4) == 1
        assert enumeration_size(3, 4) == 576
        assert enumeration_size(2, 8) == math.factorial(8)

    def test_all_distinct_and_complete(self):
        seen = {
            tuple(v.ranking for v in profile_at_index(3, 4, idx).votes)
            for idx in range(576)
        }
        assert len(seen) == 576
        assert all(rows[0] == (0, 1, 2, 3) for rows in seen)

    def test_index_lookup_matches_iteration(self):
        listed = list(enumerate_profiles(3, 3))
        assert len(listed) == 36
        for idx in range(36):
            assert profile_at_index(3, 3, idx) == listed[idx]
        with pytest.raises(ValueError):
            profile_at_index(3, 3, 36)
        with pytest.raises(ValueError):
            profile_at_index(3, 3, -1)

    def test_index_zero_is_all_identity(self):
        p = profile_at_index(3, 4, 0)
        assert all(v.ranking == (0, 1, 2, 3) for v in p.votes)

    def test_order_is_lexicographic(self):
        # voter 1 pinned, the second voter most significant, rankings in
        # lexicographic order
        rows = [tuple(v.ranking for v in profile_at_index(3, 3, idx).votes)
                for idx in range(36)]
        perms = list(itertools.permutations(range(3)))
        assert rows == [(perms[0], *rest) for rest in itertools.product(perms, repeat=2)]
        assert ranking_ids(3, 3, 6 * 5 + 4) == [0, 5, 4]
        assert ranking_ids(1, 4, 0) == [0]

    def test_permutation_table(self):
        pos = permutation_table(4)
        assert pos.shape == (24, 4)
        assert pos[0].tolist() == [0, 1, 2, 3]
        assert pos[-1].tolist() == [3, 2, 1, 0]
        # every row holds each slot once
        assert np.array_equal(np.sort(pos, axis=1), np.broadcast_to(np.arange(4), (24, 4)))


    @pytest.mark.parametrize("m", range(1, 12))
    def test_profile_decoder_matches_the_position_table(self, m):
        # core decodes ranking ids by factorial digits; the position table's
        # argsorted rows are the same rankings, every id up to m = 6 and
        # 1,000 random ids above. The m = 11 table is 440 MB, so its rows
        # are built as permutation_table builds them from the m = 10 table:
        # row r leads with candidate r // 10! and ranks the others as row
        # r % 10! ranks 0..9
        pos = permutation_table(min(m, 10))
        if m <= 6:
            ids = range(math.factorial(m))
        else:
            ids = np.random.default_rng(m).integers(0, math.factorial(m), 1000).tolist()
        for r in ids:
            if m == 11:
                lead, rest = divmod(r, math.factorial(10))
                others = [c for c in range(11) if c != lead]
                want = (lead, *(others[c] for c in pos[rest].argsort().tolist()))
            else:
                want = tuple(pos[r].argsort().tolist())
            # the two-voter profile whose second voter holds ranking id r
            p = profile_at_index(2, m, r)
            assert p.votes[1].ranking == want, (m, r)
            assert p.votes[0].ranking == tuple(range(m))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_permutation_table_matches_itertools(self, m):
        pos = permutation_table(m)
        assert pos.dtype == np.int8
        assert np.argsort(pos, axis=1).tolist() == [
            list(p) for p in itertools.permutations(range(m))
        ]


class TestBudget:
    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("ELIMGAME_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            run_exhaustive(EliminationSequence((0, 1)), 2, 3, RatioMode.AB, fix_first=False)
        assert resolve_budget() == 10
        # explicit argument outranks the environment
        assert resolve_budget(500) == 500

    def test_env_budget_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("ELIMGAME_BUDGET", "lots")
        with pytest.raises(ParseError):
            resolve_budget()

    @pytest.mark.parametrize("text", ["-1", "-100000000"])
    def test_env_budget_must_not_be_negative(self, monkeypatch, text):
        # a negative budget used to refuse every study as over budget
        monkeypatch.setenv("ELIMGAME_BUDGET", text)
        with pytest.raises(ParseError, match="non-negative"):
            resolve_budget()
        monkeypatch.setenv("ELIMGAME_BUDGET", "0")
        assert resolve_budget() == 0

    def test_default(self, monkeypatch):
        monkeypatch.delenv("ELIMGAME_BUDGET", raising=False)
        assert resolve_budget() == 10**8
