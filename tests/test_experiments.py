import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elimgame import (
    CultureSpec,
    ExperimentConfig,
    OutOfDomain,
    RatioMode,
    ratio_ab,
    ratio_cb,
    run_experiment,
)
from elimgame.cli import MAX_BINS
from elimgame.experiments import (
    CSV_HEADER,
    HIST_HEADER,
    bin_pairs,
    csv_row,
    histogram_rows,
    json_summary,
    ratio_range,
    render_report,
    write_histogram_csv,
)
from elimgame.experiments import run_exhaustive
from helpers import enumerate_profiles, numpy_bin_pairs, seq, seq_from


def exhaustive_config(**kw):
    base = dict(n=2, m=4, sequence=seq(1, 2, 1), mode=RatioMode.AB)
    base.update(kw)
    return ExperimentConfig(**base)


def montecarlo_config(**kw):
    base = dict(
        n=2, m=4, sequence=seq(1, 2, 1), mode=RatioMode.CB,
        culture=CultureSpec.impartial(), samples=400, seed=9,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            exhaustive_config(workers=0)
        with pytest.raises(ValueError):
            exhaustive_config(histogram_bins=0)
        with pytest.raises(ValueError):
            montecarlo_config(samples=0)
        from elimgame import SequenceLengthMismatch

        with pytest.raises(SequenceLengthMismatch):
            exhaustive_config(sequence=seq(1, 2))

    def test_ratio_range_is_bound_and_reciprocal(self):
        cfg = ExperimentConfig(
            n=2, m=8, sequence=seq_from("1112221"), mode=RatioMode.AB
        )
        assert ratio_range(cfg) == (Fraction(7, 10), Fraction(10, 7))
        cfg = ExperimentConfig(
            n=2, m=8, sequence=seq_from("1112221"), mode=RatioMode.CB
        )
        assert ratio_range(cfg) == (Fraction(8, 11), Fraction(11, 8))


class TestRunExperiment:
    def test_exhaustive_wraps_sweep(self):
        cfg = exhaustive_config()
        result = run_experiment(cfg)
        assert result.sweep.count == 24
        direct = run_exhaustive(seq(1, 2, 1), 2, 4, RatioMode.AB)
        assert result.sweep.mean == direct.mean
        assert result.sweep.max_ratio == direct.max_ratio
        assert result.bound == Fraction(4, 3)
        assert ratio_ab(result.witness, cfg.sequence) == result.sweep.max_ratio

    def test_montecarlo_witness_attains_max(self):
        cfg = montecarlo_config()
        result = run_experiment(cfg)
        assert result.sweep.count == 400
        assert ratio_cb(result.witness, cfg.sequence) == result.sweep.max_ratio

    def test_single_voter_is_refused_before_sweeping(self, monkeypatch):
        def sweep(*args, **kw):
            raise AssertionError("swept a configuration the closed forms refuse")

        monkeypatch.setattr("elimgame.experiments.run_exhaustive", sweep)
        monkeypatch.setattr("elimgame.experiments.run_montecarlo", sweep)
        for cfg in (
            exhaustive_config(n=1, m=10, sequence=seq(*[1] * 9), fix_first=False),
            montecarlo_config(n=1, sequence=seq(1, 1, 1), samples=2_000_000),
        ):
            with pytest.raises(OutOfDomain, match="at least two voters"):
                run_experiment(cfg)

    def test_mean_std_properties(self):
        result = run_experiment(exhaustive_config())
        assert result.mean == float(result.sweep.mean)
        assert result.std == result.sweep.std


class TestCsv:
    def test_header_is_stable(self):
        assert CSV_HEADER == "sequence,n,m,mode,culture,phi,count,mean,std,max_num,max_den"
        assert HIST_HEADER == "bin_left,bin_right,count"

    def test_exhaustive_row(self):
        result = run_experiment(exhaustive_config())
        row = csv_row(result)
        mx = result.sweep.max_ratio
        assert row == (
            f"121,2,4,ab,exhaustive,,24,{result.mean!r},{result.std!r},"
            f"{mx.numerator},{mx.denominator}"
        )

    def test_montecarlo_row_carries_culture_and_phi(self):
        result = run_experiment(
            montecarlo_config(culture=CultureSpec.mallows(0.6), samples=100)
        )
        fields = csv_row(result).split(",")
        assert fields[4] == "mallows" and fields[5] == "0.6"
        result = run_experiment(montecarlo_config(samples=100))
        fields = csv_row(result).split(",")
        assert fields[4] == "ic" and fields[5] == ""


class TestHistogram:
    # at 7 bins 1.0 is exactly an edge of the ratio range [3/4, 4/3]
    @pytest.mark.parametrize("bins", [1, 7, 12])
    def test_rows_cover_population_with_spike(self, bins):
        result = run_experiment(exhaustive_config(histogram_bins=bins))
        rows = histogram_rows(result)
        spike_rows = [r for r in rows if r[0] == r[1] == 1.0]
        assert len(spike_rows) == 1
        assert spike_rows[0][2] == result.sweep.spike_count
        assert sum(r[2] for r in rows) == result.sweep.count
        assert len(rows) == bins + 1
        lefts = [r[0] for r in rows]
        assert lefts == sorted(lefts)
        # the spike sits exactly where 1.0 belongs in the edge ordering
        i = rows.index(spike_rows[0])
        if i > 0:
            assert rows[i - 1][0] < 1.0
        if i + 1 < len(rows):
            assert rows[i + 1][0] >= 1.0

    def test_counts_cover_offspike_mass(self):
        # rebuild the bins from the naive value list: float ratios against
        # equal-width edges over the provable range, the ends clipped
        cfg = exhaustive_config(n=3, sequence=seq(1, 2, 3), mode=RatioMode.CB,
                                histogram_bins=10)
        rows = histogram_rows(run_experiment(cfg))
        low, high = ratio_range(cfg)
        edges = np.linspace(float(low), float(high), 11)
        expect = [0] * 10
        for p in enumerate_profiles(3, 4):
            v = ratio_cb(p, cfg.sequence)
            if v != 1:
                idx = int(np.searchsorted(edges, float(v), side="right")) - 1
                expect[min(max(idx, 0), 9)] += 1
        bins = [r for r in rows if r[0] != r[1]]
        assert [r[2] for r in bins] == expect
        assert [r[0] for r in bins] + [bins[-1][1]] == edges.tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        bound=st.fractions(min_value=1, max_value=20, max_denominator=30),
        spread=st.one_of(st.none(), st.floats(0.01, 50)),
        bins=st.one_of(st.integers(1, 80), st.integers(1, MAX_BINS)),
        pairs=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 60),
                                 st.integers(1, 10**6)), max_size=40),
        on_edges=st.lists(st.integers(0, MAX_BINS), max_size=8),
    )
    def test_pure_binning_matches_numpy(self, bound, spread, bins, pairs, on_edges):
        # a study's range is [1/bound, bound]; other ranges reach edges
        # that no closed form gives. Random pairs rarely hit an edge, so
        # ``on_edges`` adds the simplest ratio near each of a few edges,
        # whose float often is the edge itself
        low, high = (float(1 / bound), float(bound)) if spread is None else (0.25, 0.25 + spread)
        edges = np.linspace(low, high, bins + 1)
        for i in on_edges:
            near = Fraction(float(edges[i % (bins + 1)])).limit_denominator(1000)
            pairs.append((near.numerator, near.denominator, 1))
        assert bin_pairs(pairs, low, high, bins) == numpy_bin_pairs(pairs, low, high, bins)

    def test_e1_on_edge_ratios_keep_their_bins(self):
        # E1's range [1/2, 2] in 60 bins puts 6/5 and 17/10 exactly on the
        # left edges of bins 28 and 48, but the float edges 28 * 0.025 + 0.5
        # and 48 * 0.025 + 0.5 round above them, so the pinned histogram
        # holds them in bins 27 and 47
        cfg = exhaustive_config(n=3, m=7, sequence=seq_from("123123"), mode=RatioMode.CB)
        low, high = ratio_range(cfg)
        assert (low, high) == (Fraction(1, 2), 2)
        rows = [r for r in bin_pairs([(6, 5, 1), (17, 10, 2)], float(low), float(high), 60)
                if r[0] != r[1]]
        assert [i for i, r in enumerate(rows) if r[2]] == [27, 47]
        assert (rows[27][2], rows[47][2]) == (1, 2)
        assert rows[28][0] > 1.2 and rows[48][0] > 1.7

    def test_csv_file(self, tmp_path):
        result = run_experiment(exhaustive_config(histogram_bins=5))
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == HIST_HEADER
        assert len(lines) == 7  # header + 5 bins + spike
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == result.sweep.count


class TestReports:
    def test_json_summary_exhaustive(self):
        result = run_experiment(exhaustive_config())
        out = json_summary(result)
        assert out["sequence"] == "1,2,1"
        assert out["culture"] == "exhaustive"
        assert out["count"] == 24
        assert out["mean_exact"] == {
            "num": result.sweep.mean.numerator,
            "den": result.sweep.mean.denominator,
        }
        assert set(out["max"]) == {"num", "den", "float"}
        assert out["bound"]["num"] == 4 and out["bound"]["den"] == 3
        assert len(out["max_witness"]) == 2
        assert "samples" not in out

    def test_json_summary_montecarlo(self):
        result = run_experiment(
            montecarlo_config(culture=CultureSpec.mallows(0.5), samples=64, seed=4)
        )
        out = json_summary(result)
        assert out["culture"] == "mallows"
        assert out["phi"] == 0.5 and out["samples"] == 64 and out["seed"] == 4
        result = run_experiment(montecarlo_config(samples=64))
        assert json_summary(result)["phi"] is None

    def test_render_report_shape(self):
        result = run_experiment(exhaustive_config())
        text = render_report(result)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == csv_row(result)
        parsed = json.loads(lines[2])
        assert parsed["count"] == 24
        assert text.endswith("\n")

    def test_byte_stability_across_workers(self):
        a = render_report(run_experiment(montecarlo_config(samples=2000, workers=1)))
        b = render_report(run_experiment(montecarlo_config(samples=2000, workers=3)))
        assert a == b
