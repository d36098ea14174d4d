"""Filter design against the analytic oracle, plus application and epoching."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filter_oracle import butterworth_magnitude, elliptic_magnitude_fn
from relconn.data import TrialSet, save_trialset
from relconn.errors import FilterDesignError, NumericError
from relconn.filters import (FilterSpec, SosFilter, apply_filter,
                             design_bandpass, epoch_bounds, extract_epoch,
                             frequency_response, magnitude_db, response_grid,
                             write_response_csv)
from relconn.pipeline import PipelineConfig, Plan, preprocess

FS = 512.0


def stack(*trials, fs=FS, ids=None):
    """A set of same-shaped channels x samples trials, labels alternating."""
    n = len(trials)
    ids = list(range(n)) if ids is None else ids
    return TrialSet(np.stack(trials), np.arange(n) % 2, ids,
                    tuple(f"c{i}" for i in range(np.shape(trials[0])[0])), fs)


def grid(lo=0.02):
    return np.geomspace(lo, 0.999 * FS / 2, 256)


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            FilterSpec("bessel", 4, (1.0, 10.0), FS)

    def test_band_order(self):
        with pytest.raises(ValueError, match="band edges"):
            FilterSpec("butterworth", 4, (10.0, 1.0), FS)

    def test_band_above_nyquist(self):
        with pytest.raises(ValueError, match="band edges"):
            FilterSpec("butterworth", 4, (1.0, 300.0), FS)

    @pytest.mark.parametrize("fs", [0.0, -1.0, float("nan")])
    def test_rate_must_be_positive(self, fs):
        # a NaN rate is named as the rate, not as a band past fs/2 = nan
        with pytest.raises(ValueError,
                           match=f"sampling_rate_hz must be positive, got {fs}"):
            FilterSpec("butterworth", 4, (1.0, 10.0), fs)


class TestStability:
    def test_unstable_sections_rejected(self):
        # z^2 - 2.5 z + 1 has roots 2 and 0.5; radius 2 is outside the circle
        bad = np.array([[1.0, 0.0, 0.0, 1.0, -2.5, 1.0]])
        spec = FilterSpec("butterworth", 1, (1.0, 10.0), FS)
        with pytest.raises(FilterDesignError, match="unstable"):
            SosFilter(bad, spec)

    def test_designed_filters_stable(self):
        for spec in (FilterSpec("butterworth", 5, (0.1, 10.0), FS),
                     FilterSpec("elliptic", 6, (8.0, 12.0), FS),
                     FilterSpec("elliptic", 6, (16.0, 24.0), FS)):
            filt = design_bandpass(spec)
            for row in filt.sections:
                roots = np.roots([1.0, row[4], row[5]])
                assert np.all(np.abs(roots) < 1.0)


class TestButterworthOracle:
    def test_magnitude_matches_closed_form(self):
        filt = design_bandpass(FilterSpec("butterworth", 5, (0.1, 10.0), FS))
        freqs = grid()
        impl = np.abs(frequency_response(filt, freqs))
        oracle = np.array(
            [butterworth_magnitude(f, (0.1, 10.0), FS, 5) for f in freqs])
        assert_allclose(impl, oracle, atol=1e-8, rtol=0.0)

    def test_band_edges_are_half_power(self):
        # |H| = 1/sqrt(2) exactly at both prewarped edges
        filt = design_bandpass(FilterSpec("butterworth", 5, (0.1, 10.0), FS))
        edges = np.abs(frequency_response(filt, [0.1, 10.0]))
        assert_allclose(edges, 1.0 / np.sqrt(2.0), atol=1e-8)

    def test_other_orders_and_bands(self):
        for order, band in ((2, (1.0, 30.0)), (3, (4.0, 8.0)), (7, (0.5, 45.0))):
            filt = design_bandpass(FilterSpec("butterworth", order, band, FS))
            freqs = grid()
            impl = np.abs(frequency_response(filt, freqs))
            oracle = np.array(
                [butterworth_magnitude(f, band, FS, order) for f in freqs])
            assert_allclose(impl, oracle, atol=1e-7, rtol=0.0)


class TestEllipticOracle:
    @pytest.mark.parametrize("band", [(8.0, 12.0), (16.0, 24.0)])
    def test_magnitude_matches_closed_form(self, band):
        filt = design_bandpass(FilterSpec("elliptic", 6, band, FS, 1.0, 50.0))
        oracle = elliptic_magnitude_fn(band, FS, 6, 1.0, 50.0)
        freqs = grid()
        impl = np.abs(frequency_response(filt, freqs))
        assert_allclose(impl, [oracle(f) for f in freqs], atol=1e-8, rtol=0.0)

    def test_band_edges_at_passband_ripple(self):
        # equiripple: the pass-band edges sit exactly at -1 dB
        filt = design_bandpass(FilterSpec("elliptic", 6, (8.0, 12.0), FS,
                                          1.0, 50.0))
        edges = np.abs(frequency_response(filt, [8.0, 12.0]))
        assert_allclose(edges, 10.0 ** (-1.0 / 20.0), atol=1e-8)

    def test_odd_order(self):
        band = (8.0, 12.0)
        filt = design_bandpass(FilterSpec("elliptic", 5, band, FS, 1.0, 40.0))
        oracle = elliptic_magnitude_fn(band, FS, 5, 1.0, 40.0)
        freqs = grid()
        impl = np.abs(frequency_response(filt, freqs))
        assert_allclose(impl, [oracle(f) for f in freqs], atol=1e-8, rtol=0.0)


class TestApply:
    def test_causal(self):
        filt = design_bandpass(FilterSpec("butterworth", 3, (1.0, 20.0), FS))
        x = np.zeros((1, 200))
        x[0, 50] = 1.0
        out = apply_filter(filt, stack(x)).samples[0]
        assert_allclose(out[0, :50], 0.0, atol=0.0)
        assert np.any(out[0, 50:] != 0.0)

    def test_linear(self):
        rng = np.random.default_rng(11)
        filt = design_bandpass(FilterSpec("butterworth", 3, (1.0, 20.0), FS))
        a = rng.standard_normal((2, 100))
        b = rng.standard_normal((2, 100))
        lhs = apply_filter(filt, stack(2.0 * a - 3.0 * b)).samples
        rhs = (2.0 * apply_filter(filt, stack(a)).samples
               - 3.0 * apply_filter(filt, stack(b)).samples)
        assert_allclose(lhs, rhs, atol=1e-10)

    def test_metadata_preserved(self):
        filt = design_bandpass(FilterSpec("butterworth", 3, (1.0, 20.0), FS))
        x = np.random.default_rng(0).standard_normal((3, 4, 64))
        ts = stack(*x, ids=[17, 3, 9])
        out = apply_filter(filt, ts)
        assert out.ids.tolist() == [17, 3, 9]
        assert out.labels.tolist() == [0, 1, 0]
        assert out.samples.shape == (3, 4, 64)
        assert not out.samples.flags.writeable
        # one call over the stack filters each trial as it would alone
        for i in range(3):
            assert np.array_equal(out.samples[i],
                                  apply_filter(filt, stack(x[i])).samples[0])

    def test_non_finite_output_names_the_trial(self):
        # an unstable recursion cannot be designed, so overflow the input
        filt = design_bandpass(FilterSpec("butterworth", 3, (1.0, 20.0), FS))
        x = np.zeros((2, 1, 64))
        x[1] = 1e308
        with pytest.raises(NumericError, match="trial 6: filter output"):
            apply_filter(filt, stack(*x, ids=[5, 6]))

    def test_tone_attenuation_in_time_domain(self):
        # a 50 Hz tone through the 8-12 Hz elliptic filter loses >= 50 dB;
        # the narrow band puts poles near the unit circle, so give the
        # startup transient a long run-out before measuring
        filt = design_bandpass(FilterSpec("elliptic", 6, (8.0, 12.0), FS))
        t = np.arange(int(FS * 32)) / FS
        tone = np.sin(2 * np.pi * 50.0 * t)[None, :]
        out = apply_filter(filt, stack(tone)).samples[0, 0]
        steady = out[3 * len(out) // 4:]
        ratio = np.max(np.abs(steady)) / 1.0
        assert 20 * np.log10(ratio) < -50.0


class TestEpoch:
    def test_window_indices(self):
        samples = np.arange(20, dtype=float)[None, :]
        ts = stack(samples, fs=10.0)
        # start = round(0.5 * 10) = 5, length = round(1.0 * 10) = 10
        assert epoch_bounds(ts, 0.5, 1.0) == (5, 15)
        out = extract_epoch(ts, 5, 15)
        assert out.samples[0, 0].tolist() == list(range(5, 15))

    def test_rounding(self):
        samples = np.arange(10, dtype=float)[None, :]
        ts = stack(samples, 2.0 * samples, fs=10.0)
        # round(2.4) = 2, round(2.6) = 3
        assert epoch_bounds(ts, 0.24, 0.26) == (2, 5)
        out = extract_epoch(ts, 2, 5)
        assert out.samples[:, 0].tolist() == [[2.0, 3.0, 4.0], [4.0, 6.0, 8.0]]
        # a view of the input, with the set's metadata
        assert np.shares_memory(out.samples, ts.samples)
        assert out.ids.tolist() == [0, 1] and out.sampling_rate_hz == 10.0

    def test_window_past_end(self):
        ts = stack(np.zeros((1, 10)), fs=10.0)
        with pytest.raises(ValueError, match="exceeds"):
            epoch_bounds(ts, 0.5, 1.0)
        with pytest.raises(ValueError, match="not a non-empty range of the "
                                             "10 samples"):
            extract_epoch(ts, 5, 15)

    def test_bad_arguments(self):
        t = stack(np.zeros((1, 10)), fs=10.0)
        with pytest.raises(ValueError, match="duration_s"):
            epoch_bounds(t, 0.0, 0.0)
        with pytest.raises(ValueError, match="onset_s"):
            epoch_bounds(t, -0.1, 1.0)
        with pytest.raises(ValueError, match="empty at this sampling rate"):
            epoch_bounds(t, 0.0, 0.04)
        for start, stop in ((0, 0), (3, 2), (-1, 5)):
            with pytest.raises(ValueError, match="not a non-empty range"):
                extract_epoch(t, start, stop)


class TestConcat:
    def test_joins_along_time(self, tmp_path):
        # concat mode keeps, per trial, the scatter matrix of its band
        # outputs joined along time: one scatter over both bands' samples
        x = np.random.default_rng(4).standard_normal((3, 2, 256))
        ts = stack(*x, ids=[5, 8, 2])
        cfg = PipelineConfig("motor_imagery", str(save_trialset(ts, tmp_path)),
                             "unused", band_mode="concat",
                             epoch_override=(0.1, 0.25))
        plan = Plan(cfg)
        out = preprocess(plan, plan.manifest)
        bands = [extract_epoch(apply_filter(design_bandpass(spec), ts),
                               *plan.epoch).samples
                 for spec in cfg.filter_specs(FS)]
        assert len(bands) == 2
        joined = np.concatenate(bands, axis=2)
        assert joined.shape == (3, 2, 2 * int(round(0.25 * FS)))
        assert out.n_samples == joined.shape[2]
        assert out.ids.tolist() == [5, 8, 2]
        assert out.labels.tolist() == [0, 1, 0]
        assert_allclose(out.matrices, joined @ np.swapaxes(joined, 1, 2),
                        rtol=1e-12)


class TestResponseExport:
    def test_grid_shape_and_range(self):
        filt = design_bandpass(FilterSpec("butterworth", 5, (0.1, 10.0), FS))
        freqs, mags = response_grid(filt, 333)
        assert freqs.shape == mags.shape == (333,)
        assert freqs[0] == pytest.approx(0.01)
        assert freqs[-1] == pytest.approx(0.999 * FS / 2)

    def test_csv_round_trip(self, tmp_path):
        filt = design_bandpass(FilterSpec("elliptic", 6, (8.0, 12.0), FS))
        path = tmp_path / "resp.csv"
        write_response_csv(filt, path, n_points=64)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,magnitude_db"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        freqs, mags = response_grid(filt, 64)
        # repr round-trips float64 exactly
        assert np.array_equal(rows[:, 0], freqs)
        assert np.array_equal(rows[:, 1], mags)

    def test_magnitude_db_matches_linear(self):
        filt = design_bandpass(FilterSpec("butterworth", 5, (0.1, 10.0), FS))
        freqs = grid()
        db = magnitude_db(filt, freqs)
        lin = np.abs(frequency_response(filt, freqs))
        assert_allclose(db, 20 * np.log10(lin), atol=1e-12)
