"""IIR band-pass filtering and epoch extraction.

Filters are designed with the bilinear transform (scipy.signal) and stored
as second-order sections, which stay numerically stable even for bands that
sit far below the Nyquist frequency. Application is causal (one-directional)
with zero initial conditions. scipy is imported by the functions that use
it, not with the module, so a process that only reads artifacts never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TrialSet, _derived, _keep
from .errors import FilterDesignError, NumericError

FAMILIES = ("butterworth", "elliptic")
# points of the exported magnitude-response grid
RESPONSE_POINTS = 1024


@dataclass(frozen=True)
class FilterSpec:
    """Band-pass design parameters.

    Parameters
    ----------
    family : str
        'butterworth' or 'elliptic'.
    order : int
        Prototype order (the band-pass filter has twice as many poles).
    band_hz : tuple of float
        (low, high) edge frequencies in Hz, 0 < low < high < fs/2.
    sampling_rate_hz : float
        Sampling rate the filter is designed for.
    passband_ripple_db : float
        Allowed pass-band ripple. Elliptic designs use it directly; a
        Butterworth response is ripple-free, so there it only bounds the
        verified pass-band deviation.
    stopband_atten_db : float
        Minimum stop-band attenuation. Same remark as above.
    """

    family: str
    order: int
    band_hz: tuple[float, float]
    sampling_rate_hz: float
    passband_ripple_db: float = 1.0
    stopband_atten_db: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "band_hz", tuple(float(f) for f in self.band_hz))
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not self.sampling_rate_hz > 0:
            raise ValueError(f"sampling_rate_hz must be positive, "
                             f"got {self.sampling_rate_hz}")
        low, high = self.band_hz
        if not 0.0 < low < high:
            raise ValueError(f"band edges must satisfy 0 < low < high, "
                             f"got ({low}, {high})")
        nyq = self.sampling_rate_hz / 2.0
        if not high < nyq:
            raise ValueError(f"band edges must lie below fs/2 = {nyq}, "
                             f"got ({low}, {high})")
        for name in ("passband_ripple_db", "stopband_atten_db"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be a positive finite dB "
                                 f"value, got {getattr(self, name)}")


@dataclass(frozen=True)
class SosFilter:
    """A designed filter: second-order sections plus its design spec."""

    sections: np.ndarray
    spec: FilterSpec

    def __post_init__(self):
        sec = _keep(self, "sections", self.sections)
        if sec.ndim != 2 or sec.shape[1] != 6:
            raise FilterDesignError(
                f"sections must have shape (n, 6), got {sec.shape}")
        for k, row in enumerate(sec):
            # poles of z^2 + a1 z + a2 must lie strictly inside the unit circle
            roots = np.roots([1.0, row[4], row[5]])
            radius = float(np.max(np.abs(roots))) if roots.size else 0.0
            if radius >= 1.0:
                raise FilterDesignError(
                    f"section {k} is unstable (pole radius {radius:.6f})")

    @property
    def sampling_rate_hz(self) -> float:
        return self.spec.sampling_rate_hz


def design_bandpass(spec: FilterSpec) -> SosFilter:
    """Design a band-pass filter from its spec.

    Returns
    -------
    SosFilter
        Stable second-order sections. Pass-band and stop-band behaviour is
        checked against an independent analytic oracle in the test suite.
    """
    # a spec may carry an unbounded rate, to check the other design values
    if not np.isfinite(spec.sampling_rate_hz):
        raise ValueError(f"sampling_rate_hz must be finite to design a "
                         f"filter, got {spec.sampling_rate_hz}")
    from scipy import signal

    if spec.family == "butterworth":
        sos = signal.butter(spec.order, spec.band_hz, btype="bandpass",
                            fs=spec.sampling_rate_hz, output="sos")
    else:
        sos = signal.ellip(spec.order, spec.passband_ripple_db,
                           spec.stopband_atten_db, spec.band_hz,
                           btype="bandpass", fs=spec.sampling_rate_hz,
                           output="sos")
    return SosFilter(sos, spec)


def apply_filter(filt: SosFilter, ts: TrialSet) -> TrialSet:
    """Filter every channel of every trial causally (zero initial
    conditions), in one call over the whole stack."""
    from scipy import signal

    # sosfilt wants writable sections; they are stored read-only
    out = signal.sosfilt(np.array(filt.sections), ts.samples, axis=-1)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    if bad.size:
        raise NumericError(
            f"trial {ts.ids[bad[0]]}: filter output is non-finite")
    return _derived(ts, samples=out)


def frequency_response(filt: SosFilter, freqs_hz) -> np.ndarray:
    """Complex response of the filter at the given frequencies (Hz)."""
    from scipy import signal

    freqs_hz = np.asarray(freqs_hz, dtype=float)
    _, h = signal.sosfreqz(filt.sections, worN=freqs_hz,
                           fs=filt.sampling_rate_hz)
    return h


def magnitude_db(filt: SosFilter, freqs_hz) -> np.ndarray:
    """Magnitude response in dB; hard-zero magnitudes map to -inf."""
    h = np.abs(frequency_response(filt, freqs_hz))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(h)


def response_grid(filt: SosFilter, n_points: int = RESPONSE_POINTS
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(frequency_hz, magnitude_db) on a log-spaced grid of n_points >= 2
    frequencies up to Nyquist."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    nyq = filt.sampling_rate_hz / 2.0
    low, high = filt.spec.band_hz
    f_min = min(low / 10.0, 1e-2)
    freqs = np.geomspace(f_min, nyq * 0.999, n_points)
    return freqs, magnitude_db(filt, freqs)


def _check_window(onset_s: float, duration_s: float) -> None:
    """Reject an epoch window unless 0 <= onset < inf, 0 < duration < inf."""
    if not 0 <= onset_s < np.inf:
        raise ValueError(f"onset_s must be >= 0 and finite, got {onset_s}")
    if not 0 < duration_s < np.inf:
        raise ValueError(
            f"duration_s must be positive and finite, got {duration_s}")


def epoch_bounds(ts: TrialSet, onset_s: float,
                 duration_s: float) -> tuple[int, int]:
    """The sample range [start, stop) of an epoch window in the set's
    trials: it starts at round(onset_s * fs) and spans
    round(duration_s * fs) samples, fs being the set's sampling rate."""
    _check_window(onset_s, duration_s)
    start = int(round(onset_s * ts.sampling_rate_hz))
    length = int(round(duration_s * ts.sampling_rate_hz))
    if length < 1:
        raise ValueError("epoch window is empty at this sampling rate")
    stop = start + length
    if stop > ts.n_samples:
        raise ValueError(
            f"epoch [{start}, {stop}) exceeds the {ts.n_samples} samples "
            f"per trial")
    return start, stop


def extract_epoch(ts: TrialSet, start: int, stop: int) -> TrialSet:
    """Cut samples [start, stop) out of every trial, a range that
    `epoch_bounds` resolves from seconds; returns a view."""
    if not 0 <= start < stop <= ts.n_samples:
        raise ValueError(f"epoch [{start}, {stop}) is not a non-empty range "
                         f"of the {ts.n_samples} samples per trial")
    return _derived(ts, samples=ts.samples[:, :, start:stop])


def write_response_csv(filt: SosFilter, path,
                       n_points: int = RESPONSE_POINTS) -> None:
    """Emit the response grid as CSV with header frequency_hz,magnitude_db."""
    freqs, mags = response_grid(filt, n_points)
    lines = ["frequency_hz,magnitude_db"]
    # repr of the Python float round-trips the exact binary value
    for f, m in zip(freqs, mags):
        lines.append(f"{float(f)!r},{float(m)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
