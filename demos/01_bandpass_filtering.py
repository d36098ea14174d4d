"""Design the two band-pass families and push a noisy tone through one."""

import tempfile
from pathlib import Path

import numpy as np

from relconn.data import TrialSet
from relconn.filters import (FilterSpec, apply_filter, design_bandpass,
                             magnitude_db, write_response_csv)

fs = 200.0

butter = design_bandpass(FilterSpec("butterworth", 5, (0.1, 10.0), fs))
ellip = design_bandpass(FilterSpec("elliptic", 6, (8.0, 12.0), fs, 1.0, 50.0))

probe = np.array([0.05, 1.0, 5.0, 9.0, 15.0, 40.0])
print("frequency (Hz):   ", "  ".join(f"{f:7.2f}" for f in probe))
print("butterworth (dB): ", "  ".join(f"{m:7.2f}" for m in magnitude_db(butter, probe)))
print("elliptic (dB):    ", "  ".join(f"{m:7.2f}" for m in magnitude_db(ellip, probe)))

# a 10 Hz tone buried in a 45 Hz interferer, one channel
t = np.arange(int(4 * fs)) / fs
clean = np.sin(2 * np.pi * 10.0 * t)
noisy = clean + 2.0 * np.sin(2 * np.pi * 45.0 * t)
# a set of one trial: samples are (trials, channels, samples)
trial = TrialSet(noisy[None, None, :], [0], [0], ("cz",), fs)
filtered = apply_filter(ellip, trial)

# compare steady-state power after the filter settles
settle = slice(int(fs), None)
power_in = float(np.mean(noisy[settle] ** 2))
power_out = float(np.mean(filtered.samples[0, 0, settle] ** 2))
print(f"\npower before filtering: {power_in:.3f}")
print(f"power after 8-12 Hz elliptic: {power_out:.3f} (clean tone is 0.5)")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "butterworth_response.csv"
    write_response_csv(butter, out, n_points=512)
    print(f"\nfull magnitude grid written to {out}")
