"""Shared test fixtures."""

import numpy as np
import pytest

from dpsprt import dp_sprt, noise


@pytest.fixture
def swap_noise(monkeypatch):
    """Instrument the DP-SPRT kernels for one test: `swap_noise(spec)` makes
    every kernel draw its Y and Z noise from `spec` in place of its
    variant's, and with `zero_correction=True` also drops the correction
    C(n, delta) from the thresholds; the rest of the calibration (gamma,
    budgets, rate) stays the variant's. The scalar reference mechanism in
    `outside_interval` keeps its own noise."""

    def apply(spec, zero_correction=False):
        monkeypatch.setattr(dp_sprt, "sample_y",
                            lambda _spec, rng, size=None: noise.sample_y(spec, rng, size))
        monkeypatch.setattr(dp_sprt, "sample_z",
                            lambda _spec, rng, size=None: noise.sample_z(spec, rng, size))
        if zero_correction:
            monkeypatch.setattr(dp_sprt, "_corrections",
                                lambda _res, n: (np.zeros_like(n), np.zeros_like(n)))

    return apply
