"""Shared fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from lookback import numerics

# Every property test runs without a per-example deadline: the machines
# that run the suite vary too much in speed for a fixed one.
settings.register_profile("lookback", deadline=None)
settings.load_profile("lookback")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Log (entries, packed) for every call of the pmf kernel, which
    ``numerics._chunk_terms`` makes for every pmf term of the package,
    ``price_closed``'s row included; a packed call carries per-entry
    constants for two or more segments, where a segment is the merged
    first chunks of one (n, p) that overlap or touch."""
    calls = []
    kernel = numerics._binom_pmf_log_vec

    def recording(ks, consts):
        calls.append((ks.size, isinstance(consts[0], np.ndarray)))
        return kernel(ks, consts)

    monkeypatch.setattr(numerics, "_binom_pmf_log_vec", recording)
    return calls
