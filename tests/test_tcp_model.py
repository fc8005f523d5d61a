"""Tests for the steady-state TCP throughput models."""

import numpy as np
import pytest

from repro.core import ConfigurationError
from repro.fairness import (
    BIC_LIKE,
    RENO,
    ResponseFunction,
    rtt_unfairness,
)


class TestMathis:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RENO.throughput(0, 0.1, 1e-4)
        with pytest.raises(ConfigurationError):
            RENO.throughput(1460, -1, 1e-4)
        with pytest.raises(ConfigurationError):
            RENO.throughput(1460, 0.1, 0.0)
        with pytest.raises(ConfigurationError):
            RENO.throughput(1460, 0.1, 1.5)


class TestResponseFunctions:
    def test_reno_matches_mathis(self):
        # The Mathis square-root law: MSS / RTT · sqrt(3/2) / sqrt(p), in MB/s.
        mathis = 1460 / 0.1 * np.sqrt(1.5 / 1e-4) / 1e6
        assert RENO.throughput(1460, 0.1, 1e-4) == pytest.approx(mathis, rel=1e-9)

    def test_bic_less_rtt_sensitive(self):
        """The §5.4 observation: high-speed variants suffer less RTT bias."""
        rtts = np.array([0.01, 0.3])
        reno = rtt_unfairness(RENO, rtts)
        bic = rtt_unfairness(BIC_LIKE, rtts)
        # the slow flow's relative share is higher under the BIC-like law
        assert bic[1] > reno[1]

    def test_unfairness_normalised(self):
        shares = rtt_unfairness(RENO, np.array([0.02, 0.05, 0.2]))
        assert shares.max() == pytest.approx(1.0)
        assert np.all(shares > 0)

    def test_unfairness_validation(self):
        with pytest.raises(ConfigurationError):
            rtt_unfairness(RENO, np.array([0.1, -0.1]))

    def test_custom_response(self):
        flat = ResponseFunction("flat", c=1.0, rtt_exp=0.0, loss_exp=0.0)
        shares = rtt_unfairness(flat, np.array([0.01, 1.0]))
        np.testing.assert_allclose(shares, 1.0)
