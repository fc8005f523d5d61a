"""Tests for the bottleneck congestion model (packetsim)."""

import numpy as np
import pytest

from repro.core import ConfigurationError
from repro.packetsim import AimdFlow, BottleneckLink, LinkSimulation, PacedFlow


def make_link(capacity=125.0, buffer=12.5):
    return BottleneckLink(capacity=capacity, buffer=buffer)


class TestFlows:
    def test_aimd_rate(self):
        flow = AimdFlow(rtt=0.1, mss=1460.0, cwnd=100.0)
        assert flow.rate() == pytest.approx(100 * 1460 / 0.1 / 1e6)

    def test_aimd_additive_increase(self):
        flow = AimdFlow(rtt=0.1, cwnd=10.0)
        flow.step(0.1, lost=False)
        assert flow.cwnd == pytest.approx(11.0)

    def test_aimd_multiplicative_decrease(self):
        flow = AimdFlow(rtt=0.1, cwnd=64.0)
        flow.step(0.1, lost=True)
        assert flow.cwnd == pytest.approx(32.0)

    def test_aimd_floor_one_mss(self):
        flow = AimdFlow(rtt=0.1, cwnd=1.2)
        flow.step(0.1, lost=True)
        assert flow.cwnd == 1.0

    def test_paced_constant(self):
        flow = PacedFlow(reserved=55.0)
        flow.step(0.1, lost=True)
        assert flow.rate() == 55.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AimdFlow(rtt=0.0)
        with pytest.raises(ConfigurationError):
            PacedFlow(reserved=0.0)
        with pytest.raises(ConfigurationError):
            BottleneckLink(capacity=0.0, buffer=1.0)
        with pytest.raises(ConfigurationError):
            BottleneckLink(capacity=1.0, buffer=-1.0)


class TestLinkSimulation:
    def test_paced_only_exact_delivery(self):
        sim = LinkSimulation(make_link(), [PacedFlow(50.0), PacedFlow(60.0)])
        result = sim.run(10.0)
        np.testing.assert_allclose(result.mean_goodput(), [50.0, 60.0])
        np.testing.assert_allclose(result.goodput_std(), 0.0, atol=1e-12)

    def test_protection_requires_admission(self):
        with pytest.raises(ConfigurationError, match="admission"):
            LinkSimulation(make_link(capacity=100.0), [PacedFlow(60.0), PacedFlow(60.0)])

    def test_overbooked_allowed_when_unprotected(self):
        sim = LinkSimulation(
            make_link(capacity=100.0),
            [PacedFlow(80.0), PacedFlow(80.0)],
            protect_paced=False,
        )
        result = sim.run(20.0)
        # drop-tail sheds the 60 MB/s excess once the buffer fills
        assert result.mean_goodput().sum() < 160.0
        assert result.mean_goodput().sum() <= 1.2 * 100.0

    def test_aimd_sawtooth_under_congestion(self):
        flows = [AimdFlow(rtt=0.05, cwnd=3000.0), AimdFlow(rtt=0.05, cwnd=3000.0)]
        sim = LinkSimulation(make_link(), flows, protect_paced=False)
        result = sim.run(120.0, rng=np.random.default_rng(1))
        # congested AIMD flows oscillate: meaningful variance, capped mean
        assert np.all(result.goodput_std() > 1.0)
        assert result.mean_goodput().sum() <= 125.0 * 1.2

    def test_protected_reservation_is_exact_under_cross_traffic(self):
        """§5.4's claim: enforcement makes the granted rate exact."""
        flows = [PacedFlow(50.0), AimdFlow(rtt=0.02, cwnd=4000.0)]
        result = LinkSimulation(make_link(), flows, protect_paced=True).run(
            60.0, rng=np.random.default_rng(2)
        )
        paced_idx = result.labels.index("paced@50")
        assert result.goodput_std()[paced_idx] == pytest.approx(0.0, abs=1e-12)
        assert result.mean_goodput()[paced_idx] == pytest.approx(50.0)

    def test_unprotected_reservation_suffers(self):
        flows = [PacedFlow(50.0), AimdFlow(rtt=0.02, cwnd=8000.0)]
        result = LinkSimulation(make_link(), flows, protect_paced=False).run(
            60.0, rng=np.random.default_rng(3)
        )
        paced_idx = result.labels.index("paced@50")
        assert result.mean_goodput()[paced_idx] < 50.0
        assert result.goodput_std()[paced_idx] > 0.0

    def test_rtt_unfairness_emerges(self):
        """Short-RTT AIMD flows dominate long-RTT ones at the bottleneck."""
        flows = [AimdFlow(rtt=0.01, cwnd=1000.0), AimdFlow(rtt=0.2, cwnd=50.0)]
        result = LinkSimulation(make_link(), flows, protect_paced=False).run(
            180.0, rng=np.random.default_rng(4)
        )
        short, long_ = result.mean_goodput()
        assert short > 3 * long_

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkSimulation(make_link(), [])
        with pytest.raises(ConfigurationError):
            LinkSimulation(make_link(), [PacedFlow(1.0)], dt=0.0)
