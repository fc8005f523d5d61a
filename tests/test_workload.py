"""Tests for workload generation: arrivals, distributions, generators, load."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Platform
from repro.units import GB, TB
from repro.workload import (
    ChoiceVolumes,
    DeterministicArrivals,
    FlexibleWorkload,
    HotspotPairs,
    LogUniformDurations,
    PaperVolumes,
    PoissonArrivals,
    RigidWorkload,
    SlottedRigidWorkload,
    UniformPairs,
    UniformRates,
    UniformVolumes,
    arrival_rate_for_load,
    empirical_load,
    mean_interarrival_for_load,
    paper_flexible_workload,
    paper_rigid_workload,
    paper_volume_set,
)

RNG = lambda seed=0: np.random.default_rng(seed)


def _assert_ports_exist(prob):
    m, n = prob.platform.num_ingress, prob.platform.num_egress
    assert all(0 <= r.ingress < m and 0 <= r.egress < n for r in prob.requests)


class TestArrivals:
    def test_poisson_sorted_positive(self):
        times = PoissonArrivals(2.0).generate(100, RNG())
        assert np.all(np.diff(times) >= 0)
        assert times[0] > 0

    def test_poisson_mean(self):
        times = PoissonArrivals(2.0).generate(20_000, RNG())
        assert np.mean(np.diff(times)) == pytest.approx(2.0, rel=0.05)

    def test_poisson_with_rate(self):
        assert PoissonArrivals(0.5).rate() == pytest.approx(2.0)

    def test_poisson_rejects_bad(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-1.0)

    def test_deterministic(self):
        times = DeterministicArrivals(5.0).generate(4, RNG(), t0=100.0)
        assert list(times) == [105.0, 110.0, 115.0, 120.0]


class TestVolumes:
    def test_paper_values(self):
        values = paper_volume_set()
        assert values[0] == 10 * GB
        assert values[-1] == TB
        assert len(values) == 19

    def test_choice_draws_from_set(self):
        dist = PaperVolumes()
        draws = dist.generate(500, RNG())
        assert set(draws).issubset(set(paper_volume_set()))

    def test_choice_mean(self):
        dist = ChoiceVolumes([100.0, 300.0])
        assert dist.mean() == pytest.approx(200.0)

    def test_choice_rejects_empty_or_negative(self):
        with pytest.raises(ConfigurationError):
            ChoiceVolumes([])
        with pytest.raises(ConfigurationError):
            ChoiceVolumes([10.0, -1.0])

    def test_uniform_bounds(self):
        draws = UniformVolumes(10.0, 20.0).generate(1000, RNG())
        assert draws.min() >= 10.0
        assert draws.max() <= 20.0

    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformVolumes(10.0, 5.0)


class TestRatesAndDurations:
    def test_uniform_rates(self):
        draws = UniformRates(10.0, 1000.0).generate(1000, RNG())
        assert draws.min() >= 10.0 and draws.max() <= 1000.0

    def test_durations(self):
        dist = LogUniformDurations(60.0, 3600.0)
        draws = dist.generate(1000, RNG())
        assert draws.min() >= 60.0 and draws.max() <= 3600.0


class TestPairs:
    def test_uniform_excludes_same_index(self):
        p = Platform.uniform(5, 5, 10.0)
        ing, egr = UniformPairs().generate(p, 2000, RNG())
        assert not np.any(ing == egr)
        assert ing.min() >= 0 and ing.max() < 5

    def test_uniform_allows_same_when_disabled(self):
        p = Platform.uniform(3, 3, 10.0)
        ing, egr = UniformPairs(exclude_same_index=False).generate(p, 2000, RNG())
        assert np.any(ing == egr)

    def test_uniform_1x1_exclusion_impossible(self):
        p = Platform.uniform(1, 1, 10.0)
        with pytest.raises(ConfigurationError):
            UniformPairs().generate(p, 10, RNG())

    def test_hotspot_bias(self):
        p = Platform.uniform(4, 4, 10.0)
        sel = HotspotPairs(ingress_weights=[10.0, 1.0, 1.0, 1.0], exclude_same_index=False)
        ing, _ = sel.generate(p, 5000, RNG())
        counts = np.bincount(ing, minlength=4)
        assert counts[0] > 2 * counts[1]

    def test_hotspot_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            HotspotPairs(ingress_weights=[-1.0, 1.0])
        with pytest.raises(ConfigurationError):
            HotspotPairs(ingress_weights=[0.0, 0.0])

    def test_hotspot_wrong_length(self):
        p = Platform.uniform(3, 3, 10.0)
        with pytest.raises(ConfigurationError):
            HotspotPairs(ingress_weights=[1.0, 2.0]).generate(p, 10, RNG())


class TestLoad:
    def test_calibration_roundtrip(self):
        p = Platform.paper_platform()
        rate = arrival_rate_for_load(p, 2.0, mean_volume=313_157.0)
        # Little's law: λ · E[vol] MB/s demanded over half the capacity.
        assert rate * 313_157.0 / p.half_capacity == pytest.approx(2.0)
        assert mean_interarrival_for_load(p, 2.0, 313_157.0) == pytest.approx(1.0 / rate)

    def test_calibration_rejects_bad(self):
        p = Platform.paper_platform()
        with pytest.raises(ValueError):
            arrival_rate_for_load(p, 0.0, 100.0)
        with pytest.raises(ValueError):
            arrival_rate_for_load(p, 1.0, 0.0)

    def test_empirical_load_tracks_target(self):
        # long run with bounded durations: empirical load near target
        p = Platform.paper_platform()
        prob = paper_rigid_workload(load=2.0, n_requests=4000, seed=5)
        measured = empirical_load(p, prob.requests)
        assert measured == pytest.approx(2.0, rel=0.25)


class TestGenerators:
    def test_rigid_all_rigid(self):
        p = Platform.paper_platform()
        prob = RigidWorkload(p, PoissonArrivals(5.0)).generate(200, RNG(3))
        assert all(r.is_rigid for r in prob.requests)
        _assert_ports_exist(prob)

    def test_rigid_rates_within_port_capacity(self):
        p = Platform.uniform(3, 3, 50.0)
        prob = RigidWorkload(p, PoissonArrivals(5.0)).generate(300, RNG(3))
        assert all(r.min_rate <= 50.0 * (1 + 1e-9) for r in prob.requests)

    def test_slotted_windows_on_grid(self):
        p = Platform.paper_platform()
        wl = SlottedRigidWorkload(p, PoissonArrivals(5.0), slot=300.0, max_slots=10)
        prob = wl.generate(300, RNG(3))
        for r in prob.requests:
            assert r.t_start % 300.0 == pytest.approx(0.0, abs=1e-6)
            spans = (r.t_end - r.t_start) / 300.0
            assert spans == pytest.approx(round(spans))
            assert r.is_rigid
            assert r.min_rate <= 1000.0 * (1 + 1e-9)

    def test_slotted_rejects_bad_config(self):
        p = Platform.paper_platform()
        with pytest.raises(ConfigurationError):
            SlottedRigidWorkload(p, PoissonArrivals(5.0), slot=0.0).generate(1, RNG())
        with pytest.raises(ConfigurationError):
            SlottedRigidWorkload(p, PoissonArrivals(5.0), max_slots=0).generate(1, RNG())

    def test_flexible_rate_structure(self):
        p = Platform.paper_platform()
        wl = FlexibleWorkload(p, PoissonArrivals(5.0), slack=6.0)
        prob = wl.generate(300, RNG(4))
        for r in prob.requests:
            assert r.max_rate <= 1000.0 * (1 + 1e-9)
            assert r.min_rate == pytest.approx(r.max_rate / 6.0, rel=1e-9)
            assert not r.is_rigid

    def test_flexible_rejects_bad_slack(self):
        p = Platform.paper_platform()
        with pytest.raises(ConfigurationError):
            FlexibleWorkload(p, PoissonArrivals(5.0), slack=0.5).generate(1, RNG())

    def test_negative_count_rejected(self):
        p = Platform.paper_platform()
        with pytest.raises(ConfigurationError):
            RigidWorkload(p, PoissonArrivals(5.0)).generate(-1, RNG())

    def test_determinism_same_seed(self):
        a = paper_flexible_workload(2.0, 50, seed=11)
        b = paper_flexible_workload(2.0, 50, seed=11)
        assert list(a.requests) == list(b.requests)

    def test_different_seeds_differ(self):
        a = paper_flexible_workload(2.0, 50, seed=11)
        b = paper_flexible_workload(2.0, 50, seed=12)
        assert list(a.requests) != list(b.requests)

    def test_paper_rigid_workload_shape(self):
        prob = paper_rigid_workload(2.0, 100, seed=1)
        assert prob.num_requests == 100
        assert prob.platform == Platform.paper_platform()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
    slack=st.floats(1.0, 20.0, allow_nan=False),
)
def test_flexible_generation_always_valid(n, seed, slack):
    """Any generated flexible instance satisfies the request invariants."""
    p = Platform.paper_platform()
    wl = FlexibleWorkload(p, PoissonArrivals(3.0), slack=slack)
    prob = wl.generate(n, np.random.default_rng(seed))
    _assert_ports_exist(prob)
    for r in prob.requests:
        assert r.min_rate <= r.max_rate * (1 + 1e-9)
        assert r.t_end > r.t_start


class TestSinusoidalArrivals:
    def test_sorted_and_mean(self):
        from repro.workload import SinusoidalArrivals

        proc = SinusoidalArrivals(mean=2.0, amplitude=0.8, period=500.0)
        times = proc.generate(5000, RNG(0))
        assert np.all(np.diff(times) >= 0)
        assert np.mean(np.diff(times)) == pytest.approx(2.0, rel=0.1)

    def test_zero_amplitude_matches_poisson_stats(self):
        from repro.workload import SinusoidalArrivals

        proc = SinusoidalArrivals(mean=3.0, amplitude=0.0)
        times = proc.generate(8000, RNG(1))
        assert np.mean(np.diff(times)) == pytest.approx(3.0, rel=0.1)

    def test_intensity_oscillates(self):
        from repro.workload import SinusoidalArrivals

        proc = SinusoidalArrivals(mean=2.0, amplitude=0.5, period=100.0)
        assert proc.intensity(25.0) == pytest.approx(1.5 / 2.0)   # peak
        assert proc.intensity(75.0) == pytest.approx(0.5 / 2.0)   # trough

    def test_day_night_density(self):
        from repro.workload import SinusoidalArrivals

        proc = SinusoidalArrivals(mean=1.0, amplitude=0.9, period=1000.0)
        times = proc.generate(20_000, RNG(2))
        phase = (times % 1000.0) / 1000.0
        day = np.sum((phase > 0.0) & (phase < 0.5))    # high-intensity half
        night = np.sum((phase >= 0.5) & (phase < 1.0))
        assert day > 1.5 * night

    def test_validation(self):
        from repro.workload import SinusoidalArrivals

        with pytest.raises(ConfigurationError):
            SinusoidalArrivals(mean=0.0)
        with pytest.raises(ConfigurationError):
            SinusoidalArrivals(mean=1.0, amplitude=1.0)
        with pytest.raises(ConfigurationError):
            SinusoidalArrivals(mean=1.0, period=-5.0)


class TestSummary:
    def test_summarize_table(self):
        from repro.workload import summarize

        prob = paper_flexible_workload(2.0, 100, seed=0)
        table = summarize(prob.requests, prob.platform)
        dims = table.column("dimension")
        for expected in ("volume", "MinRate", "MaxRate", "window", "inter-arrival", "empirical load"):
            assert expected in dims

    def test_summarize_empty(self):
        from repro.core import RequestSet
        from repro.workload import summarize

        assert summarize(RequestSet()).rows == []

    def test_histogram(self):
        from repro.workload import text_histogram

        text = text_histogram([1.0, 2.0, 2.5, 9.0], bins=4, title="h")
        assert "h" in text
        assert text.count("|") == 4

    def test_histogram_log(self):
        from repro.workload import text_histogram

        text = text_histogram([1.0, 10.0, 100.0, 1000.0], bins=3, log=True)
        assert "|" in text
        with pytest.raises(ValueError):
            text_histogram([0.0, 1.0], log=True)

    def test_histogram_empty(self):
        from repro.workload import text_histogram

        assert "(no data)" in text_histogram([], title="x")
