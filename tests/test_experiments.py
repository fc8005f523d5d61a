"""Tests for the experiment harness (small, fast parameterisations)."""

import pytest

from repro.experiments import (
    FIGURES,
    Aggregate,
    ablation_cost,
    ablation_window,
    ascii_chart,
    fig4,
    fig5,
    fig6,
    fig7,
    replicate,
    section53_claims,
    tcp_baseline,
    tuning_factor,
)
from repro.metrics import Table

FAST = dict(n_requests=150, seeds=(0,))


class TestReplicate:
    def test_aggregates(self):
        agg = replicate(lambda seed: {"x": float(seed)}, seeds=[1, 2, 3])
        assert agg["x"].mean == pytest.approx(2.0)
        assert agg["x"].n == 3
        assert agg["x"].std == pytest.approx((2 / 3) ** 0.5)

    def test_key_mismatch_caught(self):
        def run(seed):
            return {"a": 1.0} if seed == 0 else {"b": 1.0}

        with pytest.raises(ValueError):
            replicate(run, seeds=[0, 1])

    def test_empty_seeds(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {}, seeds=[])

    def test_format(self):
        agg = Aggregate(mean=0.5, std=0.1, n=3)
        assert "±" in f"{agg:.2f}"


class TestAsciiChart:
    def test_renders_series(self):
        chart = ascii_chart({"a": ([0, 1, 2], [0.0, 0.5, 1.0])}, width=20, height=5, title="T")
        assert "T" in chart
        assert "o = a" in chart
        assert "|" in chart

    def test_empty(self):
        assert "(no data)" in ascii_chart({}, title="x")

    def test_constant_series(self):
        chart = ascii_chart({"flat": ([0, 1], [1.0, 1.0])})
        assert "flat" in chart


class TestFigures:
    """Each figure runs end-to-end at a tiny size and produces a table."""

    def test_fig4(self):
        table, chart = fig4(loads=(2.0, 8.0), **FAST)
        assert isinstance(table, Table)
        assert len(table.rows) == 2
        assert "fifo:accept" in table.headers
        assert chart

    def test_fig5(self):
        table, chart = fig5(gaps=(0.5, 5.0), t_steps=(100.0,), **FAST)
        assert len(table.rows) == 2
        assert any("window" in h for h in table.headers)

    def test_fig6(self):
        table, _ = fig6(gaps_heavy=(0.5,), gaps_light=(10.0,), policies=("min-bw", 1.0), **FAST)
        assert len(table.rows) == 2
        assert table.rows[0][0] == "heavy"
        assert table.rows[1][0] == "light"

    def test_fig7(self):
        table, _ = fig7(gaps_heavy=(0.5,), gaps_light=(10.0,), policies=("min-bw", 1.0), **FAST)
        assert len(table.rows) == 2

    def test_tuning(self):
        table, _ = tuning_factor(fs=(0.5, 1.0), gap=10.0, **FAST)
        assert len(table.rows) == 2
        # f=1 row has zero gain by definition
        assert table.rows[-1][2] == pytest.approx(0.0)

    def test_tcp(self):
        table, _ = tcp_baseline(gaps=(2.0,), n_requests=80, seeds=(0,))
        assert len(table.rows) == 1
        assert "fluid_met" in table.headers

    def test_ablation_window(self):
        table, _ = ablation_window(t_steps=(100.0, 800.0), gap=1.0, **FAST)
        assert len(table.rows) == 2
        # longer interval means longer mean wait
        waits = table.column("mean_wait")
        assert waits[1] > waits[0]

    def test_ablation_cost(self):
        table, _ = ablation_cost(loads=(4.0,), n_requests=150, seeds=(0,))
        assert len(table.rows) == 1
        assert "no-priority" in table.headers

    def test_claims_table_shape(self):
        table, _ = section53_claims(n_requests=300, seeds=(0,))
        assert table.headers == ["claim", "measured", "holds"]
        assert len(table.rows) == 6

    def test_registry_complete(self):
        assert set(FIGURES) == {
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "tuning",
            "tcp",
            "ablation-window",
            "ablation-cost",
            "claims",
            "extensions",
            "hotspot",
            "control-latency",
            "optgap",
            "rtt-unfairness",
            "diurnal",
            "localsearch",
            "coallocation",
        }

    def test_extensions_experiment(self):
        from repro.experiments import extensions

        table, _ = extensions(gaps=(2.0,), n_requests=150, seeds=(0,))
        row = dict(zip(table.headers, table.rows[0]))
        book = next(v for h, v in row.items() if h.startswith("bookahead"))
        greedy = next(v for h, v in row.items() if h.startswith("greedy"))
        assert book >= greedy

    def test_hotspot_experiment(self):
        from repro.experiments import hotspot

        table, _ = hotspot(skews=(1.0, 4.0), n_requests=150, seeds=(0,))
        assert len(table.rows) == 2

    def test_control_latency_experiment(self):
        from repro.experiments import control_latency

        table, _ = control_latency(latencies=(0.0, 5.0), n_requests=150, seeds=(0,))
        assert len(table.rows) == 2
        assert all(m <= 3.0 for m in table.column("messages_per_request"))


class TestPublishedOrderings:
    """The headline orderings at moderate (still fast) sizes."""

    def test_fig4_orderings(self):
        table, _ = fig4(loads=(16.0,), n_requests=500, seeds=(0, 1))
        row = dict(zip(table.headers, table.rows[0]))
        assert row["fifo:accept"] < row["cumulated:accept"]
        assert row["fifo:accept"] < row["minbw:accept"]
        assert row["minvol:util"] < row["minbw:util"]
        assert row["minvol:util"] < row["cumulated:util"]
        assert abs(row["cumulated:accept"] - row["minbw:accept"]) < 0.10

    def test_fig5_ordering(self):
        table, _ = fig5(gaps=(0.1,), t_steps=(400.0,), n_requests=600, seeds=(0, 1))
        row = dict(zip(table.headers, table.rows[0]))
        greedy = row["greedy[f=1]"]
        window = row["window[400s,f=1]"]
        assert window > greedy

    def test_fig6_light_ordering(self):
        table, _ = fig6(
            gaps_heavy=(0.5,), gaps_light=(20.0,), policies=("min-bw", 0.5, 1.0),
            n_requests=600, seeds=(0, 1),
        )
        light = dict(zip(table.headers, table.rows[1]))
        assert light["min-bw"] > light["0.5"] > light["1.0"]

    def test_tcp_reservation_reliability(self):
        table, _ = tcp_baseline(gaps=(0.5,), n_requests=300, seeds=(0,))
        row = dict(zip(table.headers, table.rows[0]))
        # statistical sharing wastes capacity; reservation never does
        assert row["fluid_dropped"] > 0.2
        assert row["fluid_met"] < 0.5
        assert row["fluid_wasted_tb"] > 0.0


class TestHeterogeneousAblation:
    def test_runs_on_grid5000(self):
        table, _ = ablation_cost(loads=(8.0,), n_requests=150, seeds=(0,), heterogeneous=True)
        assert "Grid'5000" in table.title
        row = dict(zip(table.headers, table.rows[0]))
        # all variants produce sane rates on the heterogeneous platform
        for name in ("full", "no-priority", "no-bmin", "minbw"):
            assert 0.0 <= row[name] <= 1.0
