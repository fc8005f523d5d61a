"""Canonical experiment definitions: one function per paper figure.

Each function regenerates the rows/series of a published figure (or an
ablation) and returns a :class:`~repro.metrics.report.Table` plus an ASCII
chart.  Benchmarks and the CLI call these with different sizes; the
defaults match what EXPERIMENTS.md records.

Workload sizes are parameters everywhere so the benchmark suite can run
scaled-down versions quickly; orderings are stable well below the default
sizes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..core.objectives import resource_utilization_time_averaged
from ..fairness import FluidSimulation
from ..metrics.report import Table
from ..schedulers import (
    EarliestStartFlexible,
    FractionOfMaxPolicy,
    GreedyFlexible,
    MinRatePolicy,
    RetryGreedyFlexible,
    Scheduler,
    SlotsScheduler,
    WindowFlexible,
    cumulated_slots,
    fifo_slots,
    minbw_slots,
    minvol_slots,
    policy_from_name,
)
from ..schedulers.costs import CumulatedCost
from ..workload import paper_flexible_workload, paper_rigid_workload
from .plotting import ascii_chart
from .runner import replicate

__all__ = [
    "control_latency",
    "extensions",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "tuning_factor",
    "tcp_baseline",
    "ablation_window",
    "ablation_cost",
    "section53_claims",
    "FIGURES",
]

DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2)


# ---------------------------------------------------------------------------
# Figure 4 — rigid heuristics vs load
# ---------------------------------------------------------------------------

def fig4(
    loads: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    n_requests: int = 1000,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Figure 4: accept rate and utilisation of the rigid heuristics.

    FIFO, MINVOL-SLOTS, MINBW-SLOTS and CUMULATED-SLOTS over a load sweep
    on the §4.3 platform.  Expected shape: FIFO worst accept rate (and
    degrading with load); MINVOL lowest utilisation; CUMULATED ≈ MINBW.
    """
    schedulers = [fifo_slots(), minvol_slots(), minbw_slots(), cumulated_slots()]
    headers = ["load"]
    for s in schedulers:
        short = s.name.replace("-slots", "")
        headers += [f"{short}:accept", f"{short}:util"]
    table = Table(headers, title="Figure 4 — rigid heuristics (accept rate / utilisation)")
    accept_series: dict[str, tuple[list[float], list[float]]] = {
        s.name: ([], []) for s in schedulers
    }

    for load in loads:
        def run(seed: int) -> dict[str, float]:
            prob = paper_rigid_workload(load, n_requests, seed=seed)
            out: dict[str, float] = {}
            for scheduler in schedulers:
                result = scheduler.schedule(prob)
                out[f"{scheduler.name}:accept"] = result.accept_rate
                out[f"{scheduler.name}:util"] = resource_utilization_time_averaged(
                    prob.platform, prob.requests, result
                )
            return out

        agg = replicate(run, seeds)
        row: list[float] = [load]
        for scheduler in schedulers:
            row += [agg[f"{scheduler.name}:accept"].mean, agg[f"{scheduler.name}:util"].mean]
            xs, ys = accept_series[scheduler.name]
            xs.append(load)
            ys.append(agg[f"{scheduler.name}:accept"].mean)
        table.add_row(*row)

    chart = ascii_chart(
        accept_series, title="Figure 4 (accept rate)", x_label="load", y_label="accept rate"
    )
    return table, chart


# ---------------------------------------------------------------------------
# Figure 5 — GREEDY vs WINDOW under heavy load (f = 1)
# ---------------------------------------------------------------------------

def fig5(
    gaps: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 5.0),
    t_steps: Sequence[float] = (100.0, 400.0, 1600.0),
    n_requests: int = 1200,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Figure 5: accept rate vs mean inter-arrival, FCFS vs interval-based.

    All schedulers grant ``f = 1`` (full host rate).  Expected shape: in a
    very loaded network the interval-based heuristics beat FCFS, and
    longer intervals do better, converging as load lightens.
    """
    schedulers: list[Scheduler] = [GreedyFlexible(policy=FractionOfMaxPolicy(1.0))]
    schedulers += [WindowFlexible(t_step=t, policy=FractionOfMaxPolicy(1.0)) for t in t_steps]
    table = Table(
        ["mean_interarrival"] + [s.name for s in schedulers],
        title="Figure 5 — FCFS vs interval-based, heavy load, f=1 (accept rate)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {s.name: ([], []) for s in schedulers}

    for gap in gaps:
        def run(seed: int) -> dict[str, float]:
            prob = paper_flexible_workload(gap, n_requests, seed=seed)
            return {s.name: s.schedule(prob).accept_rate for s in schedulers}

        agg = replicate(run, seeds)
        table.add_row(gap, *[agg[s.name].mean for s in schedulers])
        for s in schedulers:
            xs, ys = series[s.name]
            xs.append(gap)
            ys.append(agg[s.name].mean)

    chart = ascii_chart(
        series, title="Figure 5", x_label="mean inter-arrival (s)", y_label="accept rate"
    )
    return table, chart


# ---------------------------------------------------------------------------
# Figures 6 and 7 — bandwidth policies under heavy / light load
# ---------------------------------------------------------------------------

def _policy_sweep(
    make_scheduler: Callable[[object], Scheduler],
    title: str,
    gaps_heavy: Sequence[float],
    gaps_light: Sequence[float],
    policies: Sequence[str | float],
    n_requests: int,
    seeds: Sequence[int],
) -> tuple[Table, str]:
    labels = [str(p) for p in policies]
    table = Table(
        ["regime", "mean_interarrival"] + labels,
        title=title,
    )
    series: dict[str, tuple[list[float], list[float]]] = {lbl: ([], []) for lbl in labels}

    for regime, gaps in (("heavy", gaps_heavy), ("light", gaps_light)):
        for gap in gaps:
            def run(seed: int) -> dict[str, float]:
                prob = paper_flexible_workload(gap, n_requests, seed=seed)
                out = {}
                for label in labels:
                    out[label] = make_scheduler(policy_from_name(label)).schedule(prob).accept_rate
                return out

            agg = replicate(run, seeds)
            table.add_row(regime, gap, *[agg[lbl].mean for lbl in labels])
            for lbl in labels:
                xs, ys = series[lbl]
                xs.append(gap)
                ys.append(agg[lbl].mean)

    chart = ascii_chart(series, title=title, x_label="mean inter-arrival (s)", y_label="accept rate")
    return table, chart


def fig6(
    gaps_heavy: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 5.0),
    gaps_light: Sequence[float] = (3.0, 5.0, 10.0, 20.0),
    policies: Sequence[str | float] = ("min-bw", 0.2, 0.5, 0.8, 1.0),
    n_requests: int = 1200,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Figure 6: FCFS accept rate under different f policies.

    Expected shape: when underloaded, smaller granted bandwidth accepts
    more (MIN BW best, monotone in f); under heavy load the policy curves
    collapse together.
    """
    return _policy_sweep(
        lambda p: GreedyFlexible(policy=p),
        "Figure 6 — FCFS with bandwidth policies (accept rate)",
        gaps_heavy,
        gaps_light,
        policies,
        n_requests,
        seeds,
    )


def fig7(
    gaps_heavy: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 5.0),
    gaps_light: Sequence[float] = (3.0, 5.0, 10.0, 20.0),
    policies: Sequence[str | float] = ("min-bw", 0.2, 0.5, 0.8, 1.0),
    t_step: float = 400.0,
    n_requests: int = 1200,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Figure 7: the WINDOW heuristic (length 400) under different f.

    Same sweep as Figure 6 with interval-based decisions; the paper reports
    the same conclusions with slightly better heavy-load numbers.
    """
    return _policy_sweep(
        lambda p: WindowFlexible(t_step=t_step, policy=p),
        f"Figure 7 — WINDOW({t_step:g}) with bandwidth policies (accept rate)",
        gaps_heavy,
        gaps_light,
        policies,
        n_requests,
        seeds,
    )


# ---------------------------------------------------------------------------
# §5.3 tuning-factor study
# ---------------------------------------------------------------------------

def tuning_factor(
    fs: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    gap: float = 20.0,
    t_step: float = 400.0,
    n_requests: int = 1200,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """§5.3 tuning study: accept-rate gain vs ``f`` under light load.

    The paper reports gains roughly linear in ``(1 − f)`` for both
    strategies under underloaded conditions.  The table reports, per f,
    the accept rate of GREEDY and WINDOW and the gain relative to f = 1.
    """
    table = Table(
        ["f", "greedy_accept", "greedy_gain", "window_accept", "window_gain"],
        title=f"Tuning factor (gap={gap:g}s, light load)",
    )

    def run(seed: int) -> dict[str, float]:
        prob = paper_flexible_workload(gap, n_requests, seed=seed)
        out = {}
        for f in fs:
            out[f"greedy:{f}"] = GreedyFlexible(policy=FractionOfMaxPolicy(f)).schedule(prob).accept_rate
            out[f"window:{f}"] = (
                WindowFlexible(t_step=t_step, policy=FractionOfMaxPolicy(f)).schedule(prob).accept_rate
            )
        return out

    agg = replicate(run, seeds)
    greedy_base = agg[f"greedy:{fs[-1]}"].mean
    window_base = agg[f"window:{fs[-1]}"].mean
    series: dict[str, tuple[list[float], list[float]]] = {"greedy": ([], []), "window": ([], [])}
    for f in fs:
        g = agg[f"greedy:{f}"].mean
        w = agg[f"window:{f}"].mean
        table.add_row(
            f,
            g,
            (g - greedy_base) / greedy_base if greedy_base else 0.0,
            w,
            (w - window_base) / window_base if window_base else 0.0,
        )
        series["greedy"][0].append(f)
        series["greedy"][1].append(g)
        series["window"][0].append(f)
        series["window"][1].append(w)

    chart = ascii_chart(series, title="Tuning factor", x_label="f", y_label="accept rate")
    return table, chart


# ---------------------------------------------------------------------------
# Reservation vs statistical sharing (the paper's motivation)
# ---------------------------------------------------------------------------

def tcp_baseline(
    gaps: Sequence[float] = (0.5, 2.0, 10.0),
    t_step: float = 400.0,
    n_requests: int = 500,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Reservation vs max-min fluid sharing on the same workload.

    Reservation accepts a fraction of requests but every accepted transfer
    finishes inside its window by construction; fair sharing serves
    everyone a collapsing share — deadline-met rate drops and (in drop
    mode) capacity is wasted on transfers that die.
    """
    table = Table(
        [
            "mean_interarrival",
            "window_accept",
            "fluid_met",
            "fluid_slowdown",
            "fluid_dropped",
            "fluid_wasted_tb",
        ],
        title="Reservation vs max-min statistical sharing",
    )
    series: dict[str, tuple[list[float], list[float]]] = {
        "reservation (accept=on-time)": ([], []),
        "max-min sharing (on-time)": ([], []),
    }

    for gap in gaps:
        def run(seed: int) -> dict[str, float]:
            prob = paper_flexible_workload(gap, n_requests, seed=seed)
            window = WindowFlexible(t_step=t_step, policy=FractionOfMaxPolicy(1.0)).schedule(prob)
            fluid = FluidSimulation(prob).run()
            dropped = FluidSimulation(prob, drop_at_deadline=True).run()
            return {
                "window_accept": window.accept_rate,
                "fluid_met": fluid.deadline_met_rate,
                "fluid_slowdown": fluid.mean_slowdown,
                "fluid_dropped": dropped.dropped_rate,
                "fluid_wasted_tb": dropped.wasted_volume / 1e6,
            }

        agg = replicate(run, seeds)
        table.add_row(
            gap,
            agg["window_accept"].mean,
            agg["fluid_met"].mean,
            agg["fluid_slowdown"].mean,
            agg["fluid_dropped"].mean,
            agg["fluid_wasted_tb"].mean,
        )
        series["reservation (accept=on-time)"][0].append(gap)
        series["reservation (accept=on-time)"][1].append(agg["window_accept"].mean)
        series["max-min sharing (on-time)"][0].append(gap)
        series["max-min sharing (on-time)"][1].append(agg["fluid_met"].mean)

    chart = ascii_chart(
        series, title="Reservation vs statistical sharing", x_label="mean inter-arrival (s)", y_label="on-time fraction"
    )
    return table, chart


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def ablation_window(
    t_steps: Sequence[float] = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0),
    gap: float = 0.5,
    n_requests: int = 1200,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """WINDOW ``t_step`` sweep: accept rate vs mean response time.

    Longer intervals help the packing but delay decisions (and kill
    requests whose deadline passes while they wait) — the paper's
    "longer response time for grid users" trade-off, quantified.
    """
    table = Table(
        ["t_step", "accept_rate", "mean_wait", "deadline_kills"],
        title=f"Ablation — WINDOW interval length (gap={gap:g}s)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {"accept rate": ([], [])}

    for t_step in t_steps:
        def run(seed: int) -> dict[str, float]:
            prob = paper_flexible_workload(gap, n_requests, seed=seed)
            scheduler = WindowFlexible(t_step=t_step, policy=FractionOfMaxPolicy(1.0))
            result = scheduler.schedule(prob)
            waits = [
                alloc.sigma - prob.requests.by_rid(rid).t_start
                for rid, alloc in result.accepted.items()
            ]
            # Requests whose deadline passed before their decision epoch.
            kills = result.rejection_breakdown().get("deadline", 0)
            return {
                "accept_rate": result.accept_rate,
                "mean_wait": sum(waits) / len(waits) if waits else 0.0,
                "deadline_kills": kills / len(prob.requests),
            }

        agg = replicate(run, seeds)
        table.add_row(
            t_step, agg["accept_rate"].mean, agg["mean_wait"].mean, agg["deadline_kills"].mean
        )
        series["accept rate"][0].append(t_step)
        series["accept rate"][1].append(agg["accept_rate"].mean)

    chart = ascii_chart(series, title="WINDOW t_step ablation", x_label="t_step (s)", y_label="accept rate")
    return table, chart


def ablation_cost(
    loads: Sequence[float] = (2.0, 8.0, 16.0),
    n_requests: int = 800,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    heterogeneous: bool = False,
) -> tuple[Table, str]:
    """CUMULATED cost design ablation: priority and b_min terms on/off.

    Disabling the priority term removes protection of running requests;
    disabling b_min removes bottleneck normalisation — a no-op on the
    uniform paper platform, so pass ``heterogeneous=True`` to run on the
    Grid'5000-like platform where the term actually discriminates.
    """
    from ..core.platform import Platform

    platform = Platform.grid5000() if heterogeneous else None
    variants = {
        "full": SlotsScheduler(CumulatedCost()),
        "no-priority": SlotsScheduler(CumulatedCost(use_priority=False)),
        "no-bmin": SlotsScheduler(CumulatedCost(use_bmin=False)),
        "minbw": minbw_slots(),
    }
    table = Table(
        ["load"] + list(variants),
        title="Ablation — CUMULATED cost terms (accept rate"
        + (", Grid'5000 platform)" if heterogeneous else ")"),
    )
    series: dict[str, tuple[list[float], list[float]]] = {name: ([], []) for name in variants}

    for load in loads:
        def run(seed: int) -> dict[str, float]:
            prob = paper_rigid_workload(load, n_requests, seed=seed, platform=platform)
            return {name: s.schedule(prob).accept_rate for name, s in variants.items()}

        agg = replicate(run, seeds)
        table.add_row(load, *[agg[name].mean for name in variants])
        for name in variants:
            series[name][0].append(load)
            series[name][1].append(agg[name].mean)

    chart = ascii_chart(series, title="Cost ablation", x_label="load", y_label="accept rate")
    return table, chart


# ---------------------------------------------------------------------------
# §5.3 in-text claims
# ---------------------------------------------------------------------------

def section53_claims(
    n_requests: int = 1000,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Check the §5.3 numeric/ordering claims and report pass/fail.

    Claims: (1) WINDOW beats GREEDY under heavy load; (2) larger windows
    do better under heavy load; (3) the strategies are close when lightly
    loaded, near 50% accept; (4) GREEDY is below 20% when busy; (5) MIN BW
    beats f = 1 when lightly loaded.
    """
    def run(seed: int) -> dict[str, float]:
        heavy = paper_flexible_workload(0.1, n_requests, seed=seed)
        light = paper_flexible_workload(20.0, n_requests, seed=seed)
        full = FractionOfMaxPolicy(1.0)
        return {
            "greedy_heavy": GreedyFlexible(policy=full).schedule(heavy).accept_rate,
            "window100_heavy": WindowFlexible(t_step=100.0, policy=full).schedule(heavy).accept_rate,
            "window400_heavy": WindowFlexible(t_step=400.0, policy=full).schedule(heavy).accept_rate,
            "greedy_light": GreedyFlexible(policy=full).schedule(light).accept_rate,
            "window400_light": WindowFlexible(t_step=400.0, policy=full).schedule(light).accept_rate,
            "greedy_light_minbw": GreedyFlexible(policy=MinRatePolicy()).schedule(light).accept_rate,
        }

    agg = replicate(run, seeds)
    table = Table(["claim", "measured", "holds"], title="§5.3 claims")
    checks = [
        (
            "WINDOW(400) > GREEDY under heavy load",
            f"{agg['window400_heavy'].mean:.3f} vs {agg['greedy_heavy'].mean:.3f}",
            agg["window400_heavy"].mean > agg["greedy_heavy"].mean,
        ),
        (
            "larger window helps under heavy load",
            f"{agg['window400_heavy'].mean:.3f} >= {agg['window100_heavy'].mean:.3f}",
            agg["window400_heavy"].mean >= agg["window100_heavy"].mean - 0.01,
        ),
        (
            "GREEDY < 20% accept when busy",
            f"{agg['greedy_heavy'].mean:.3f}",
            agg["greedy_heavy"].mean < 0.20,
        ),
        (
            "strategies close when light",
            f"|{agg['window400_light'].mean:.3f} - {agg['greedy_light'].mean:.3f}|",
            abs(agg["window400_light"].mean - agg["greedy_light"].mean) < 0.08,
        ),
        (
            "~50% accept with MIN BW guarantee when light",
            f"{agg['greedy_light_minbw'].mean:.3f}",
            0.35 <= agg["greedy_light_minbw"].mean <= 0.75,
        ),
        (
            "MIN BW > f=1 when light",
            f"{agg['greedy_light_minbw'].mean:.3f} vs {agg['greedy_light'].mean:.3f}",
            agg["greedy_light_minbw"].mean > agg["greedy_light"].mean,
        ),
    ]
    for claim, measured, holds in checks:
        table.add_row(claim, measured, "yes" if holds else "NO")
    chart = ""
    return table, chart


# ---------------------------------------------------------------------------
# Extensions (the paper's conclusion / future-work directions)
# ---------------------------------------------------------------------------

def extensions(
    gaps: Sequence[float] = (0.5, 2.0, 10.0),
    n_requests: int = 800,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Book-ahead and retry vs the published heuristics.

    The model allows any start in ``[t_s, t_f − vol/bw]`` but Algorithms
    2–3 always start at the decision instant.  Booking the earliest
    feasible start (malleable reservations, [6]) and client retries
    (§2.3's "try later") both raise the accept rate substantially.
    """
    schedulers: list[Scheduler] = [
        GreedyFlexible(policy=MinRatePolicy()),
        WindowFlexible(t_step=400.0, policy=MinRatePolicy()),
        EarliestStartFlexible(policy=MinRatePolicy()),
        RetryGreedyFlexible(policy=MinRatePolicy(), backoff=120.0, max_attempts=6),
    ]
    table = Table(
        ["mean_interarrival"] + [s.name for s in schedulers],
        title="Extensions — book-ahead and retry vs published heuristics (accept rate)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {s.name: ([], []) for s in schedulers}
    for gap in gaps:
        def run(seed: int) -> dict[str, float]:
            prob = paper_flexible_workload(gap, n_requests, seed=seed)
            return {s.name: s.schedule(prob).accept_rate for s in schedulers}

        agg = replicate(run, seeds)
        table.add_row(gap, *[agg[s.name].mean for s in schedulers])
        for s in schedulers:
            series[s.name][0].append(gap)
            series[s.name][1].append(agg[s.name].mean)
    chart = ascii_chart(series, title="Extensions", x_label="mean inter-arrival (s)", y_label="accept rate")
    return table, chart


def hotspot(
    skews: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    gap: float = 2.0,
    n_requests: int = 800,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Hot-spot sensitivity ("relieving tentative hot spots", §7).

    One egress point attracts ``skew``× the traffic of the others.  The
    WINDOW cost function balances load away from the hot port, so its
    advantage over GREEDY grows with the skew.
    """
    from ..workload import FlexibleWorkload, HotspotPairs, PoissonArrivals
    from ..core.platform import Platform
    import numpy as np

    platform = Platform.paper_platform()
    table = Table(
        ["skew", "greedy", "window", "window_advantage"],
        title=f"Hot-spot traffic (one egress skewed; gap={gap:g}s)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {"greedy": ([], []), "window": ([], [])}
    for skew in skews:
        weights = [skew] + [1.0] * (platform.num_egress - 1)

        def run(seed: int) -> dict[str, float]:
            workload = FlexibleWorkload(
                platform,
                arrivals=PoissonArrivals(gap),
                pairs=HotspotPairs(egress_weights=weights),
            )
            prob = workload.generate(n_requests, np.random.default_rng(seed))
            return {
                "greedy": GreedyFlexible(policy=FractionOfMaxPolicy(1.0)).schedule(prob).accept_rate,
                "window": WindowFlexible(t_step=400.0, policy=FractionOfMaxPolicy(1.0)).schedule(prob).accept_rate,
            }

        agg = replicate(run, seeds)
        table.add_row(skew, agg["greedy"].mean, agg["window"].mean, agg["window"].mean - agg["greedy"].mean)
        series["greedy"][0].append(skew)
        series["greedy"][1].append(agg["greedy"].mean)
        series["window"][0].append(skew)
        series["window"][1].append(agg["window"].mean)
    chart = ascii_chart(series, title="Hot-spot sensitivity", x_label="skew", y_label="accept rate")
    return table, chart


def control_latency(
    latencies: Sequence[float] = (0.0, 0.1, 1.0, 10.0, 60.0),
    gap: float = 1.0,
    n_requests: int = 600,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Distributed admission: accept rate vs signalling latency (§5.4, §7).

    The control plane equals GREEDY at zero latency; growing one-way
    latency delays starts (shrinking windows) and holds bandwidth
    pessimistically during probes, trading accept rate for decentralised
    decisions.
    """
    from ..control import ControlPlane

    table = Table(
        ["latency", "accept_rate", "messages_per_request"],
        title=f"Control-plane signalling cost (gap={gap:g}s)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {"accept rate": ([], [])}
    for latency in latencies:
        def run(seed: int) -> dict[str, float]:
            prob = paper_flexible_workload(gap, n_requests, seed=seed)
            plane = ControlPlane(policy=MinRatePolicy(), latency=latency)
            result = plane.schedule(prob)
            return {
                "accept_rate": result.accept_rate,
                "mpr": result.meta["messages"] / prob.num_requests,
            }

        agg = replicate(run, seeds)
        table.add_row(latency, agg["accept_rate"].mean, agg["mpr"].mean)
        series["accept rate"][0].append(latency)
        series["accept rate"][1].append(agg["accept_rate"].mean)
    chart = ascii_chart(series, title="Signalling latency", x_label="one-way latency (s)", y_label="accept rate")
    return table, chart


#: Experiment id → callable, used by the CLI and the benchmark harness.
FIGURES: dict[str, Callable[..., tuple[Table, str]]] = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "tuning": tuning_factor,
    "tcp": tcp_baseline,
    "ablation-window": ablation_window,
    "ablation-cost": ablation_cost,
    "claims": section53_claims,
    "extensions": extensions,
    "hotspot": hotspot,
    "control-latency": control_latency,
}

# Registered lazily to avoid a circular import at module load.
from .extended import (  # noqa: E402
    coallocation,
    diurnal_load,
    localsearch_study,
    optimality_gap_flexible,
    rtt_unfairness_study,
)

FIGURES["coallocation"] = coallocation
FIGURES["optgap"] = optimality_gap_flexible
FIGURES["rtt-unfairness"] = rtt_unfairness_study
FIGURES["diurnal"] = diurnal_load
FIGURES["localsearch"] = localsearch_study
