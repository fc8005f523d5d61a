"""Extended studies beyond the paper's figures.

These quantify aspects the paper motivates but does not measure:

- :func:`optimality_gap_flexible` — how close the online heuristics get to
  the time-indexed LP upper bound;
- :func:`rtt_unfairness_study` — the §1 motivation made quantitative:
  relative shares of different-RTT flows under loss-based TCP models vs
  the exact granted share under reservation;
- :func:`diurnal_load` — day/night accept-rate swing under a
  non-homogeneous arrival process;
- :func:`localsearch_study` — what an offline order-space search buys over
  the one-pass heuristics.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exact import flexible_lp_bound
from ..fairness import BIC_LIKE, RENO, rtt_unfairness
from ..metrics.report import Table
from ..schedulers import (
    EarliestStartFlexible,
    FCFSRigid,
    GreedyFlexible,
    LocalSearchScheduler,
    MinRatePolicy,
    WindowFlexible,
    cumulated_slots,
    minbw_slots,
)
from ..workload import paper_flexible_workload, paper_rigid_workload
from .plotting import ascii_chart
from .runner import replicate

__all__ = [
    "optimality_gap_flexible",
    "rtt_unfairness_study",
    "diurnal_load",
    "localsearch_study",
    "coallocation",
]

DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2)


def optimality_gap_flexible(
    gaps: Sequence[float] = (0.1, 0.3, 1.0),
    n_requests: int = 200,
    max_slots: int = 120,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Online heuristics as a fraction of the flexible LP upper bound.

    Small instances (the LP has |R| × slots variables).  The bound is a
    *relaxation* (fractional accepts, variable rates), so even an optimal
    constant-rate scheduler may sit below 100 %.
    """
    table = Table(
        ["mean_interarrival", "lp_bound", "greedy", "window", "bookahead"],
        title="Optimality: accepted / flexible-LP bound",
    )
    series: dict[str, tuple[list[float], list[float]]] = {
        name: ([], []) for name in ("greedy", "window", "bookahead")
    }
    for gap in gaps:
        def run(seed: int) -> dict[str, float]:
            prob = paper_flexible_workload(gap, n_requests, seed=seed)
            bound = flexible_lp_bound(prob, max_slots=max_slots)
            out = {"lp_bound": bound}
            schedulers = {
                "greedy": GreedyFlexible(policy=MinRatePolicy()),
                "window": WindowFlexible(t_step=400.0, policy=MinRatePolicy()),
                "bookahead": EarliestStartFlexible(policy=MinRatePolicy()),
            }
            for name, scheduler in schedulers.items():
                accepted = scheduler.schedule(prob).num_accepted
                out[name] = accepted / bound if bound > 0 else 1.0
            return out

        agg = replicate(run, seeds)
        table.add_row(
            gap,
            agg["lp_bound"].mean,
            agg["greedy"].mean,
            agg["window"].mean,
            agg["bookahead"].mean,
        )
        for name in series:
            series[name][0].append(gap)
            series[name][1].append(agg[name].mean)
    chart = ascii_chart(
        series, title="Fraction of LP bound", x_label="mean inter-arrival (s)", y_label="accepted / bound"
    )
    return table, chart


def rtt_unfairness_study(
    rtts: Sequence[float] = (0.005, 0.02, 0.05, 0.1, 0.2, 0.3),
    loss: float = 1e-4,
) -> tuple[Table, str]:
    """Relative shares by RTT: Reno vs BIC-like vs reservation.

    Under loss-based congestion control a 300 ms grid flow receives a tiny
    fraction of a 5 ms flow's share; a reservation grants both exactly
    their booked rate (share ratio 1) — §1's predictability argument.
    """
    rtts_arr = np.asarray(list(rtts))
    reno = rtt_unfairness(RENO, rtts_arr, loss=loss)
    bic = rtt_unfairness(BIC_LIKE, rtts_arr, loss=loss)
    table = Table(
        ["rtt_s", "reno_share", "bic_like_share", "reservation_share"],
        title=f"Relative share of same-bottleneck flows by RTT (p={loss:g})",
    )
    series = {
        "reno": (list(rtts_arr), list(reno)),
        "bic-like": (list(rtts_arr), list(bic)),
        "reservation": (list(rtts_arr), [1.0] * rtts_arr.size),
    }
    for k, rtt in enumerate(rtts_arr):
        table.add_row(float(rtt), float(reno[k]), float(bic[k]), 1.0)
    chart = ascii_chart(series, title="RTT unfairness", x_label="RTT (s)", y_label="relative share")
    return table, chart


def diurnal_load(
    amplitudes: Sequence[float] = (0.0, 0.5, 0.9),
    mean_gap: float = 2.0,
    period: float = 7200.0,
    n_requests: int = 800,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """Accept rate under day/night (sinusoidal) arrival intensity.

    Burstier days stress the admission control: the same mean load yields
    lower accept rates as the amplitude grows, with WINDOW degrading more
    gracefully than GREEDY (its batching rides out the peaks).
    """
    from ..core.platform import Platform
    from ..workload import FlexibleWorkload, SinusoidalArrivals

    platform = Platform.paper_platform()
    table = Table(
        ["amplitude", "greedy", "window"],
        title=f"Diurnal arrivals (mean gap {mean_gap:g}s, period {period:g}s)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {"greedy": ([], []), "window": ([], [])}
    for amplitude in amplitudes:
        def run(seed: int) -> dict[str, float]:
            workload = FlexibleWorkload(
                platform,
                arrivals=SinusoidalArrivals(mean=mean_gap, amplitude=amplitude, period=period),
            )
            prob = workload.generate(n_requests, np.random.default_rng(seed))
            return {
                "greedy": GreedyFlexible(policy=MinRatePolicy()).schedule(prob).accept_rate,
                "window": WindowFlexible(t_step=400.0, policy=MinRatePolicy()).schedule(prob).accept_rate,
            }

        agg = replicate(run, seeds)
        table.add_row(amplitude, agg["greedy"].mean, agg["window"].mean)
        for name in series:
            series[name][0].append(amplitude)
            series[name][1].append(agg[name].mean)
    chart = ascii_chart(series, title="Diurnal amplitude", x_label="amplitude", y_label="accept rate")
    return table, chart


def coallocation(
    fs: Sequence[float | str] = ("min-bw", 0.5, 0.8, 1.0),
    mean_gap: float = 5.0,
    n_jobs: int = 400,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[Table, str]:
    """CPU co-allocation under the f policies — §2.3 made quantitative.

    Jobs hold their processors from submission until staging + compute
    complete.  Larger ``f`` stages data faster (fewer CPU·seconds per job,
    shorter completion) but admits fewer transfers: the exact trade the
    tuning factor was introduced to navigate.
    """
    from ..core.platform import Platform
    from ..grid import JobSimulator, random_jobs
    from ..schedulers.policies import FractionOfMaxPolicy as Frac
    from ..schedulers.policies import MinRatePolicy as MinBw

    platform = Platform.paper_platform()
    table = Table(
        ["policy", "completed_rate", "cpu_s_per_job", "mean_completion_s"],
        title=f"CPU co-allocation vs tuning factor (gap={mean_gap:g}s)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {
        "completed rate": ([], []),
        "cpu efficiency (rel)": ([], []),
    }
    baseline_cpu: float | None = None
    for k, f in enumerate(fs):
        policy = MinBw() if f == "min-bw" else Frac(float(f))

        def run(seed: int) -> dict[str, float]:
            jobs = random_jobs(
                platform, n_jobs, np.random.default_rng(seed), mean_interarrival=mean_gap
            )
            result = JobSimulator(platform, jobs).run(GreedyFlexible(policy=policy))
            return {
                "completed": result.completed_rate,
                "cpu_s": result.cpu_seconds_per_job(),
                "completion": result.mean_completion_time(),
            }

        agg = replicate(run, seeds)
        table.add_row(str(f), agg["completed"].mean, agg["cpu_s"].mean, agg["completion"].mean)
        if baseline_cpu is None:
            baseline_cpu = agg["cpu_s"].mean
        x = float(k)
        series["completed rate"][0].append(x)
        series["completed rate"][1].append(agg["completed"].mean)
        series["cpu efficiency (rel)"][0].append(x)
        series["cpu efficiency (rel)"][1].append(
            baseline_cpu / agg["cpu_s"].mean if agg["cpu_s"].mean else 1.0
        )
    chart = ascii_chart(
        series, title="Co-allocation trade-off", x_label="policy index", y_label="value"
    )
    return table, chart


def localsearch_study(
    loads: Sequence[float] = (4.0, 8.0, 16.0),
    n_requests: int = 120,
    iterations: int = 150,
    seeds: Sequence[int] = (0, 1),
) -> tuple[Table, str]:
    """Offline order-space search vs one-pass rigid heuristics."""
    table = Table(
        ["load", "fcfs", "minbw", "cumulated", "localsearch"],
        title=f"Local search over admission orders ({iterations} moves)",
    )
    series: dict[str, tuple[list[float], list[float]]] = {
        name: ([], []) for name in ("cumulated", "localsearch")
    }
    for load in loads:
        def run(seed: int) -> dict[str, float]:
            prob = paper_rigid_workload(load, n_requests, seed=seed)
            return {
                "fcfs": FCFSRigid().schedule(prob).accept_rate,
                "minbw": minbw_slots().schedule(prob).accept_rate,
                "cumulated": cumulated_slots().schedule(prob).accept_rate,
                "localsearch": LocalSearchScheduler(
                    iterations=iterations, restarts=3, seed=seed
                ).schedule(prob).accept_rate,
            }

        agg = replicate(run, seeds)
        table.add_row(
            load, agg["fcfs"].mean, agg["minbw"].mean, agg["cumulated"].mean, agg["localsearch"].mean
        )
        for name in series:
            series[name][0].append(load)
            series[name][1].append(agg[name].mean)
    chart = ascii_chart(series, title="Local search", x_label="load", y_label="accept rate")
    return table, chart
