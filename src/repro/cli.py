"""Command-line interface: regenerate any experiment from the terminal.

Examples::

    grid-bandwidth list
    grid-bandwidth run fig5 --requests 800 --seeds 0 1
    grid-bandwidth run fig4 --csv fig4.csv
    grid-bandwidth schedule --scheduler window --t-step 400 --gap 2 --requests 500
    grid-bandwidth claims
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core import ReproError, verify_schedule
from .experiments import FIGURES
from .metrics import evaluate
from .schedulers import RIGID_SCHEDULERS, available_schedulers, make_scheduler
from .workload import paper_flexible_workload, paper_rigid_workload

__all__ = ["main", "build_parser"]

#: The schedulers that take the flexible workloads of ``gantt`` and ``compare``.
_FLEXIBLE_SCHEDULERS = [name for name in available_schedulers() if name not in RIGID_SCHEDULERS]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="grid-bandwidth",
        description="Reproduction of 'Optimal Bandwidth Sharing in Grid Environments' (HPDC 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and schedulers")

    run = sub.add_parser("run", help="regenerate a paper figure / experiment")
    run.add_argument("experiment", choices=sorted(FIGURES))
    run.add_argument("--requests", type=int, default=None, help="workload size per run")
    run.add_argument("--seeds", type=int, nargs="+", default=None, help="replication seeds")
    run.add_argument("--csv", type=str, default=None, help="also write the table as CSV")
    run.add_argument("--no-chart", action="store_true", help="suppress the ASCII chart")

    claims = sub.add_parser("claims", help="check the §5.3 in-text claims")
    claims.add_argument("--requests", type=int, default=1000)
    claims.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])

    schedule = sub.add_parser("schedule", help="run one scheduler on a paper workload")
    schedule.add_argument("--scheduler", choices=available_schedulers(), default="window")
    schedule.add_argument("--policy", type=str, default=None, help="'min-bw', 'f=0.8' or an f value")
    schedule.add_argument("--t-step", type=float, default=400.0)
    schedule.add_argument("--gap", type=float, default=2.0, help="mean inter-arrival (flexible)")
    schedule.add_argument("--load", type=float, default=4.0, help="target load (rigid)")
    schedule.add_argument("--requests", type=int, default=500)
    schedule.add_argument("--seed", type=int, default=0)

    gantt = sub.add_parser("gantt", help="render a schedule as an ASCII Gantt chart")
    gantt.add_argument("--scheduler", choices=_FLEXIBLE_SCHEDULERS, default="window")
    gantt.add_argument("--gap", type=float, default=5.0)
    gantt.add_argument("--requests", type=int, default=25)
    gantt.add_argument("--seed", type=int, default=0)
    gantt.add_argument("--rows", type=int, default=25)
    gantt.add_argument("--occupancy", action="store_true", help="also show port occupancy strips")

    plan = sub.add_parser("plan", help="capacity needed for a target accept rate")
    plan.add_argument("--target", type=float, default=0.9)
    plan.add_argument("--gap", type=float, default=2.0)
    plan.add_argument("--requests", type=int, default=300)
    plan.add_argument("--seeds", type=int, nargs="+", default=[0, 1])

    report = sub.add_parser("report", help="regenerate every experiment's artefacts")
    report.add_argument("--out", type=str, default="results")
    report.add_argument("--only", type=str, nargs="+", default=None)

    compare = sub.add_parser("compare", help="statistically compare two schedulers")
    compare.add_argument("a", choices=_FLEXIBLE_SCHEDULERS)
    compare.add_argument("b", choices=_FLEXIBLE_SCHEDULERS)
    compare.add_argument("--gap", type=float, default=0.5)
    compare.add_argument("--requests", type=int, default=400)
    compare.add_argument("--seeds", type=int, nargs="+", default=list(range(5)))
    return parser


def _cmd_list() -> int:
    print("experiments:")
    for name, fn in sorted(FIGURES.items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:16s} {doc}")
    print("schedulers:")
    for name in available_schedulers():
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    fn = FIGURES[args.experiment]
    kwargs = {}
    if args.requests is not None:
        kwargs["n_requests"] = args.requests
    if args.seeds is not None:
        kwargs["seeds"] = tuple(args.seeds)
    table, chart = fn(**kwargs)
    print(table.to_text())
    if chart and not args.no_chart:
        print()
        print(chart)
    if args.csv:
        table.save_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    table, _ = FIGURES["claims"](n_requests=args.requests, seeds=tuple(args.seeds))
    print(table.to_text())
    return 0 if all(row[-1] == "yes" for row in table.rows) else 1


def _cmd_schedule(args: argparse.Namespace) -> int:
    # A rigid scheduler refuses --policy as an unused option.
    options = {} if args.policy is None else {"policy": args.policy}
    if args.scheduler == "window":
        options["t_step"] = args.t_step
    scheduler = make_scheduler(args.scheduler, **options)

    if args.scheduler in RIGID_SCHEDULERS:
        problem = paper_rigid_workload(args.load, args.requests, seed=args.seed)
    else:
        problem = paper_flexible_workload(args.gap, args.requests, seed=args.seed)
    result = scheduler.schedule(problem)
    verify_schedule(problem.platform, problem.requests, result)
    report = evaluate(problem, result)
    print(f"scheduler:            {result.scheduler}")
    print(f"requests:             {report.num_requests}")
    print(f"accept rate:          {report.accept_rate:.2%}")
    print(f"utilisation (time-averaged): {report.utilization_time_averaged:.2%}")
    for f, rate in sorted(report.guaranteed.items()):
        print(f"guaranteed(f={f:g}):    {rate:.2%}")
    print(f"mean wait:            {report.mean_wait:.1f}s")
    print(f"mean granted/MaxRate: {report.mean_granted_over_max:.2f}")
    print("schedule verified against Eq. 1")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .experiments import occupancy_strip, schedule_gantt

    scheduler = make_scheduler(args.scheduler, **({"t_step": 200.0} if args.scheduler == "window" else {}))
    problem = paper_flexible_workload(args.gap, args.requests, seed=args.seed)
    result = scheduler.schedule(problem)
    print(schedule_gantt(problem, result, max_rows=args.rows))
    if args.occupancy:
        print()
        print(occupancy_strip(problem, result, side="ingress"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import Platform
    from .experiments import capacity_for_accept_rate
    from .schedulers import GreedyFlexible
    from .workload import FlexibleWorkload, PoissonArrivals

    base = Platform.paper_platform()

    def make_problem(platform, seed):
        workload = FlexibleWorkload(platform, PoissonArrivals(args.gap))
        return workload.generate(args.requests, np.random.default_rng(seed))

    try:
        result = capacity_for_accept_rate(
            base,
            make_problem,
            GreedyFlexible(),
            target=args.target,
            seeds=tuple(args.seeds),
        )
    except ValueError as exc:
        print(f"planning failed: {exc}")
        return 1
    print(f"target accept rate: {args.target:.0%} at mean inter-arrival {args.gap:g}s")
    print(f"capacity scale:     x{result.scale:.2f} over the 10x10 @ 1 GB/s baseline")
    print(f"achieved:           {result.accept_rate:.1%} ({result.evaluations} evaluations)")
    print(f"per-port capacity:  {result.platform.bin(0):.0f} MB/s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments import compare_schedulers

    try:
        comparison = compare_schedulers(
            lambda seed: paper_flexible_workload(args.gap, args.requests, seed=seed),
            make_scheduler(args.a),
            make_scheduler(args.b),
            seeds=tuple(args.seeds),
        )
    except ValueError as exc:
        print(f"comparison failed: {exc}")
        return 1
    print(f"{comparison.name_a}: accept {comparison.mean_a:.3f}")
    print(f"{comparison.name_b}: accept {comparison.mean_b:.3f}")
    lo, hi = comparison.diff_ci
    print(f"paired difference: {comparison.mean_diff:+.3f}  (95% CI [{lo:+.3f}, {hi:+.3f}])")
    print(f"p-value: {comparison.p_value:.4f}")
    if comparison.winner:
        print(f"significant winner: {comparison.winner}")
    else:
        print("no significant difference at 5%")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code: 2, with the message
    on stderr, when the library refuses the options (a :class:`ReproError`)."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"grid-bandwidth: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "claims":
        return _cmd_claims(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "gantt":
        return _cmd_gantt(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "report":
        from .experiments import generate_all

        try:
            timings = generate_all(args.out, only=args.only, progress=print)
        except KeyError as exc:
            print(exc)
            return 1
        print(f"wrote {len(timings)} experiments to {args.out}/")
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
