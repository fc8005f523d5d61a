"""``grid-loadgen`` — drive a running service and write the artifact.

Targets an already-running ``grid-serve`` (see ``examples/serve_tour.py``
for an in-process harness).  The artifact is schema-validated before it
hits disk, and the summary line carries the headline numbers.  The exit
status is 1 when a request failed in transport or over HTTP, or when no
submission was answered; quota and edge refusals are answers and leave it 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from ..core.platform import Platform
from .runner import LoadgenConfig, run_load

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-loadgen",
        description="Closed-loop load harness for the grid-serve admission service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument(
        "--target", type=int, default=10_000, help="total submissions (0 = duration-bound)"
    )
    parser.add_argument(
        "--duration", type=float, default=0.0, help="wall-seconds budget (0 = target-bound)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", default="closed", choices=["closed", "paced"])
    parser.add_argument("--shape", default="poisson", choices=["poisson", "uniform", "sinusoid"])
    parser.add_argument("--mean-interarrival", type=float, default=1.0)
    parser.add_argument(
        "--ports", type=int, default=16, help="service platform's port count (plan shaping)"
    )
    parser.add_argument(
        "--capacity", type=float, default=1000.0, help="service platform's per-port capacity"
    )
    parser.add_argument("--paper-platform", action="store_true")
    parser.add_argument("--status-every", type=int, default=0)
    parser.add_argument("--cancel-every", type=int, default=0)
    parser.add_argument(
        "--keys",
        type=Path,
        default=None,
        help="JSON file mapping API key -> client id (keys are dealt to clients)",
    )
    parser.add_argument("--out", type=Path, default=None, help="artifact path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    platform = (
        Platform.paper_platform()
        if args.paper_platform
        else Platform.uniform(args.ports, args.ports, args.capacity)
    )
    api_keys: list[str] = []
    if args.keys is not None:
        api_keys = sorted(json.loads(args.keys.read_text()))
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        clients=args.clients,
        batch=args.batch,
        target_submissions=args.target,
        duration_s=args.duration,
        seed=args.seed,
        mode=args.mode,
        shape=args.shape,
        mean_interarrival=args.mean_interarrival,
        status_every=args.status_every,
        cancel_every=args.cancel_every,
        api_keys=api_keys,
    )
    report = asyncio.run(run_load(config, platform=platform))
    doc = report.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    else:
        print(text)
    latency = doc["latency"]
    print(
        f"loadgen: {doc['submits']} submits in {doc['wall_seconds']:.2f}s "
        f"({doc['submits_per_second']:.0f}/s), accept {doc['accept_rate']:.3f}, "
        f"p50 {latency['p50'] * 1e3:.2f}ms p99 {latency['p99'] * 1e3:.2f}ms "
        f"p999 {latency['p999'] * 1e3:.2f}ms",
        file=sys.stderr,
    )
    failed = doc["transport_errors"] + doc["http_errors"]
    if failed or not doc["submits"]:
        reason = f"{failed} request(s) failed" if failed else "no submission was answered"
        print(f"grid-loadgen: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
