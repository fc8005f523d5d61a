"""``grid-serve`` — run the admission service as a long-lived process.

Boots a :class:`~repro.serve.app.ServeApp` on a uniform or paper
platform, installs SIGTERM/SIGINT handlers for graceful drain (decide
in-flight waves, persist the journal, close sockets), and blocks until
drained.  A journal path makes the process restartable: re-running with
the same ``--journal`` replays the recorded operations and resumes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

from ..core.errors import ConfigurationError
from ..core.platform import Platform
from ..gateway import EdgeLimit
from .app import ServeApp, ServeConfig
from .security import ApiKeyring

__all__ = ["build_app", "main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-serve",
        description="Long-running HTTP admission service over the sharded gateway.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--ports", type=int, default=16, help="ingress/egress port count (uniform platform)"
    )
    parser.add_argument(
        "--capacity", type=float, default=1000.0, help="per-port capacity (MB/s)"
    )
    parser.add_argument(
        "--paper-platform",
        action="store_true",
        help="use the paper's 10x10 heterogeneous platform instead of --ports/--capacity",
    )
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--ordering", default="fifo", choices=["fifo", "min-laxity", "max-value"])
    parser.add_argument("--backlog-limit", type=int, default=0)
    parser.add_argument(
        "--malleable",
        action="store_true",
        help="enable stepwise-profile admission: shaped fallback and reshape recovery",
    )
    parser.add_argument(
        "--journal", type=Path, default=None, help="write-ahead journal path (restartable)"
    )
    parser.add_argument(
        "--keys",
        type=Path,
        default=None,
        help='JSON file mapping API key -> client id; omit for open access',
    )
    parser.add_argument(
        "--gen-keys",
        type=int,
        default=0,
        metavar="N",
        help="generate N deterministic client keys instead of --keys (bench mode)",
    )
    parser.add_argument(
        "--quota-rate", type=float, default=None, help="per-client sustained requests/s"
    )
    parser.add_argument(
        "--quota-burst", type=float, default=None, help="per-client request burst"
    )
    parser.add_argument(
        "--edge-rate", type=float, default=None, help="per-client sustained volume MB/s"
    )
    parser.add_argument(
        "--edge-burst", type=float, default=None, help="per-client volume burst MB"
    )
    parser.add_argument("--max-wave", type=int, default=64)
    parser.add_argument(
        "--no-slo", action="store_true", help="disable the SLO watchdog entirely"
    )
    return parser


def build_app(args: argparse.Namespace) -> ServeApp:
    """Translate parsed CLI arguments into a configured app."""
    platform = (
        Platform.paper_platform()
        if args.paper_platform
        else Platform.uniform(args.ports, args.ports, args.capacity)
    )
    keys: dict[str, str] = {}
    if args.keys is not None:
        keys = {str(k): str(v) for k, v in json.loads(args.keys.read_text()).items()}
    elif args.gen_keys:
        keys = ApiKeyring.generate(args.gen_keys).keys()
    quota = None
    if args.quota_rate is not None or args.quota_burst is not None:
        quota = EdgeLimit(
            rate=args.quota_rate if args.quota_rate is not None else 50.0,
            burst=args.quota_burst if args.quota_burst is not None else 100.0,
        )
    edge = None
    if args.edge_rate is not None or args.edge_burst is not None:
        edge = EdgeLimit(
            rate=args.edge_rate if args.edge_rate is not None else 1000.0,
            burst=args.edge_burst if args.edge_burst is not None else 10_000.0,
        )
    config = ServeConfig(
        platform=platform,
        num_shards=args.shards,
        batch_size=args.batch_size,
        ordering=args.ordering,
        backlog_limit=args.backlog_limit,
        malleable=args.malleable,
        edge=edge,
        quota=quota,
        keys=keys,
        slo_rules=() if args.no_slo else None,
        journal_path=args.journal,
        max_wave=args.max_wave,
    )
    return ServeApp(config)


async def _run(app: ServeApp, host: str, port: int) -> None:
    bound_host, bound_port = await app.start(host, port)
    drained = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _begin_drain() -> None:
        if not app.draining:
            print("grid-serve draining (SIGTERM/SIGINT)...", flush=True)
            task = loop.create_task(app.drain())
            task.add_done_callback(lambda _: drained.set())

    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, _begin_drain)
    # Only now: a SIGTERM sent on reading this line drains.
    print(f"grid-serve listening on http://{bound_host}:{bound_port}", flush=True)
    await drained.wait()
    decided = app.gateway.stats.accepted + app.gateway.stats.rejected
    print(
        f"grid-serve drained: {app.gateway.stats.submits} submits, "
        f"{decided} decided, journal entries: {len(app.journal)}",
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        app = build_app(args)
    except ConfigurationError as exc:
        print(f"grid-serve: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(_run(app, args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C before loop start
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
