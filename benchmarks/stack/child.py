"""Helpers shared by the two child launchers (``server.py``, ``direct.py``).

Importing this module puts the checkout's ``src/`` first on ``sys.path``:
the children always run the program built from this checkout, never an
installed copy.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"stack benchmark: no program to measure at {SRC}/repro")
sys.path.insert(0, str(SRC))


#: Seconds between reference bursts while a child is being measured
#: (a burst is ~0.5 ms: about 4 % of one core).
TICK_S = 0.0125

_SORTED = list(range(0, 3000, 3))


class Reference:
    """A fixed piece of interpreter-bound work: the host-speed reference.

    The box the benchmark runs on changes CPU speed under it (the same
    burst reads 0.46 ms or 0.77 ms, for milliseconds or for minutes), so
    the children run this burst every ``TICK_S`` beside the program and
    report how long it took.  ``run.py`` scales every CPU-bound time by
    ``REFERENCE_NS / mean burst`` of the same window, which is what makes
    two runs of one commit agree.  The burst never changes: it is the
    unit the numbers are expressed in.
    """

    def __init__(self) -> None:
        self.bursts = 0
        self.wall_ns = 0
        self.cpu_ns = 0

    def burst(self) -> None:
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        total = 0
        table = {}
        for i in range(2500):
            total += i * i % 7
            table[i & 127] = total
        json.loads(json.dumps({"row": _SORTED[:120], "table": table}))
        for i in range(600):
            bisect.bisect(_SORTED, i * 5)
        self.bursts += 1
        self.wall_ns += time.perf_counter_ns() - wall
        self.cpu_ns += time.process_time_ns() - cpu

    def block(self, count: int = 16) -> float:
        """Back-to-back bursts where nothing ticks (start-up); their mean ns."""
        before = self.wall_ns
        for _ in range(count):
            self.burst()
        return (self.wall_ns - before) / count

    def totals(self) -> dict[str, int]:
        return {"bursts": self.bursts, "wall_ns": self.wall_ns, "cpu_ns": self.cpu_ns}


def say(**fields: Any) -> None:
    """One protocol line to the parent."""
    print(json.dumps(fields, separators=(",", ":")), flush=True)


def snapshot_digest(snapshot: dict[str, Any]) -> str:
    blob = json.dumps(snapshot, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def gateway_counters(gateway: Any, journal: Any) -> dict[str, float]:
    """The program's own counts, read where the timed window starts/ends."""
    stats = gateway.stats
    segments = 0
    for side, count in (
        ("ingress", gateway.platform.num_ingress),
        ("egress", gateway.platform.num_egress),
    ):
        for port in range(count):
            timeline = gateway.coordinator.broker_for(side, port).timeline(side, port)
            segments = max(segments, timeline.num_segments)
    return {
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "batches": stats.batches,
        "fastpath_hits": stats.fastpath_hits,
        "cross_shard": stats.cross_shard,
        "journal_entries": len(journal),
        "journal_bytes": journal.path.stat().st_size,
        "segments_max": segments,
    }
