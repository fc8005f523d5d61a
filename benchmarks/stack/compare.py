"""Compare two ``BENCH_stack.json`` files row by row.

    python3 benchmarks/stack/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, both spreads (the
min-max of each side's whole-window repeats), the ratio B/A with its base,
and a verdict from the metric's bound in ``BENCHMARK.json``:

- ``regressed``  B is worse than A by more than the bound;
- ``improved``   B is better than A by more than the bound;
- ``unchanged``  within the bound, and both spreads are within it too;
- ``unresolved`` the two spreads overlap and one of them is wider than the
                 bound, so the runs cannot tell a change of that size from
                 the host's noise — run again, do not read it as "unchanged".

Exit code 1 on any ``regressed`` row or a higher ``fail_ratio``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """The verdict on one metric: ``a`` is the base, ``b`` the candidate."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["value"]) or 1.0
    worse_by = sign * (b["value"] - a["value"]) / base
    a_low, a_high = min(a["repeats"]), max(a["repeats"])
    b_low, b_high = min(b["repeats"]), max(b["repeats"])
    overlap = a_low <= b_high and b_low <= a_high
    if overlap and max(a_high - a_low, b_high - b_low) / base > bound:
        return "unresolved"
    if worse_by < -bound:
        return "improved"
    return "regressed" if worse_by > bound else "unchanged"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Rendered rows plus whether B may not replace A."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    lines = [
        f"{'workload':<17} {'metric':<14} {'A':>11} {'A min..max':>23} {'B':>11} "
        f"{'B min..max':>23} {'B/A':>7}  verdict"
    ]
    failed = b["fail_ratio"] > a["fail_ratio"]
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload, {}).get("end_to_end")
        if other is None or "end_to_end" not in entry:
            continue
        for name, (better, bound) in bounds.items():
            left, right = entry["end_to_end"][name], other[name]
            word = verdict(left, right, better, bound)
            failed = failed or word == "regressed"
            ratio = right["value"] / left["value"] if left["value"] else float("nan")
            lines.append(
                f"{workload:<17} {name:<14} {left['value']:>11.4f} "
                f"{min(left['repeats']):>11.4f}..{max(left['repeats']):<10.4f} "
                f"{right['value']:>11.4f} "
                f"{min(right['repeats']):>11.4f}..{max(right['repeats']):<10.4f} "
                f"{ratio:>6.3f}x  {word} (bound {bound:.2f} of A)"
            )
    lines.append(
        f"fail_ratio  A {a['fail_ratio']:.6f}  B {b['fail_ratio']:.6f}"
        + ("  HIGHER" if b["fail_ratio"] > a["fail_ratio"] else "")
    )
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, failed = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
