#!/usr/bin/env python3
"""One-shot reproduction driver: every figure + the §5.3 claims.

Runs a scaled-down version of every registered experiment (full sizes live
in EXPERIMENTS.md and take a few minutes via ``grid-bandwidth report --out
results``) and prints each table, ending with the claims checklist.

Run:  python examples/reproduce_paper.py          (~1 minute)
"""

import time

from repro.experiments import FIGURES

# Scaled-down parameterisations: enough to show every ordering.
SIZES = {
    "fig4": dict(loads=(1.0, 4.0, 16.0), n_requests=400, seeds=(0, 1)),
    "fig5": dict(gaps=(0.1, 1.0, 5.0), t_steps=(100.0, 400.0), n_requests=600, seeds=(0, 1)),
    "fig6": dict(gaps_heavy=(0.2, 1.0), gaps_light=(5.0, 20.0), n_requests=600, seeds=(0, 1)),
    "fig7": dict(gaps_heavy=(0.2, 1.0), gaps_light=(5.0, 20.0), n_requests=600, seeds=(0, 1)),
    "tuning": dict(fs=(0.2, 0.5, 0.8, 1.0), n_requests=600, seeds=(0, 1)),
    "tcp": dict(gaps=(0.5, 10.0), n_requests=250, seeds=(0,)),
    "extensions": dict(gaps=(0.5, 10.0), n_requests=400, seeds=(0,)),
    "coallocation": dict(fs=("min-bw", 0.5, 1.0), n_jobs=250, seeds=(0,)),
    "rtt-unfairness": dict(),
    "claims": dict(n_requests=600, seeds=(0, 1)),
}

total_start = time.time()
for name, kwargs in SIZES.items():
    start = time.time()
    table, _ = FIGURES[name](**kwargs)
    print(table.to_text())
    print(f"[{name}: {time.time() - start:.1f}s]\n")

print(f"total: {time.time() - total_start:.0f}s — see EXPERIMENTS.md for the "
      "full-size record and the paper-vs-measured discussion.")
