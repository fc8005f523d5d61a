#!/usr/bin/env python3
"""Surviving failures: aborts, a port outage, and a service crash (§6).

The paper motivates reservations with reliability — "a large amount of
resources could be wasted when long transfer failure occurs".  This
example runs the fault-tolerant control plane end to end:

1. a day of grid traffic is submitted to the reservation service (the
   default gateway), with a journal recording every operation;
2. mid-flight aborts waste the carried volume but return each tail to
   the ledger for later submissions;
3. a storage site loses its egress port for two hours — the service
   displaces what no longer fits and rebooks the residual volumes with
   exponential backoff;
4. the service "crashes"; replaying the journal rebuilds the exact
   ledger state, verified against the paper's Eq. 1;
5. the same drill at abort rates 0.05 / 0.15 / 0.30 prints the rows of
   EXPERIMENTS.md's fault table.

Run:  python examples/fault_tolerance.py
"""

import random

from repro.control import PortFault, run_fault_drill
from repro.core import Platform, Request, verify_schedule
from repro.gateway import Gateway, Journal
from repro.metrics import FaultStats
from repro.schedulers import BackoffSchedule
from repro.units import GB, HOUR, format_volume

platform = Platform.paper_platform()
rng = random.Random(42)

requests = []
for rid in range(200):
    t0 = rng.uniform(0.0, 20 * HOUR)
    requests.append(
        Request(
            rid=rid,
            ingress=rng.randrange(platform.num_ingress),
            egress=rng.randrange(platform.num_egress),
            volume=rng.uniform(100 * GB, 3000 * GB),
            t_start=t0,
            t_end=t0 + rng.uniform(2 * HOUR, 8 * HOUR),
            max_rate=500.0,
        )
    )

outage = PortFault.outage(
    "egress", port=4, capacity=platform.bout(4), start=6 * HOUR, end=8 * HOUR
)



def drill(abort_rate, journal=None):
    """The day of traffic, the outage and ``abort_rate`` through one gateway."""
    service = Gateway(platform, journal=journal)
    run_fault_drill(
        service,
        requests,
        abort_rate=abort_rate,
        faults=[outage],
        rebook=BackoffSchedule(base=300.0, multiplier=2.0, jitter=0.25),
        seed=7,
    )
    return service


print("Running a 24h fault drill on the paper platform:")
print(f"  {len(requests)} transfers, 5% abort rate, egress 4 dark 6h-8h\n")

journal = Journal()
service = drill(0.05, journal)
stats = FaultStats.of(service)

print("Damage report:")
print(f"  mid-flight aborts        : {stats.aborted}")
print(f"  volume wasted by aborts  : {format_volume(stats.wasted_volume)}")
print(f"  capacity freed (tails)   : {format_volume(stats.freed_volume)}")
print(f"  displaced by the outage  : {stats.displaced}")

print("\nRecovery report:")
print(f"  rebooking attempts       : {stats.rebook_attempts}")
print(f"  residuals rebooked       : {stats.rebooked} "
      f"({format_volume(stats.recovered_volume)})")
print(f"  mean time to rebook      : {stats.mean_time_to_rebook / HOUR:.2f} h")
print(f"  accept rate (recovered)  : {service.accept_rate():.2%}")

surviving, result = service.surviving_schedule()
verify_schedule(
    platform,
    surviving,
    result,
    enforce_window=False,
    degradations=service.degradations(),
)
print(f"\nEq. 1 verified under degraded capacity "
      f"(max overcommit {service.max_overcommit():.2e} MB/s)")

print(f"\nCrash! Replaying the {len(journal)}-entry journal ...")
rebuilt = Gateway.replay(journal)
identical = rebuilt.snapshot() == service.snapshot()
print(f"  rebuilt state identical  : {identical}")
assert identical

print("\nAbort-rate sweep (the rows of EXPERIMENTS.md's fault table):")
print("| abort rate | aborted | displaced | wasted  | rebooked     | recovered volume |")
print("|-----------:|--------:|----------:|--------:|-------------:|-----------------:|")
for rate in (0.05, 0.15, 0.30):
    row = stats if rate == 0.05 else FaultStats.of(drill(rate))
    print(
        f"| {rate:<10.2f} | {row.aborted:<7d} | {row.displaced:<9d} "
        f"| {format_volume(row.wasted_volume):<7s} "
        f"| {f'{row.rebooked}/{row.rebook_attempts} att.':<12s} "
        f"| {format_volume(row.recovered_volume):<16s} |"
    )
