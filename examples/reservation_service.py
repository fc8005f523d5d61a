#!/usr/bin/env python3
"""Driving the reservation service like a grid middleware would (§5.4).

The default :class:`~repro.gateway.Gateway` (one shard, batch size 1) is
the client-facing API: submit a transfer, get back a confirmed window +
rate (or a rejection) immediately; cancel later and the unused bandwidth
returns to the pool.  This example walks a small
scenario on the paper platform:

1. a physics VO books three large replications;
2. a fourth request doesn't fit before its deadline and is rejected;
3. one booking is cancelled — and the retry of the rejected transfer
   now succeeds on the freed capacity.

Run:  python examples/reservation_service.py
"""

from repro.core import Platform
from repro.gateway import Gateway
from repro.schedulers import FractionOfMaxPolicy
from repro.units import GB, HOUR, format_bandwidth, format_duration

service = Gateway(Platform.paper_platform(), policy=FractionOfMaxPolicy(1.0))


def show(label, reservation, now):
    if reservation.confirmed:
        a = reservation.allocation
        print(
            f"  {label}: CONFIRMED  σ={format_duration(a.sigma)} "
            f"τ={format_duration(a.tau)} at {format_bandwidth(a.bw)} "
            f"[{reservation.state(now).value}]"
        )
    else:
        print(f"  {label}: REJECTED")


print("t=0h: the VO books three 3.6 TB replications, all into storage site 4")
bookings = []
for k in range(3):
    r = service.submit(
        ingress=k, egress=4, volume=3600 * GB, deadline=2 * HOUR, now=0.0
    )
    bookings.append(r)
    show(f"replication {k}", r, 0.0)

print("\nt=0.1h: an urgent 1.5 TB transfer, same destination, 1.5h deadline")
urgent = service.submit(
    ingress=5, egress=4, volume=1500 * GB, deadline=1.5 * HOUR, now=0.1 * HOUR
)
show("urgent", urgent, 0.1 * HOUR)

print("\nt=0.2h: replication 1 is cancelled (its dataset was superseded)")
service.cancel(bookings[1].rid, now=0.2 * HOUR)
print(f"  replication 1 -> {bookings[1].state(0.2 * HOUR).value}")

print("\nt=0.21h: the urgent transfer retries")
retry = service.submit(
    ingress=5, egress=4, volume=1500 * GB, deadline=1.5 * HOUR, now=0.21 * HOUR
)
show("urgent retry", retry, 0.21 * HOUR)

ins, outs = service.port_usage(0.5 * HOUR)
print(f"\nt=0.5h: storage site 4 egress load {outs[4]:.0f}/1000 MB/s; "
      f"accept rate so far {service.accept_rate():.0%}")
print("\nEvery confirmed window is a hard reservation: the client knows its")
print("finish time the moment it books — the predictability goal of the paper.")
