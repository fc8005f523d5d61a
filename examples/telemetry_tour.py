#!/usr/bin/env python3
"""A tour of the observability layer (``repro.obs``).

The control plane is instrumented end to end: the booking search, the
:class:`~repro.gateway.Gateway` (the reservation service), the schedulers
and the simulation engine all report decisions through a process-wide
telemetry handle.  By default that handle is a no-op — this example turns it on,
drives a small reservation workload through faults, and shows every
surface:

1. metrics (labeled counters / gauges) with Prometheus text exposition;
2. spans keyed to the *simulation* clock, exported as a Chrome trace;
3. structured decision events (one per admission decision);
4. the byte-stable run artifact consumed by ``grid-obs``
   (``python -m repro.obs summary <artifact>``).

Run:  python examples/telemetry_tour.py
"""

import json
from pathlib import Path

import numpy as np

from repro.core import Platform
from repro.gateway import Gateway
from repro.obs import RunTelemetry, Telemetry, summarize, use_telemetry, validate_chrome_trace

platform = Platform.paper_platform()
rng = np.random.default_rng(42)

telemetry = Telemetry()
with use_telemetry(telemetry):
    service = Gateway(platform)
    rids = []
    for k in range(120):
        now = float(k * 40)
        window = float(rng.uniform(1200, 7200))
        bottleneck = platform.bottleneck(int(rng.integers(10)), int(rng.integers(10)))
        reservation = service.submit(
            ingress=int(rng.integers(10)),
            egress=int(rng.integers(10)),
            volume=float(rng.uniform(0.2, 0.95)) * bottleneck * window,
            deadline=now + window,
            now=now,
        )
        if reservation.confirmed:
            rids.append(reservation.rid)
    # A couple of faults, so the fault counters light up too.
    service.cancel(rids[3], now=4900.0)
    service.abort(rids[7], now=5000.0)
    service.degrade(side="ingress", port=2, amount=300.0, start=5200.0, end=8000.0, now=5100.0)

# --- 1. metrics ------------------------------------------------------
print("=" * 70)
print("Prometheus text exposition (truncated):")
print("\n".join(telemetry.metrics.to_prometheus_text().splitlines()[:18]))

# --- 2. spans --------------------------------------------------------
trace = telemetry.tracer.to_chrome_trace()
validate_chrome_trace(trace)
out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)
trace_path = out_dir / "telemetry_trace.json"
trace_path.write_text(json.dumps(trace, indent=2, sort_keys=True))
print("=" * 70)
print(f"Chrome trace with {len(trace['traceEvents'])} events -> {trace_path}")
print("(open in chrome://tracing or https://ui.perfetto.dev)")

# --- 3. decision events ----------------------------------------------
rejected = [e for e in telemetry.events if e.fields.get("outcome") == "rejected"]
print("=" * 70)
print(f"{len(telemetry.events)} structured events; first rejection:")
if rejected:
    print(json.dumps(rejected[0].to_dict(), indent=2, sort_keys=True))

# --- 4. the run artifact + summary ------------------------------------
artifact = RunTelemetry("telemetry-tour", meta={"seed": 42, "requests": 120})
artifact.capture("run", telemetry, results={"accept_rate": service.accept_rate()})
artifact_path = out_dir / "telemetry_tour.json"
artifact.save(artifact_path)
print("=" * 70)
print(f"run artifact -> {artifact_path}  (inspect with: grid-obs summary {artifact_path})")
print("=" * 70)
print(summarize(artifact).render())
