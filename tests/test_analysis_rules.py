"""Fixture-driven tests for the per-module gridlint rules (GL001–GL010,
GL015; the flow-sensitive GL011–GL014 live in test_analysis_dataflow.py).

Each rule gets (at least) one fixture proving it fires and one proving
inline suppression silences it; the end-to-end test plants a violation of
every rule in one temp package and checks the CLI gates on all of them.
"""

import textwrap

from repro.analysis import all_rules, run_analysis
from repro.analysis.cli import main
from repro.analysis.rules import rules_by_id
from repro.analysis.rules.float_eq import is_quantity_name


def _scan(tmp_path, source, *, rules=None, filename="mod.py"):
    (tmp_path / filename).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / filename).write_text(textwrap.dedent(source))
    return run_analysis([tmp_path], rules if rules is not None else all_rules())


def _active(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


def _suppressed(report, rule_id):
    return [f for f in report.suppressed if f.rule == rule_id]


class TestGL001WallClock:
    def test_fires_on_time_time(self, tmp_path):
        report = _scan(tmp_path, "import time\n\ndef f():\n    return time.time()\n")
        assert len(_active(report, "GL001")) == 1

    def test_fires_on_from_import_and_datetime(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            from time import perf_counter as pc
            from datetime import datetime

            def f():
                return pc(), datetime.now()
            """,
        )
        assert len(_active(report, "GL001")) == 2

    def test_simulated_time_argument_is_fine(self, tmp_path):
        report = _scan(tmp_path, "def f(now):\n    return now + 1.0\n")
        assert _active(report, "GL001") == []

    def test_allowlisted_in_report_gen_and_benchmarks(self, tmp_path):
        source = "import time\n\ndef f():\n    return time.time()\n"
        report = _scan(tmp_path, source, filename="experiments/report_gen.py")
        assert _active(report, "GL001") == []
        report = _scan(tmp_path, source, filename="benchmarks/bench_x.py")
        assert _active(report, "GL001") == []

    def test_perfclock_allowlist_is_scoped_to_one_module(self, tmp_path):
        source = "import time\n\ndef now():\n    return time.perf_counter()\n"
        report = _scan(tmp_path / "a", source, filename="obs/perfclock.py")
        assert _active(report, "GL001") == []
        # The exemption covers exactly repro/obs/perfclock.py — its siblings
        # in the obs package still must not read the wall clock.
        report = _scan(tmp_path / "b", source, filename="obs/metrics.py")
        assert len(_active(report, "GL001")) == 1
        report = _scan(tmp_path / "c", source, filename="obs/tracer.py")
        assert len(_active(report, "GL001")) == 1

    def test_flight_recorder_joins_the_clock_allowlist(self, tmp_path):
        # Post-mortem dumps may stamp host metadata; the SLO watchdog (and
        # every other obs sibling) still must not read the wall clock.
        source = "import time\n\ndef dumped_at():\n    return time.time()\n"
        report = _scan(tmp_path / "a", source, filename="obs/recorder.py")
        assert _active(report, "GL001") == []
        report = _scan(tmp_path / "b", source, filename="obs/slo.py")
        assert len(_active(report, "GL001")) == 1

    def test_serve_clock_joins_the_allowlist_scoped(self, tmp_path):
        # The service's wall-clock seam (WallServiceClock) legitimately
        # reads the host clock; its serve/ siblings still may not.
        source = "import time\n\ndef origin():\n    return time.monotonic()\n"
        report = _scan(tmp_path / "a", source, filename="serve/clock.py")
        assert _active(report, "GL001") == []
        report = _scan(tmp_path / "b", source, filename="serve/app.py")
        assert len(_active(report, "GL001")) == 1
        report = _scan(tmp_path / "c", source, filename="serve/frontier.py")
        assert len(_active(report, "GL001")) == 1

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # gridlint: disable=GL001 -- wall time wanted\n",
        )
        assert _active(report, "GL001") == []
        assert len(_suppressed(report, "GL001")) == 1


class TestGL002UnseededRng:
    def test_fires_on_module_level_random(self, tmp_path):
        report = _scan(tmp_path, "import random\n\ndef f():\n    return random.uniform(0, 1)\n")
        assert len(_active(report, "GL002")) == 1

    def test_fires_on_np_random_alias(self, tmp_path):
        report = _scan(tmp_path, "import numpy as np\n\ndef f():\n    return np.random.normal()\n")
        assert len(_active(report, "GL002")) == 1

    def test_seeded_constructors_allowed(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            import random
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                r = random.Random(seed)
                return rng.integers(10), r.random()
            """,
        )
        assert _active(report, "GL002") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "import random\n\ndef f():\n"
            "    return random.random()  # gridlint: disable=GL002 -- nonce, not simulation\n",
        )
        assert _active(report, "GL002") == []
        assert len(_suppressed(report, "GL002")) == 1


class TestGL003FloatEq:
    def test_fires_on_quantity_vs_quantity(self, tmp_path):
        report = _scan(tmp_path, "def f(t_end, deadline):\n    return t_end == deadline\n")
        assert len(_active(report, "GL003")) == 1

    def test_fires_on_quantity_vs_float_literal(self, tmp_path):
        report = _scan(tmp_path, "def f(bw):\n    return bw != 1000.0\n")
        assert len(_active(report, "GL003")) == 1

    def test_fires_on_container_subscript(self, tmp_path):
        report = _scan(
            tmp_path,
            "class T:\n"
            "    def f(self, i, t1):\n"
            "        return self._times[i] == t1\n",
        )
        assert len(_active(report, "GL003")) == 1

    def test_int_literal_and_non_quantity_names_pass(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def f(count, mode, volume):
                a = count == 3
                b = mode == "rigid"
                c = volume is None
                return a, b, c
            """,
        )
        assert _active(report, "GL003") == []

    def test_ordering_comparisons_pass(self, tmp_path):
        report = _scan(tmp_path, "def f(t0, t1):\n    return t0 < t1 <= t1 + 5.0\n")
        assert _active(report, "GL003") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(t_end, deadline):\n"
            "    return t_end == deadline  # gridlint: disable=GL003 -- exact identity\n",
        )
        assert _active(report, "GL003") == []
        assert len(_suppressed(report, "GL003")) == 1

    def test_vocabulary(self):
        assert is_quantity_name("t_start")
        assert is_quantity_name("cancelled_at")
        assert is_quantity_name("_times")
        assert is_quantity_name("max_rate")
        assert not is_quantity_name("mode")
        assert not is_quantity_name("count")
        assert not is_quantity_name(None)


class TestGL004LedgerEncapsulation:
    def test_fires_on_foreign_ledger_write(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(ledger, tl):\n    ledger._ingress[0] = tl\n",
            filename="schedulers/hack.py",
        )
        assert len(_active(report, "GL004")) == 1

    def test_fires_on_foreign_port_profile_write(self, tmp_path):
        source = "def f(port, tl):\n    port.usage = tl\n    port.reductions = None\n"
        report = _scan(tmp_path / "hack", source, filename="gateway/twophase.py")
        assert len(_active(report, "GL004")) == 2
        report = _scan(tmp_path / "owner", source, filename="core/ledger.py")
        assert _active(report, "GL004") == []
        # A shard broker holds Ports but no longer writes their profiles.
        report = _scan(tmp_path / "broker", source, filename="gateway/broker.py")
        assert len(_active(report, "GL004")) == 2

    def test_fires_on_foreign_port_profile_mutation(self, tmp_path):
        source = (
            "def f(ledger, segs):\n"
            '    ledger.port("ingress", 0).usage.add(0.0, 1.0, 5.0)\n'
            '    ledger.port("egress", 1).reductions.add_batch(segs)\n'
        )
        for k, foreign in enumerate(("schedulers/hack.py", "gateway/broker.py")):
            report = _scan(tmp_path / str(k), source, filename=foreign)
            findings = _active(report, "GL004")
            assert len(findings) == 2
            assert "usage.add()" in findings[0].message
        report = _scan(tmp_path / "owner", source, filename="core/ledger.py")
        assert _active(report, "GL004") == []

    def test_fires_on_foreign_kernel_book(self, tmp_path):
        """``usage.book`` writes too, and tests only the undegraded capacity."""
        source = "def f(port):\n    port.usage.book(0.0, 1.0, 5.0, port.capacity)\n"
        report = _scan(tmp_path / "hack", source, filename="gateway/broker.py")
        assert len(_active(report, "GL004")) == 1
        report = _scan(tmp_path / "owner", source, filename="core/ledger.py")
        assert _active(report, "GL004") == []

    def test_port_profile_mutation_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(port):\n"
            "    port.usage.add(0.0, 1.0, 5.0)  # gridlint: disable=GL004 -- drill rigging\n",
            filename="schedulers/hack.py",
        )
        assert _active(report, "GL004") == []
        assert len(_suppressed(report, "GL004")) == 1

    def test_fires_on_reservation_stamp_write(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(reservation, now):\n    reservation.cancelled_at = now\n",
            filename="schedulers/hack.py",
        )
        assert len(_active(report, "GL004")) == 1

    def test_owning_modules_may_write(self, tmp_path):
        report = _scan(
            tmp_path,
            "class PortLedger:\n    def __init__(self):\n        self._ingress = []\n",
            filename="core/ledger.py",
        )
        assert _active(report, "GL004") == []
        stamp = "def terminate(reservation, now):\n    reservation.cancelled_at = now\n"
        report = _scan(tmp_path, stamp, filename="control/lifecycle.py")
        assert _active(report, "GL004") == []
        # The admission planes call the lifecycle core; neither stamps itself.
        for k, former_owner in enumerate(("control/service.py", "gateway/gateway.py")):
            report = _scan(tmp_path / str(k), stamp, filename=former_owner)
            assert len(_active(report, "GL004")) == 1

    def test_fires_on_foreign_profile_segment_write(self, tmp_path):
        report = _scan(
            tmp_path,
            "def widen(profile, segs):\n    profile._segments = segs\n",
            filename="schedulers/hack.py",
        )
        assert len(_active(report, "GL004")) == 1

    def test_core_owns_profile_segments(self, tmp_path):
        report = _scan(
            tmp_path,
            "class RateProfile:\n"
            "    def __init__(self, segments):\n"
            "        self._segments = tuple(segments)\n",
            filename="core/profile.py",
        )
        assert _active(report, "GL004") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(ledger, tl):\n"
            "    ledger._ingress[0] = tl  # gridlint: disable=GL004 -- test harness rewiring\n",
        )
        assert _active(report, "GL004") == []
        assert len(_suppressed(report, "GL004")) == 1


class TestGL005RegistryCompleteness:
    @staticmethod
    def _plant(tmp_path, *, registered: bool, suppress: bool = False):
        pkg = tmp_path / "schedulers"
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / "base.py").write_text("class Scheduler:\n    pass\n")
        suffix = "  # gridlint: disable=GL005 -- experimental, not user-facing" if suppress else ""
        (pkg / "extra.py").write_text(
            "from .base import Scheduler\n\n\n"
            f"class OrphanScheduler(Scheduler):{suffix}\n"
            "    pass\n"
        )
        body = "from .extra import OrphanScheduler\n_F = {'orphan': OrphanScheduler}\n" if registered else "_F = {}\n"
        (pkg / "registry.py").write_text(body)

    def test_fires_on_unregistered_subclass(self, tmp_path):
        self._plant(tmp_path, registered=False)
        report = run_analysis([tmp_path], all_rules())
        findings = _active(report, "GL005")
        assert len(findings) == 1
        assert "OrphanScheduler" in findings[0].message

    def test_registered_subclass_passes(self, tmp_path):
        self._plant(tmp_path, registered=True)
        report = run_analysis([tmp_path], all_rules())
        assert _active(report, "GL005") == []

    def test_base_class_itself_exempt(self, tmp_path):
        self._plant(tmp_path, registered=True)
        report = run_analysis([tmp_path], all_rules())
        assert all("Scheduler is not referenced" not in f.message for f in report.findings)

    def test_suppression_on_class_line(self, tmp_path):
        self._plant(tmp_path, registered=False, suppress=True)
        report = run_analysis([tmp_path], all_rules())
        assert _active(report, "GL005") == []
        assert len(_suppressed(report, "GL005")) == 1

    def test_real_registry_is_complete(self):
        """Every Scheduler subclass in the shipped tree is constructible by name."""
        from pathlib import Path

        src = Path(__file__).parent.parent / "src"
        rule = rules_by_id()["GL005"]
        report = run_analysis([src], [rule])
        assert report.findings == []


class TestGL006JournalSafety:
    def test_fires_on_mutation_after_append(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def record(journal, entry, now):
                journal.append("submit", now, entry=entry)
                entry["volume"] = 0.0
            """,
        )
        assert len(_active(report, "GL006")) == 1

    def test_fires_on_mutator_method(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def record(self, payload, now):
                self.journal.append("op", now, data=payload)
                payload.update(done=True)
            """,
        )
        assert len(_active(report, "GL006")) == 1

    def test_mutation_before_append_is_fine(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def record(journal, entry, now):
                entry["volume"] = 0.0
                journal.append("submit", now, entry=entry)
            """,
        )
        assert _active(report, "GL006") == []

    def test_rebinding_is_not_mutation(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def record(journal, entry, now):
                journal.append("submit", now, entry=entry)
                entry = {}
                return entry
            """,
        )
        assert _active(report, "GL006") == []

    def test_record_wrapper_is_tracked(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            class Service:
                def op(self, req, now):
                    self._record("op", now, rid=req.rid, req=req)
                    req.volume = 0.0
            """,
        )
        assert len(_active(report, "GL006")) == 1

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def record(journal, entry, now):
                journal.append("submit", now, entry=entry)
                entry["volume"] = 0.0  # gridlint: disable=GL006 -- entry was deep-copied by append
            """,
        )
        assert _active(report, "GL006") == []
        assert len(_suppressed(report, "GL006")) == 1


class TestGL007NoAssert:
    def test_fires_on_assert(self, tmp_path):
        report = _scan(tmp_path, "def f(x):\n    assert x is not None\n    return x\n")
        assert len(_active(report, "GL007")) == 1

    def test_allowlisted_under_tests(self, tmp_path):
        report = _scan(
            tmp_path,
            "def test_f():\n    assert 1 + 1 == 2\n",
            filename="tests/test_x.py",
        )
        assert _active(report, "GL007") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(x):\n"
            "    assert x is not None  # gridlint: disable=GL007 -- mypy narrowing only\n"
            "    return x\n",
        )
        assert _active(report, "GL007") == []
        assert len(_suppressed(report, "GL007")) == 1


class TestGL008ShardLedgerOwnership:
    def test_fires_on_foreign_owned_ledger_mutation(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(broker):\n"
            '    broker._ports["ingress", 0].usage.add(0.0, 1.0, 5.0)\n',
            filename="schedulers/hack.py",
        )
        assert len(_active(report, "GL008")) == 1

    def test_fires_on_hold_table_writes(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def f(broker, hold):
                broker._holds = {}
                broker._holds[hold.hold_id] = hold
                broker._holds.pop(hold.hold_id)
            """,
            filename="gateway/gateway.py",
        )
        assert len(_active(report, "GL008")) == 3

    def test_reads_and_unrelated_mutators_are_fine(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def f(broker, holds):
                n = len(broker._holds)
                holds.pop(0)
                broker.release("ingress", 0, 0.0, 1.0, 5.0)
                return n
            """,
            filename="gateway/gateway.py",
        )
        assert _active(report, "GL008") == []

    def test_owning_modules_may_mutate(self, tmp_path):
        source = (
            "class ShardBroker:\n"
            "    def book(self):\n"
            '        self._ports["ingress", 0].usage.add(0.0, 1.0, 5.0)\n'
            "        self._holds[0] = None\n"
        )
        for owner in ("gateway/broker.py", "gateway/twophase.py"):
            report = _scan(tmp_path / owner.replace("/", "_"), source, filename=owner)
            assert _active(report, "GL008") == []

    def test_allowlisted_under_tests(self, tmp_path):
        report = _scan(
            tmp_path,
            'def test_f(broker):\n    broker._ports["ingress", 0].usage.add(0.0, 1.0, 5.0)\n',
            filename="tests/test_x.py",
        )
        assert _active(report, "GL008") == []

    def test_fires_on_foreign_segment_mutators(self, tmp_path):
        # Batched steps, a degradation and dropping a port mutate the owned
        # slice just as surely as one add: same single-writer rule.
        report = _scan(
            tmp_path,
            """\
            def f(broker, segs):
                broker._ports["ingress", 0].usage.add_batch(segs)
                broker._ports["ingress", 0].degrade(0.0, 1.0, 5.0)
                broker._ports.pop(("ingress", 0))
            """,
            filename="schedulers/hack.py",
        )
        assert len(_active(report, "GL008")) == 3

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(broker):\n"
            '    broker._ports["ingress", 0].usage.add(0.0, 1.0, 5.0)'
            "  # gridlint: disable=GL008 -- drill rigging\n",
        )
        assert _active(report, "GL008") == []
        assert len(_suppressed(report, "GL008")) == 1


class TestGL009TimelineInternals:
    def test_fires_on_internal_array_write(self, tmp_path):
        report = _scan(
            tmp_path,
            "def poke(timeline, bw):\n    timeline._values[2] += bw\n",
            filename="schedulers/hack.py",
        )
        assert len(_active(report, "GL009")) == 1

    def test_fires_on_internal_array_read(self, tmp_path):
        report = _scan(
            tmp_path,
            "def peek(timeline):\n    return timeline._breakpoints[-1]\n",
            filename="gateway/hack.py",
        )
        assert len(_active(report, "GL009")) == 1

    def test_fires_on_direct_backend_construction(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            from repro.core.capacity import BreakpointProfile, VectorProfile

            def build():
                return BreakpointProfile(), VectorProfile()
            """,
            filename="control/hack.py",
        )
        assert len(_active(report, "GL009")) == 2

    def test_interface_calls_are_fine(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def use(profile, t0, t1, bw):
                profile.add(t0, t1, bw)
                return profile.max_usage(t0, t1), list(profile.segments(t0, t1))
            """,
            filename="schedulers/clean.py",
        )
        assert _active(report, "GL009") == []

    def test_kernel_package_owns_its_internals(self, tmp_path):
        source = """\
        class BreakpointProfile:
            def clear(self):
                self._breakpoints = [0.0]
                self._values = [0.0]
        """
        report = _scan(tmp_path, source, filename="core/capacity/breakpoint.py")
        assert _active(report, "GL009") == []

    def test_fires_on_rate_profile_segment_access(self, tmp_path):
        source = "def peek(profile):\n    return profile._segments[0]\n"
        report = _scan(tmp_path / "a", source, filename="gateway/hack.py")
        assert len(_active(report, "GL009")) == 1
        # ...while repro.core as a whole owns the segment tuple — not just
        # the capacity sub-package.
        report = _scan(tmp_path / "b", source, filename="core/profile.py")
        assert _active(report, "GL009") == []
        report = _scan(tmp_path / "c", source, filename="core/booking.py")
        assert _active(report, "GL009") == []

    def test_capacity_arrays_stay_capacity_owned(self, tmp_path):
        # The per-attribute ownership must not widen: core modules outside
        # core/capacity/ still may not touch the backend arrays.
        source = "def peek(timeline):\n    return timeline._values\n"
        report = _scan(tmp_path, source, filename="core/ledger.py")
        assert len(_active(report, "GL009")) == 1

    def test_allowlisted_under_tests_and_benchmarks(self, tmp_path):
        source = "def f(profile):\n    return profile._values\n"
        report = _scan(tmp_path, source, filename="tests/test_backend.py")
        assert _active(report, "GL009") == []
        report = _scan(tmp_path, source, filename="benchmarks/bench_cap.py")
        assert _active(report, "GL009") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def dbg(tl):\n"
            "    return tl._breakpoints"
            "  # gridlint: disable=GL009 -- repr drilling\n",
            filename="obs/dump.py",
        )
        assert _active(report, "GL009") == []
        assert len(_suppressed(report, "GL009")) == 1


class TestGL010ChannelBoundary:
    def test_fires_on_direct_protocol_calls(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def f(broker, hold):
                broker.prepare("ingress", 0, 0.0, 1.0, 5.0)
                broker.commit(hold.hold_id)
                broker.abort_hold(hold.hold_id)
                broker.book_pair(0, 0, 0.0, 1.0, 5.0)
            """,
            filename="gateway/gateway.py",
        )
        assert len(_active(report, "GL010")) == 4

    def test_fires_through_containers_and_attributes(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def f(self, gateway, shard, hold):
                self._brokers[shard].commit(hold.hold_id)
                gateway.brokers[shard].prepare("egress", 1, 0.0, 1.0, 2.0)
            """,
            filename="control/orchestrate.py",
        )
        assert len(_active(report, "GL010")) == 2

    def test_channel_calls_and_non_protocol_methods_are_fine(self, tmp_path):
        report = _scan(
            tmp_path,
            """\
            def f(channel, broker, journal, now):
                channel.prepare("ingress", 0, 0.0, 1.0, 5.0, rid=1, expires=9.0, now=now)
                channel.commit(3, now=now)
                broker.release("ingress", 0, 0.0, 1.0, 5.0)
                broker.expire_holds(now)
                journal.commit()
            """,
            filename="gateway/gateway.py",
        )
        assert _active(report, "GL010") == []

    def test_protocol_internals_may_call_directly(self, tmp_path):
        source = (
            "def f(broker, hold):\n"
            "    broker.prepare('ingress', 0, 0.0, 1.0, 5.0)\n"
            "    broker.commit(hold.hold_id)\n"
        )
        for owner in ("gateway/broker.py", "gateway/twophase.py", "gateway/rpc.py"):
            report = _scan(tmp_path / owner.replace("/", "_"), source, filename=owner)
            assert _active(report, "GL010") == []

    def test_allowlisted_under_tests_and_benchmarks(self, tmp_path):
        source = "def f(broker):\n    broker.book_pair(0, 0, 0.0, 1.0, 5.0)\n"
        report = _scan(tmp_path, source, filename="tests/test_broker.py")
        assert _active(report, "GL010") == []
        report = _scan(tmp_path, source, filename="benchmarks/bench_gw.py")
        assert _active(report, "GL010") == []

    def test_suppression(self, tmp_path):
        report = _scan(
            tmp_path,
            "def f(broker, hid):\n"
            "    broker.abort_hold(hid)"
            "  # gridlint: disable=GL010 -- janitor tooling\n",
            filename="obs/janitor.py",
        )
        assert _active(report, "GL010") == []
        assert len(_suppressed(report, "GL010")) == 1


class TestGL015RouteRegistry:
    @staticmethod
    def _plant(tmp_path, *, routed: bool, suppress: bool = False, routes: bool = True):
        endpoints = tmp_path / "serve" / "api" / "v1" / "endpoints"
        endpoints.mkdir(parents=True, exist_ok=True)
        suffix = (
            "  # gridlint: disable=GL015 -- internal debug hook" if suppress else ""
        )
        (endpoints / "things.py").write_text(
            f"async def handle_orphan(ctx, request):{suffix}\n"
            "    return None\n"
        )
        if routes:
            body = (
                "from .api.v1.endpoints.things import handle_orphan\n"
                "ROUTE_TABLE = [('GET', '/v1/things', handle_orphan)]\n"
                if routed
                else "ROUTE_TABLE = []\n"
            )
            (tmp_path / "serve" / "routes.py").write_text(body)

    def test_fires_on_unrouted_handler(self, tmp_path):
        self._plant(tmp_path, routed=False)
        report = run_analysis([tmp_path], all_rules())
        findings = _active(report, "GL015")
        assert len(findings) == 1
        assert "handle_orphan" in findings[0].message

    def test_routed_handler_passes(self, tmp_path):
        self._plant(tmp_path, routed=True)
        report = run_analysis([tmp_path], all_rules())
        assert _active(report, "GL015") == []

    def test_missing_route_table_flags_every_handler(self, tmp_path):
        self._plant(tmp_path, routed=False, routes=False)
        report = run_analysis([tmp_path], all_rules())
        findings = _active(report, "GL015")
        assert len(findings) == 1
        assert "routes.py is missing" in findings[0].message

    def test_helpers_outside_api_tree_ignored(self, tmp_path):
        (tmp_path / "serve").mkdir(parents=True, exist_ok=True)
        (tmp_path / "serve" / "helpers.py").write_text(
            "async def handle_internal(x):\n    return x\n"
        )
        report = run_analysis([tmp_path], all_rules())
        assert _active(report, "GL015") == []

    def test_suppression_on_def_line(self, tmp_path):
        self._plant(tmp_path, routed=False, suppress=True)
        report = run_analysis([tmp_path], all_rules())
        assert _active(report, "GL015") == []
        assert len(_suppressed(report, "GL015")) == 1

    def test_real_route_table_is_complete(self):
        """Every handle_* coroutine in the shipped serve/api tree is routed."""
        from pathlib import Path

        src = Path(__file__).parent.parent / "src"
        rule = rules_by_id()["GL015"]
        report = run_analysis([src], [rule])
        assert report.findings == []


class TestEndToEnd:
    def test_temp_package_with_every_violation_gates(self, tmp_path, capsys):
        """CLI over a package violating every rule: exit 1, all ids reported."""
        pkg = tmp_path / "pkg"
        (pkg / "schedulers").mkdir(parents=True)
        (pkg / "schedulers" / "base.py").write_text("class Scheduler:\n    pass\n")
        (pkg / "schedulers" / "registry.py").write_text("_F = {}\n")
        (pkg / "schedulers" / "orphan.py").write_text(
            "from .base import Scheduler\n\n\nclass OrphanScheduler(Scheduler):\n    pass\n"
        )
        endpoints = pkg / "serve" / "api" / "v1" / "endpoints"
        endpoints.mkdir(parents=True)
        (endpoints / "things.py").write_text(
            "async def handle_unrouted(ctx, request):\n    return None\n"
        )
        (pkg / "serve" / "routes.py").write_text("ROUTE_TABLE = []\n")
        (pkg / "soup.py").write_text(
            textwrap.dedent(
                """\
                import random
                import time


                def stamp(ledger, entry, journal, broker, now, t_end, deadline):
                    t0 = time.time()
                    jitter = random.random()
                    same = t_end == deadline
                    ledger._ingress[0] = None
                    broker._ports["ingress", 0].usage.add(0.0, 1.0, 5.0)
                    broker.timeline("ingress", 0)._values[0] = 99.0
                    broker.book_pair(0, 0, 0.0, 1.0, 5.0)
                    journal.append("op", now, entry=entry)
                    entry["late"] = True
                    assert t0 >= 0
                    return t0, jitter, same
                """
            )
        )
        code = main(["--format", "json", str(tmp_path)])
        assert code == 1
        doc = __import__("json").loads(capsys.readouterr().out)
        seen = {f["rule"] for f in doc["findings"]}
        assert {
            "GL001",
            "GL002",
            "GL003",
            "GL004",
            "GL005",
            "GL006",
            "GL007",
            "GL008",
            "GL009",
            "GL010",
            "GL015",
        } <= seen

    def test_clean_package_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "good.py").write_text(
            "def shift(now, dt):\n    return now + dt\n"
        )
        assert main([str(tmp_path)]) == 0
