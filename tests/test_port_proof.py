"""A decision proves each port's fit once.

A :class:`~repro.core.ledger.Port` keeps the last ``(t0, t1, rate)`` a
``blocker`` probe or the headroom test (``fits_headroom``) proved fits,
with the kernel's write count at that moment; ``Port.fits`` and
``Port.book`` take it for the answer while the count is unchanged.  That
is exact by construction — a probe's answer depends only on the step, the
usage runs and the capacity — and this file holds it to a memo-less twin
over arbitrary interleavings, writes that go around the port included.
CI runs it with the search differential under ``--hypothesis-profile=deep``.
"""

from contextlib import contextmanager

from hypothesis import given
from hypothesis import strategies as st

from repro.core.capacity import BreakpointProfile
from repro.core.ledger import Port

CAPACITY = 100.0

#: A few steps per example, on a coarse grid, so that steps overlap and
#: repeat.
STEPS = st.lists(
    st.tuples(
        st.integers(0, 8), st.integers(1, 4), st.sampled_from([10.0, 25.0, 40.0, 60.0, 100.0])
    ).map(lambda s: (float(s[0]), float(s[0] + s[1]), s[2])),
    min_size=1,
    max_size=4,
)
#: A checkpointed port (``Port.dump_state``) with all of the future booked.
FULL = [([0.0], [0.0, CAPACITY]), None]
#: Rounds of an admission's pattern: prove a step (or not), disturb the port
#: with a step (a third of the time not), then check or book the first
#: step; the two steps' indices close each round.
ROUNDS = st.lists(
    st.tuples(
        st.sampled_from(["probe", "headroom", "fits", "none"]),
        st.sampled_from(["none"] * 3 + ["book", "add", "release", "degrade", "load", "around"]),
        st.sampled_from(["book", "fits"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=20,
)


def test_a_proof_answers_as_a_memo_less_probe_would():
    """``port`` keeps its proofs; ``twin`` forgets its own before every
    call, so it probes each time.  Every answer, the usage and reduction
    runs and the peak stay equal after every call, whatever lands between
    a proof and the booking it answers: another booking, an add or a
    release, a degradation, a restore, a write around the port."""
    answered = []

    @given(steps=STEPS, rounds=ROUNDS)
    def run(steps, rounds):
        port, twin = Port(CAPACITY), Port(CAPACITY)
        states = [port.dump_state()]

        def both(call, *args):
            twin.proof = None
            assert getattr(port, call)(*args) == getattr(twin, call)(*args), call
            assert port.dump_state() == twin.dump_state() and port.peak == twin.peak

        for prove, disturb, check, j, m in rounds:
            step, other = steps[j % len(steps)], steps[m % len(steps)]
            if prove == "probe":
                both("blocker", *step)
            elif prove == "headroom":
                both("fits_headroom", *step)
            elif prove == "fits":
                both("fits", (step,))
            if disturb in ("book", "add"):
                both(disturb, (other,))
            elif disturb == "release":
                both("add", (other,), -1.0)
            elif disturb == "degrade":  # an outage over the other step's window
                both("degrade", other[0], other[1], CAPACITY)
            elif disturb == "load":  # a restore: the whole future booked, or a recent state
                both("load_state", FULL if m == 0 else states[-m % len(states)])
            elif disturb == "around":  # a write only the kernel's count sees
                port.usage.add(*other)
                twin.usage.add(*other)
            answered.append(port.proven((step,)))
            both(check, (step,))
            states.append(port.dump_state())

    run()
    assert sum(answered) >= 30, f"{sum(answered)} of {len(answered)} answers came from a proof"


@contextmanager
def no_kernel_probe(monkeypatch):
    """Inside, the production kernel's probe fails the test if asked."""

    def asked(*args):
        raise AssertionError("the kernel was probed again")

    with monkeypatch.context() as patched:
        patched.setattr(BreakpointProfile, "blocker", asked)
        yield


def test_a_proven_step_is_committed_without_a_second_probe(monkeypatch):
    port = Port(CAPACITY)
    port.add(((0.0, 4.0, 30.0),))
    assert port.blocker(1.0, 3.0, 60.0) is None
    with no_kernel_probe(monkeypatch):
        assert port.fits(((1.0, 3.0, 60.0),))
        assert port.book(((1.0, 3.0, 60.0),))
    assert port.usage.max_usage(1.0, 3.0) == 90.0 and port.peak == 90.0
    # The booking wrote the usage: the same step is probed again, and refused.
    assert not port.book(((1.0, 3.0, 60.0),))


def test_the_headroom_test_proves_the_step(monkeypatch):
    port = Port(CAPACITY)
    port.add(((0.0, 4.0, 30.0),))
    assert port.fits_headroom(10.0, 12.0, 70.0)
    assert not port.fits_headroom(10.0, 12.0, 70.1)
    with no_kernel_probe(monkeypatch):
        assert port.book(((10.0, 12.0, 70.0),))
    assert port.peak == 70.0


def test_a_write_around_the_port_voids_the_proof():
    port = Port(CAPACITY)
    assert port.blocker(0.0, 1.0, 60.0) is None
    port.usage.add(0.0, 1.0, 50.0)
    assert not port.proven(((0.0, 1.0, 60.0),))
    assert not port.book(((0.0, 1.0, 60.0),))


def test_only_the_proved_step_and_an_undegraded_port_are_proven():
    port = Port(CAPACITY)
    assert port.blocker(0.0, 1.0, 60.0) is None
    assert port.proven(((0.0, 1.0, 60.0),))
    assert not port.proven(((0.0, 1.0, 59.0),))
    assert not port.proven(((0.0, 1.0, 60.0), (1.0, 2.0, 60.0)))
    port.degrade(5.0, 6.0, 10.0)
    assert not port.proven(((0.0, 1.0, 60.0),))
    assert not port.fits_headroom(0.0, 1.0, 1.0)
    assert port.blocker(0.0, 1.0, 60.0) is None
    assert not port.proven(((0.0, 1.0, 60.0),))
