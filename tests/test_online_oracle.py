"""The paper's online heuristics against a naive instantaneous oracle.

GREEDY (Algorithm 2), WINDOW (Algorithm 3) and retry-GREEDY book every
transfer on a ``PortLedger`` and test a request over its whole ``[σ, τ)``.
The paper tests it against the port occupancy ``ali`` / ``ale`` at the
decision instant alone.  The oracle below is that test written out: the
accepted transfers in a list, a port's occupancy at ``t`` the sum of the
``bw`` of those on it with ``τ > t`` (Eq. 1's half-open end: a transfer
ending at ``t`` no longer occupies its port), and Algorithm 3's packing as
a rescan of the whole pool per accept.

Capacities, volumes, rates, ``f`` and times are drawn on a dyadic grid, so
every rate granted from a request's own start is dyadic and every sum of
such rates exact, whatever its order.  (MIN BW's rate from a later start,
WINDOW's or a retry's, need not be; the oracle then sums in booking order,
as a ledger profile accumulates, and the two still agree bit for bit.)
Some starts are an earlier request's ``t_end``, which is its ``τ`` when
MIN BW grants it on arrival; some requests repeat an earlier one's ports
and rate under a new rid, so WINDOW's costs tie and only the rid breaks
the tie.  Every decision must
agree, reject reasons and retry counts included.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.capacity import UTILISATION_LIMIT
from repro.core.capacity.checks import fits_under
from repro.core.platform import Platform
from repro.core.problem import ProblemInstance
from repro.core.request import Request, RequestSet, deadline_rate
from repro.schedulers import GreedyFlexible, RetryGreedyFlexible, WindowFlexible
from repro.schedulers.policies import FractionOfMaxPolicy, MinRatePolicy
from repro.schedulers.retry import BackoffSchedule


class Occupancy:
    """Accepted transfers as a list; ``ali`` / ``ale`` summed on demand."""

    def __init__(self):
        self.transfers: list[Allocation] = []

    def at(self, side: str, port: int, t: float) -> float:
        total = 0.0
        for alloc in self.transfers:
            if getattr(alloc, side) == port and alloc.tau > t:
                total += alloc.bw
        return total

    def fits(self, platform: Platform, request: Request, bw: float, t: float) -> bool:
        return fits_under(
            self.at("ingress", request.ingress, t), bw, platform.bin(request.ingress)
        ) and fits_under(self.at("egress", request.egress, t), bw, platform.bout(request.egress))

    def cost(self, platform: Platform, request: Request, bw: float, t: float) -> float:
        return max(
            (self.at("ingress", request.ingress, t) + bw) / platform.bin(request.ingress),
            (self.at("egress", request.egress, t) + bw) / platform.bout(request.egress),
        )


def oracle_greedy(problem, policy, backoff=None):
    """Algorithm 2, with client retries when ``backoff`` is given:
    ``(accepted, reasons, retries)``."""
    occupancy, accepted, reasons, retries = Occupancy(), {}, {}, 0
    attempts = 1 if backoff is None else backoff.max_attempts
    pending = [(r.t_start, seq, 1, r) for seq, r in enumerate(problem.requests.sorted_by_arrival())]
    while pending:
        entry = min(pending)
        pending.remove(entry)
        now, _, attempt, request = entry
        bw = policy.rate(request.volume, request.t_end, request.max_rate, now)
        if bw is None:
            reasons[request.rid] = "deadline"
        elif occupancy.fits(problem.platform, request, bw, now):
            alloc = Allocation.for_request(request, bw, now)
            occupancy.transfers.append(alloc)
            accepted[request.rid] = alloc
        elif attempt == attempts:
            reasons[request.rid] = "capacity"
        else:
            later = now + backoff.delay(attempt)
            if deadline_rate(request.volume, request.t_end, request.max_rate, later) is None:
                reasons[request.rid] = "deadline"
            else:
                retries += 1
                pending.append((later, len(problem.requests) + retries, attempt + 1, request))
    return accepted, reasons, retries


def oracle_window(problem, policy, t_step):
    """Algorithm 3: ``(accepted, reasons)``."""
    occupancy, accepted, reasons = Occupancy(), {}, {}
    arrivals = list(problem.requests.sorted_by_arrival())
    epoch, t_begin = 0, arrivals[0].t_start
    while arrivals:
        epoch += 1
        now = t_begin + epoch * t_step
        due = [r for r in arrivals if r.t_start < now]
        arrivals = arrivals[len(due) :]
        pool = []
        for request in due:
            bw = policy.rate(request.volume, request.t_end, request.max_rate, now)
            if bw is None:
                reasons[request.rid] = "deadline"
            else:
                pool.append((request, bw))
        while pool:
            costs = [(occupancy.cost(problem.platform, r, bw, now), r.rid) for r, bw in pool]
            cheapest = min(costs)
            if cheapest[0] > UTILISATION_LIMIT:
                reasons.update((r.rid, "capacity") for r, _ in pool)
                break
            request, bw = pool.pop(costs.index(cheapest))
            alloc = Allocation.for_request(request, bw, now)
            occupancy.transfers.append(alloc)
            accepted[request.rid] = alloc
    return accepted, reasons


def dyadic(lo: int, hi: int, denominator: int = 4):
    return st.integers(lo, hi).map(lambda k: k / denominator)


@st.composite
def instances(draw):
    n_in, n_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    platform = Platform(
        [draw(dyadic(8, 64)) for _ in range(n_in)], [draw(dyadic(8, 64)) for _ in range(n_out)]
    )
    requests: list[Request] = []
    for rid in range(draw(st.integers(1, 18))):
        if requests and draw(st.integers(0, 4)) == 0:
            # An earlier request again under a new rid: equal costs, rid decides.
            twin = draw(st.sampled_from(requests))
            requests.append(
                Request(rid, twin.ingress, twin.egress, twin.volume, twin.t_start, twin.t_end,
                        twin.max_rate)
            )  # fmt: skip
            continue
        if requests and draw(st.booleans()):
            start = draw(st.sampled_from(requests)).t_end  # τ of MIN BW on arrival
        else:
            start = draw(dyadic(0, 96))
        window = draw(dyadic(1, 64))
        min_rate = draw(dyadic(1, 48))
        max_rate = min_rate * draw(st.sampled_from([1, 1.5, 2, 4]))
        ingress, egress = draw(st.integers(0, n_in - 1)), draw(st.integers(0, n_out - 1))
        requests.append(
            Request(rid, ingress, egress, min_rate * window, start, start + window, max_rate)
        )
    problem = ProblemInstance(platform, RequestSet(requests))
    for r in requests:  # the draw is exact: every volume and rate is dyadic
        assert Fraction(r.volume) == Fraction(r.min_rate) * Fraction(r.t_end - r.t_start)
    return problem


policies = st.one_of(
    st.just(MinRatePolicy()), st.integers(1, 8).map(lambda k: FractionOfMaxPolicy(k / 8))
)


def decisions(result):
    return dict(result.accepted), dict(result.rejection_reasons)


@given(problem=instances(), policy=policies)
def test_greedy_decides_as_the_instantaneous_test(problem, policy):
    accepted, reasons, _ = oracle_greedy(problem, policy)
    assert decisions(GreedyFlexible(policy=policy).schedule(problem)) == (accepted, reasons)


@given(
    problem=instances(),
    policy=policies,
    t_step=st.sampled_from([0.25, 1.0, 3.0, 8.0, 40.0]),
)
def test_window_decides_as_the_instantaneous_packing(problem, policy, t_step):
    accepted, reasons = oracle_window(problem, policy, t_step)
    result = WindowFlexible(t_step=t_step, policy=policy).schedule(problem)
    assert decisions(result) == (accepted, reasons)


@given(
    problem=instances(),
    policy=policies,
    backoff=st.sampled_from([0.5, 2.0, 8.0]),
    multiplier=st.sampled_from([1.0, 2.0]),
    max_attempts=st.integers(1, 4),
)
def test_retry_greedy_decides_as_the_instantaneous_test(
    problem, policy, backoff, multiplier, max_attempts
):
    schedule = BackoffSchedule(base=backoff, multiplier=multiplier, max_attempts=max_attempts)
    accepted, reasons, retries = oracle_greedy(problem, policy, schedule)
    scheduler = RetryGreedyFlexible(
        policy=policy, backoff=backoff, multiplier=multiplier, max_attempts=max_attempts
    )
    result = scheduler.schedule(problem)
    assert decisions(result) == (accepted, reasons)
    assert result.meta["retries"] == retries


def test_a_start_at_an_earlier_end_finds_its_port_free():
    """Eq. 1's half-open end, pinned: a transfer that needs the whole port
    from the instant another one ends on it is accepted."""
    platform = Platform([8.0], [8.0])
    full = FractionOfMaxPolicy(1.0)
    # GREEDY and retry decide on arrival: the first transfer ends at 8.
    first, second = Request(0, 0, 0, 64.0, 0.0, 8.0, 8.0), Request(1, 0, 0, 64.0, 8.0, 16.0, 8.0)
    problem = ProblemInstance(platform, RequestSet([first, second]))
    for scheduler in (GreedyFlexible(policy=full), RetryGreedyFlexible(policy=full)):
        assert sorted(scheduler.schedule(problem).accepted) == [0, 1]
    # WINDOW decides at 4, 8, 12, ...: the first runs [4, 12), the second
    # arrives at 9 and runs from 12.
    first, second = Request(0, 0, 0, 64.0, 0.0, 16.0, 8.0), Request(1, 0, 0, 64.0, 9.0, 24.0, 8.0)
    problem = ProblemInstance(platform, RequestSet([first, second]))
    result = WindowFlexible(t_step=4.0, policy=full).schedule(problem)
    assert result.accepted[0].tau == result.accepted[1].sigma == 12.0


def test_window_takes_the_cheapest_after_each_accept():
    """A's accept raises B's cost above C's, and B and C cannot both fit on
    egress 1: WINDOW must pick C by the cost after A, not the cost before."""
    platform = Platform([8.0, 8.0], [8.0, 8.0])
    a, b, c = (  # (ingress, egress, bw); costs 0.375, then 0.4375 -> 0.8125, and 0.625
        Request(0, 0, 0, 3.0 * 64, 0.0, 128.0, 3.0),
        Request(1, 0, 1, 3.5 * 64, 0.0, 128.0, 3.5),
        Request(2, 1, 1, 5.0 * 64, 0.0, 128.0, 5.0),
    )
    problem = ProblemInstance(platform, RequestSet([a, b, c]))
    full = FractionOfMaxPolicy(1.0)
    result = WindowFlexible(t_step=1.0, policy=full).schedule(problem)
    assert decisions(result) == oracle_window(problem, full, 1.0)
    assert sorted(result.accepted) == [0, 2] and result.rejection_reasons == {1: "capacity"}
