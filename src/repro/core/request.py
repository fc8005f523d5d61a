"""Transfer request model.

A *short-lived request* (paper §2.1) is a finite bulk data transfer between
one ingress and one egress point of the grid overlay.  Each request carries a
volume, a requested transmission window ``[t_s, t_f]`` and the transmission
limit of its attached host, ``MaxRate``.  The window implies a minimum rate

.. math::

    MinRate(r) = vol(r) / (t_f(r) - t_s(r))

A request is **rigid** when ``MinRate == MaxRate`` (no freedom in the
bandwidth assignment: it occupies exactly its window at exactly its rate) and
**flexible** otherwise.

:class:`RequestSet` is an immutable ordered collection with vectorised
(numpy) views used by the workload statistics and the LP solver.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from .errors import InvalidRequestError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Request", "RequestSet", "RATE_TOLERANCE", "check_request", "deadline_rate"]

#: Relative tolerance used when comparing rates (e.g. rigid classification).
RATE_TOLERANCE: float = 1e-9


def check_request(rid: int, volume: float, t_start: float, t_end: float, max_rate: float) -> None:
    """Raise :class:`InvalidRequestError` unless these fields make a valid
    :class:`Request` (what building one checks; the edge asks it alone)."""
    # Every test is phrased ``not (a > b)`` so that a NaN, for which
    # all comparisons are false, is refused instead of waved through.
    if not (volume > 0):
        raise InvalidRequestError(f"request {rid}: volume must be positive, got {volume}")
    if not (t_end > t_start):
        raise InvalidRequestError(f"request {rid}: empty transmission window [{t_start}, {t_end}]")
    if not (max_rate > 0):
        raise InvalidRequestError(f"request {rid}: max_rate must be positive, got {max_rate}")
    min_rate = volume / (t_end - t_start)
    if not (max_rate >= min_rate * (1 - RATE_TOLERANCE)):
        raise InvalidRequestError(
            f"request {rid}: max_rate {max_rate} below the MinRate "
            f"{min_rate} implied by window [{t_start}, {t_end}]"
        )
    # Note: ingress and egress indices address *different* port sets, so
    # equal indices are legal (e.g. the single ingress-egress pair case of
    # §3).  Same-site exclusion is a workload (PairSelector) concern.


def deadline_rate(volume: float, t_end: float, max_rate: float, start: float) -> float | None:
    """The MinRate rule: the rate that just meets the deadline ``t_end`` from
    ``start``, capped at ``max_rate``; ``None`` when the deadline is out of
    reach even at ``max_rate``.

    Non-decreasing in ``start`` bit for bit — IEEE ``−``, ``÷`` and ``min``
    round monotonically — and ``None`` from the first start that has no rate
    on: what a ``monotone`` bandwidth policy builds on
    (:class:`repro.schedulers.policies.BandwidthPolicy`).
    """
    remaining = t_end - start
    needed = volume / remaining if remaining > 0 else float("inf")
    # RATE_TOLERANCE-scale slack: a request started exactly on time must
    # remain admissible despite float rounding in the division.
    if needed > max_rate * (1 + RATE_TOLERANCE):
        return None
    return min(needed, max_rate)


@dataclass(frozen=True, slots=True)
class Request:
    """A single bulk data transfer request.

    Parameters
    ----------
    rid:
        Unique identifier within a :class:`RequestSet`.
    ingress, egress:
        Indices of the ingress/egress access points in the platform.
    volume:
        Data volume in MB; must be positive.
    t_start, t_end:
        Requested transmission window ``[t_s, t_f]`` in seconds; the window
        must be non-empty.
    max_rate:
        Transmission limit of the attached host in MB/s; must be at least the
        ``min_rate`` implied by the window (otherwise the request could never
        be served and is structurally invalid).
    """

    rid: int
    ingress: int
    egress: int
    volume: float
    t_start: float
    t_end: float
    max_rate: float

    def __post_init__(self) -> None:
        check_request(self.rid, self.volume, self.t_start, self.t_end, self.max_rate)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def min_rate(self) -> float:
        """``MinRate(r) = vol(r) / (t_f - t_s)`` (paper §2.1)."""
        return self.volume / (self.t_end - self.t_start)

    @property
    def is_rigid(self) -> bool:
        """True when ``MinRate == MaxRate`` up to :data:`RATE_TOLERANCE`."""
        return abs(self.max_rate - self.min_rate) <= RATE_TOLERANCE * max(self.max_rate, self.min_rate)

    @property
    def min_duration(self) -> float:
        """Shortest possible transfer time, ``vol / MaxRate``."""
        return self.volume / self.max_rate

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def rigid(
        cls,
        rid: int,
        ingress: int,
        egress: int,
        volume: float,
        t_start: float,
        t_end: float,
    ) -> Request:
        """Build a rigid request: ``MaxRate`` set to the window-implied rate."""
        min_rate = volume / (t_end - t_start)
        return cls(rid, ingress, egress, volume, t_start, t_end, min_rate)

    def with_rid(self, rid: int) -> Request:
        """Return a copy of this request with a different identifier."""
        return replace(self, rid=rid)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict representation (JSON friendly)."""
        return {
            "rid": self.rid,
            "ingress": self.ingress,
            "egress": self.egress,
            "volume": self.volume,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "max_rate": self.max_rate,
        }


@dataclass(frozen=True)
class RequestSet(Sequence[Request]):
    """An immutable, ordered collection of requests.

    Provides vectorised numpy views of the request attributes, which the
    workload statistics, objectives and the LP relaxation all build on.
    """

    requests: tuple[Request, ...] = field(default_factory=tuple)

    def __init__(self, requests: Iterable[Request] = ()) -> None:
        object.__setattr__(self, "requests", tuple(requests))
        rids = [r.rid for r in self.requests]
        if len(set(rids)) != len(rids):
            raise InvalidRequestError("duplicate request ids in RequestSet")

    # -- Sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return RequestSet(self.requests[index])
        return self.requests[index]

    def __contains__(self, item: object) -> bool:
        return item in self.requests

    # -- Lookup ----------------------------------------------------------
    def by_rid(self, rid: int) -> Request:
        """Return the request with identifier ``rid``."""
        try:
            return self._rid_index()[rid]
        except KeyError:
            raise KeyError(f"no request with rid {rid}") from None

    def _rid_index(self) -> dict[int, Request]:
        # Cached lazily on the instance; frozen dataclass requires object.__setattr__.
        cache = self.__dict__.get("_rid_cache")
        if cache is None:
            cache = {r.rid: r for r in self.requests}
            self.__dict__["_rid_cache"] = cache
        return cache

    # -- Derived views ----------------------------------------------------
    def as_arrays(self) -> dict[str, np.ndarray]:
        """Columnar numpy view of the request attributes.

        Returns a dict with keys ``rid``, ``ingress``, ``egress``,
        ``volume``, ``t_start``, ``t_end``, ``max_rate``, ``min_rate``.
        """
        import numpy as np

        n = len(self.requests)
        out = {
            "rid": np.empty(n, dtype=np.int64),
            "ingress": np.empty(n, dtype=np.int64),
            "egress": np.empty(n, dtype=np.int64),
            "volume": np.empty(n, dtype=np.float64),
            "t_start": np.empty(n, dtype=np.float64),
            "t_end": np.empty(n, dtype=np.float64),
            "max_rate": np.empty(n, dtype=np.float64),
        }
        for i, r in enumerate(self.requests):
            out["rid"][i] = r.rid
            out["ingress"][i] = r.ingress
            out["egress"][i] = r.egress
            out["volume"][i] = r.volume
            out["t_start"][i] = r.t_start
            out["t_end"][i] = r.t_end
            out["max_rate"][i] = r.max_rate
        out["min_rate"] = out["volume"] / (out["t_end"] - out["t_start"])
        return out

    def sorted_by_arrival(self) -> RequestSet:
        """Requests ordered by ``(t_start, min_rate, rid)``.

        This is the FCFS order the paper uses: earliest start first, and the
        request demanding the smallest bandwidth first on ties (§4.1, §5).
        """
        return RequestSet(
            sorted(self.requests, key=lambda r: (r.t_start, r.min_rate, r.rid))
        )

    def time_span(self) -> tuple[float, float]:
        """``(min t_s, max t_f)`` over all requests; ``(0, 0)`` when empty."""
        if not self.requests:
            return (0.0, 0.0)
        return (
            min(r.t_start for r in self.requests),
            max(r.t_end for r in self.requests),
        )

    def breakpoints(self) -> np.ndarray:
        """Sorted unique window endpoints (the paper's slice boundaries, §4.2)."""
        import numpy as np

        times: set[float] = set()
        for r in self.requests:
            times.add(r.t_start)
            times.add(r.t_end)
        return np.array(sorted(times), dtype=np.float64)

    def total_volume(self) -> float:
        """Sum of request volumes in MB."""
        return float(sum(r.volume for r in self.requests))
