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

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import InvalidRequestError

__all__ = ["Request", "RequestSet", "RATE_TOLERANCE"]

#: Relative tolerance used when comparing rates (e.g. rigid classification).
RATE_TOLERANCE: float = 1e-9


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
        # Every test is phrased ``not (a > b)`` so that a NaN, for which
        # all comparisons are false, is refused instead of waved through.
        if not (self.volume > 0):
            raise InvalidRequestError(f"request {self.rid}: volume must be positive, got {self.volume}")
        if not (self.t_end > self.t_start):
            raise InvalidRequestError(
                f"request {self.rid}: empty transmission window [{self.t_start}, {self.t_end}]"
            )
        if not (self.max_rate > 0):
            raise InvalidRequestError(f"request {self.rid}: max_rate must be positive, got {self.max_rate}")
        if not (self.max_rate >= self.min_rate * (1 - RATE_TOLERANCE)):
            raise InvalidRequestError(
                f"request {self.rid}: max_rate {self.max_rate} below the MinRate "
                f"{self.min_rate} implied by window [{self.t_start}, {self.t_end}]"
            )
        # Note: ingress and egress indices address *different* port sets, so
        # equal indices are legal (e.g. the single ingress-egress pair case of
        # §3).  Same-site exclusion is a workload (PairSelector) concern.

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def window(self) -> tuple[float, float]:
        """The requested transmission window ``(t_s, t_f)``."""
        return (self.t_start, self.t_end)

    @property
    def window_length(self) -> float:
        """Length of the requested window, ``t_f - t_s``."""
        return self.t_end - self.t_start

    @property
    def min_rate(self) -> float:
        """``MinRate(r) = vol(r) / (t_f - t_s)`` (paper §2.1)."""
        return self.volume / (self.t_end - self.t_start)

    @property
    def is_rigid(self) -> bool:
        """True when ``MinRate == MaxRate`` up to :data:`RATE_TOLERANCE`."""
        return abs(self.max_rate - self.min_rate) <= RATE_TOLERANCE * max(self.max_rate, self.min_rate)

    @property
    def is_flexible(self) -> bool:
        """True when the bandwidth assignment has freedom (paper §2.3)."""
        return not self.is_rigid

    @property
    def min_duration(self) -> float:
        """Shortest possible transfer time, ``vol / MaxRate``."""
        return self.volume / self.max_rate

    def rate_for_deadline(self, start: float) -> float:
        """Minimum feasible rate when the transfer starts at ``start``.

        Starting later than ``t_start`` shrinks the remaining window, so the
        rate needed to still meet the deadline grows.  Returns ``inf`` when
        the deadline can no longer be met at any rate.
        """
        remaining = self.t_end - start
        if remaining <= 0:
            return float("inf")
        return self.volume / remaining

    def deadline_rate(self, start: float | None = None) -> float | None:
        """The MinRate rule: the rate that just meets the deadline from
        ``start`` (default ``t_s``), capped at ``MaxRate``; ``None`` when the
        deadline is out of reach even at ``MaxRate``.

        Non-decreasing in ``start`` bit for bit — IEEE ``−``, ``÷`` and
        ``min`` round monotonically — and ``None`` from the first start that
        has no rate on: what a ``monotone`` bandwidth policy builds on
        (:class:`repro.schedulers.policies.BandwidthPolicy`).
        """
        needed = self.min_rate if start is None else self.rate_for_deadline(start)
        # RATE_TOLERANCE-scale slack: a request started exactly on time must
        # remain admissible despite float rounding in rate_for_deadline.
        if needed > self.max_rate * (1 + RATE_TOLERANCE):
            return None
        return min(needed, self.max_rate)

    def feasible_rate_interval(self, start: float | None = None) -> tuple[float, float]:
        """Admissible ``bw`` interval ``[MinRate, MaxRate]`` for a given start.

        With ``start=None`` the requested start ``t_s`` is assumed (the
        paper's default, Figure 2).
        """
        lo = self.min_rate if start is None else self.rate_for_deadline(start)
        return (lo, self.max_rate)

    def duration_at(self, bw: float) -> float:
        """Transfer duration ``vol / bw`` at constant bandwidth ``bw``."""
        if bw <= 0:
            raise InvalidRequestError(f"bandwidth must be positive, got {bw}")
        return self.volume / bw

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

    @classmethod
    def flexible(
        cls,
        rid: int,
        ingress: int,
        egress: int,
        volume: float,
        t_start: float,
        min_rate: float,
        max_rate: float,
    ) -> Request:
        """Build a flexible request from a requested ``MinRate``.

        The deadline is derived: ``t_f = t_s + vol / min_rate``.
        """
        if min_rate <= 0:
            raise InvalidRequestError(f"request {rid}: min_rate must be positive, got {min_rate}")
        t_end = t_start + volume / min_rate
        return cls(rid, ingress, egress, volume, t_start, t_end, max_rate)

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

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Request:
        """Inverse of :meth:`to_dict`."""
        return cls(
            rid=int(data["rid"]),
            ingress=int(data["ingress"]),
            egress=int(data["egress"]),
            volume=float(data["volume"]),
            t_start=float(data["t_start"]),
            t_end=float(data["t_end"]),
            max_rate=float(data["max_rate"]),
        )


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
        times: set[float] = set()
        for r in self.requests:
            times.add(r.t_start)
            times.add(r.t_end)
        return np.array(sorted(times), dtype=np.float64)

    def total_volume(self) -> float:
        """Sum of request volumes in MB."""
        return float(sum(r.volume for r in self.requests))

    def rigid_subset(self) -> RequestSet:
        """Only the rigid requests."""
        return RequestSet(r for r in self.requests if r.is_rigid)

    def flexible_subset(self) -> RequestSet:
        """Only the flexible requests."""
        return RequestSet(r for r in self.requests if r.is_flexible)

    # -- Serialisation ----------------------------------------------------
    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps([r.to_dict() for r in self.requests])

    @classmethod
    def from_json(cls, text: str) -> RequestSet:
        """Inverse of :meth:`to_json`."""
        return cls(Request.from_dict(d) for d in json.loads(text))
