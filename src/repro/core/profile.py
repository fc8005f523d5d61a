"""Stepwise rate profiles: the malleable-transfer generalisation.

The paper grants each accepted request one constant rate ``bw(r)`` for its
whole window.  Chen & Primet's flexible-reservation framework (PAPERS.md)
generalises that to a *stepwise rate profile*: an ordered sequence of
``(t0, t1, rate)`` segments, piecewise-constant exactly like the capacity
kernel underneath.  :class:`RateProfile` is the one canonical carrier of
that shape — every layer above :mod:`repro.core.capacity` that used to pass
``(t0, t1, bw)`` triples passes (or derives) a profile instead, and the old
constant-rate allocation is simply the 1-segment special case.

Segment hygiene lives in exactly one place, :meth:`RateProfile.normalize`:
zero-length and zero-rate segments are dropped, touching equal-rate
segments are coalesced, overlaps are rejected.  The capacity kernel can
therefore keep its strict ``t1 > t0`` contract — nothing un-normalized
ever reaches it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any

from ..units import bandwidth_eq, seconds_eq, volume_eq

__all__ = ["RateProfile", "Segment"]

#: One profile step: ``(t0, t1, rate)`` — rate in MB/s over ``[t0, t1)``.
Segment = tuple[float, float, float]


class RateProfile:
    """An immutable, normalized stepwise rate profile.

    Segments are ordered, non-overlapping, strictly positive in both
    length and rate; touching segments never share a rate (they would
    have been coalesced).  Gaps between segments are allowed and carry
    rate zero.  Instances normalise on construction — callers never see
    (and must never build) a raw segment list of their own; gridlint
    GL004/GL009 guard ``_segments`` as a ``repro.core``-owned internal.
    """

    __slots__ = ("_segments",)

    def __init__(self, segments: Iterable[Sequence[float]]) -> None:
        self._segments: tuple[Segment, ...] = RateProfile.normalize(segments)

    # -- canonical hygiene ---------------------------------------------
    @staticmethod
    def normalize(segments: Iterable[Sequence[float]]) -> tuple[Segment, ...]:
        """The one canonical segment clean-up (satellite: segment hygiene).

        - casts to ``float`` triples and validates finiteness;
        - rejects negative rates and inverted windows;
        - drops zero-length (``t0 == t1``) and zero-rate segments — they
          carry no volume;
        - sorts by start, rejects genuine overlaps, clamps sub-tolerance
          overlaps to touching;
        - coalesces touching segments with equal rates (per
          :func:`repro.units.bandwidth_eq`).

        Returns the normalized tuple; raises ``ValueError`` on malformed
        input.  Every ``RateProfile`` constructor path funnels through
        here, so the capacity kernel only ever sees ``t1 > t0``.
        """
        cleaned: list[Segment] = []
        for raw in segments:
            try:
                t0, t1, rate = (float(part) for part in raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"malformed profile segment {raw!r}") from exc
            if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(rate)):
                raise ValueError(f"profile segment must be finite, got {(t0, t1, rate)}")
            if rate < 0.0:
                raise ValueError(f"profile segment has negative rate {rate}")
            if t1 < t0:
                raise ValueError(f"profile segment ends before it starts: [{t0}, {t1})")
            if not (t1 > t0) or not (rate > 0.0):
                continue  # zero-length or zero-rate: carries no volume
            cleaned.append((t0, t1, rate))
        cleaned.sort()
        out: list[Segment] = []
        for t0, t1, rate in cleaned:
            if out:
                p0, p1, prev_rate = out[-1]
                if t0 < p1:
                    if not seconds_eq(t0, p1):
                        raise ValueError(
                            f"profile segments overlap: [{p0}, {p1}) and [{t0}, {t1})"
                        )
                    t0 = p1  # sub-tolerance overlap: clamp to touching
                    if not (t1 > t0):
                        continue
                if seconds_eq(t0, p1) and bandwidth_eq(rate, prev_rate):
                    out[-1] = (p0, t1, prev_rate)
                    continue
            out.append((t0, t1, rate))
        return tuple(out)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_list(cls, data: Iterable[Sequence[float]]) -> RateProfile:
        """Inverse of :meth:`to_list` (JSON wire shape)."""
        return cls(data)

    # -- shape ----------------------------------------------------------
    @property
    def segments(self) -> tuple[Segment, ...]:
        """The normalized ``(t0, t1, rate)`` segments, in time order."""
        return self._segments

    def __bool__(self) -> bool:
        return bool(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"[{t0:g},{t1:g})@{rate:g}" for t0, t1, rate in self._segments)
        return f"RateProfile({inner})"

    @property
    def sigma(self) -> float:
        """Start of the first segment (the profile's σ)."""
        if not self._segments:
            raise ValueError("empty profile has no start")
        return self._segments[0][0]

    @property
    def tau(self) -> float:
        """End of the last segment (the profile's τ)."""
        if not self._segments:
            raise ValueError("empty profile has no end")
        return self._segments[-1][1]

    @property
    def volume(self) -> float:
        """Total volume carried, ``Σ rate × (t1 − t0)``, in MB."""
        return sum(rate * (t1 - t0) for t0, t1, rate in self._segments)

    @property
    def peak_rate(self) -> float:
        """Largest per-segment rate (the profile's bandwidth footprint)."""
        if not self._segments:
            return 0.0
        return max(rate for _, _, rate in self._segments)

    # -- evaluation ------------------------------------------------------
    def volume_before(self, t: float) -> float:
        """Volume carried strictly before ``t`` (for consumed-head accounting)."""
        carried = 0.0
        for t0, t1, rate in self._segments:
            if t <= t0:
                break
            carried += rate * (min(t, t1) - t0)
        return carried

    # -- surgery (all return fresh normalized profiles) ------------------
    def shift(self, dt: float) -> RateProfile:
        """The same shape translated by ``dt`` seconds."""
        return RateProfile((t0 + dt, t1 + dt, rate) for t0, t1, rate in self._segments)

    def head_until(self, t: float) -> RateProfile:
        """The (possibly empty) portion carried strictly before ``t``."""
        return RateProfile(
            (t0, min(t, t1), rate) for t0, t1, rate in self._segments if t0 < t
        )

    def concat(self, other: RateProfile) -> RateProfile:
        """Union of two non-overlapping profiles (head + reshaped tail)."""
        return RateProfile((*self._segments, *other._segments))

    def conserves(self, volume: float, *, rel: float = 1e-6) -> bool:
        """Does this profile deliver ``volume`` MB (volume-conserving)?"""
        return volume_eq(self.volume, volume, rel=rel)

    # -- wire shape -------------------------------------------------------
    def to_list(self) -> list[list[float]]:
        """JSON wire shape: ``[[t0, t1, rate], ...]``."""
        return [[t0, t1, rate] for t0, t1, rate in self._segments]

    @staticmethod
    def maybe_from(value: Any) -> RateProfile | None:
        """Coerce an optional wire value (``None`` | list | profile)."""
        if value is None:
            return None
        if isinstance(value, RateProfile):
            return value
        return RateProfile.from_list(value)
