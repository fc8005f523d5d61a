"""API-key authentication and per-client request quotas.

The admission gateway already rate-limits *volume* per client through
its :class:`~repro.gateway.edge.EdgeLimit` token buckets; the service
layers two edges in front of that:

1. **Authentication** — a static keyring mapping bearer keys to client
   identities.  Keys arrive as ``Authorization: Bearer <key>`` or
   ``X-API-Key``; an unknown or missing key is a 401 before any work.
2. **Request quota** — a per-client token bucket over *request count*
   (not volume), so a single client cannot monopolise the event loop no
   matter how small its submissions are.  Refusals are 429 with a
   ``Retry-After`` hint (exact-refill boundary included).  The quota is
   the gateway edge's own limiter, :class:`~repro.gateway.edge.EdgeLimiter`,
   charged one token per HTTP request and fed the service clock
   (``ServeConfig.quota`` is an ``EdgeLimit(rate, burst)`` in requests);
   :func:`~repro.serve.deps.build_context` is where it is asked.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError

__all__ = ["ApiKeyring"]


class ApiKeyring:
    """Static key → client-identity mapping (deterministic, no secrets RNG)."""

    def __init__(self, keys: dict[str, str] | None = None) -> None:
        self._keys = dict(keys or {})

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def open_access(self) -> bool:
        """An empty keyring disables authentication (dev / bench mode)."""
        return not self._keys

    def client_for(self, key: str | None) -> str | None:
        """The client identity owning ``key``; ``None`` = refuse."""
        if self.open_access:
            return "anonymous" if key is None else self._keys.get(key, "anonymous")
        if key is None:
            return None
        return self._keys.get(key)

    @classmethod
    def generate(cls, clients: int, *, prefix: str = "client") -> ApiKeyring:
        """A deterministic keyring for tests and the load harness.

        Key material is *not* secret here — the harness needs stable,
        reproducible credentials, not entropy.  Production deployments
        load real keys from a file (``grid-serve --keys``).
        """
        if clients <= 0:
            raise ConfigurationError(f"need a positive client count, got {clients}")
        return cls(
            {f"key-{prefix}-{i:06d}": f"{prefix}-{i:06d}" for i in range(clients)}
        )

    def keys(self) -> dict[str, str]:
        """A copy of the mapping (loadgen hands keys to its clients)."""
        return dict(self._keys)
