"""Minimal HTTP/1.1 on asyncio streams — the service plane's wire format.

Stdlib only (no new runtime dependencies): a hand-rolled, strict-enough
parser for the small JSON API the service exposes.  Supported surface:

- request line + headers + ``Content-Length`` bodies (no chunked
  encoding, no multipart — the API never produces them; RFC 9112 §6.3
  framing: one run of ASCII digits, no ``Transfer-Encoding``);
- keep-alive by default (HTTP/1.1), ``Connection: close`` honoured;
- JSON request/response helpers with deterministic serialisation
  (sorted keys — byte-stable responses for byte-stable tests).

Malformed input raises :class:`HttpError`, which the connection loop
turns into a 400 and a closed connection; everything else is the
handlers' business.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

from ..core.errors import ReproError

__all__ = ["HttpError", "HttpRequest", "HttpResponse", "read_request", "render_response"]

#: Hard caps keeping one bad client from ballooning server memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(ReproError, ValueError):
    """The peer sent something the parser refuses; maps to a 4xx.

    ``retry_after`` (seconds) rides along on 429s so the edge can emit
    the ``Retry-After`` header without re-deriving bucket state.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: Path parameters bound by the router (``{rid}`` segments).
    params: dict[str, str] = field(default_factory=dict)
    #: The request line's protocol version (set by :func:`read_request`).
    version: str = field(default="HTTP/1.1", init=False)

    def json(self) -> Any:
        """The body as JSON; :class:`HttpError` 400 on garbage."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        # ValueError: JSONDecodeError, bad UTF-8, oversized integer literal;
        # RecursionError: brackets nested deeper than the interpreter's stack.
        except (ValueError, RecursionError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (RFC 9112 §9.3):
        not if ``Connection`` lists ``close``; for HTTP/1.0, only if it
        lists ``keep-alive``."""
        connection = self.headers.get("connection")
        if connection is None:
            return self.version != "HTTP/1.0"
        tokens = {token.strip().lower() for token in connection.split(",")}
        return "close" not in tokens and (self.version != "HTTP/1.0" or "keep-alive" in tokens)


@dataclass
class HttpResponse:
    """One response: status, JSON-able payload or raw text body."""

    status: int = 200
    payload: Any = None
    text: str | None = None
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def error(cls, status: int, message: str, **fields: Any) -> HttpResponse:
        """The uniform error envelope every endpoint uses."""
        return cls(status=status, payload={"error": message, **fields})


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "request head exceeds limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise HttpError(400, f"malformed request line: {lines[0]!r}") from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "Content-Length values differ")
        headers[name] = value
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    # RFC 9112 §6.3: a transfer coding (chunked, or beside a length) or a
    # length not 1*DIGIT leaves the body's end in doubt (request smuggling).
    if "transfer-encoding" in headers:
        raise HttpError(400, "Transfer-Encoding request bodies are not supported")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            if not (length_header.isascii() and length_header.isdigit()):
                raise ValueError("not 1*DIGIT")
            length = int(length_header)  # ValueError past int()'s digit limit
        except ValueError as exc:
            raise HttpError(400, f"bad Content-Length {length_header!r}") from exc
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes refused")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError(400, "truncated request body") from exc
    request = HttpRequest(
        method=method.upper(), path=unquote(split.path), query=query, headers=headers, body=body
    )
    request.version = version
    return request


def render_response(response: HttpResponse, *, keep_alive: bool) -> bytes:
    """Serialise a response (deterministic: sorted JSON keys)."""
    if response.text is not None:
        body = response.text.encode("utf-8")
        content_type = response.content_type or "text/plain; charset=utf-8"
    elif response.payload is not None:
        body = json.dumps(
            response.payload, sort_keys=True, separators=(",", ":"), default=str
        ).encode("utf-8")
        content_type = "application/json"
    else:
        body = b""
        content_type = response.content_type
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if body:
        lines.append(f"Content-Type: {content_type}")
    for name in sorted(response.headers):
        lines.append(f"{name}: {response.headers[name]}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
