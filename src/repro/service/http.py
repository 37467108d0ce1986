"""A thin HTTP/1.1 layer over :mod:`asyncio` streams.

Deliberately minimal — the clustering service needs exactly request
parsing (method, target, query string, headers, content-length body),
JSON responses, and keep-alive — and the repo ships no heavy
dependencies, so this module implements that subset directly instead of
pulling in a framework.  It is not a general-purpose HTTP server:

* only ``Content-Length``-framed bodies (no chunked transfer coding);
* headers are size-capped and case-folded, duplicate headers keep the
  last value;
* ``Connection: close`` (or HTTP/1.0 without keep-alive) ends the
  connection after the response, anything else keeps it open.

Every parse failure raises :class:`HTTPError` with the right status so
the server can answer malformed input with a structured JSON error
instead of dropping the connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HTTPError",
    "Request",
    "json_body",
    "read_request",
    "response_bytes",
    "STATUS_PHRASES",
]

#: Request line + one header line must fit in this many bytes.
MAX_LINE = 16 * 1024
#: Total header count cap (before the body is even considered).
MAX_HEADERS = 64
#: Default request-body cap; the server can override per instance.
DEFAULT_MAX_BODY = 64 * 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(Exception):
    """A request the server refuses, carrying its HTTP status.

    ``headers`` lets a raiser attach response headers (the admission
    controller sets ``Retry-After`` this way).
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str  #: the raw request target, e.g. ``/graphs/ab12/cluster?eps=0.5``
    path: str  #: decoded path component
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True

    @property
    def path_parts(self) -> list[str]:
        return [part for part in self.path.split("/") if part]

    def json(self):
        """The body decoded as JSON (:class:`HTTPError` 400 on failure)."""
        if not self.body:
            raise HTTPError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HTTPError(400, f"malformed JSON body: {exc}") from None

    def text(self) -> str:
        """The body decoded as UTF-8 text (:class:`HTTPError` 400 on
        failure)."""
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HTTPError(400, f"body is not valid UTF-8: {exc}") from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""  # clean EOF between requests
        raise HTTPError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HTTPError(400, "header line too long") from None
    if len(line) > MAX_LINE:
        raise HTTPError(400, "header line too long")
    return line.rstrip(b"\r\n")


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = DEFAULT_MAX_BODY
) -> Request | None:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`HTTPError` on malformed input (the caller answers it
    and closes the connection, since framing can no longer be trusted).
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HTTPError(400, f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            break
        if len(headers) >= MAX_HEADERS:
            raise HTTPError(400, "too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HTTPError(400, "malformed Content-Length") from None
        if length < 0:
            raise HTTPError(400, "malformed Content-Length")
        if length > max_body:
            raise HTTPError(
                413, f"request body exceeds {max_body} byte limit"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HTTPError(400, "truncated request body") from None
    elif headers.get("transfer-encoding"):
        raise HTTPError(400, "chunked transfer encoding is not supported")

    split = urlsplit(target)
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and not (
        version == "HTTP/1.0" and connection != "keep-alive"
    )
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path),
        query={k: v for k, v in parse_qsl(split.query)},
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def json_body(payload: dict, encoded: dict[str, str]) -> bytes:
    """The body :func:`response_bytes` would make of ``payload`` merged
    with ``encoded``, whose values are JSON text already.

    Byte-identical to ``json.dumps(merged, sort_keys=True) + "\n"``, so a
    large value encoded once can be spliced into many responses.
    """
    fields = {
        key: json.dumps(value, sort_keys=True) for key, value in payload.items()
    }
    fields.update(encoded)
    members = ", ".join(
        f"{json.dumps(key)}: {fields[key]}" for key in sorted(fields)
    )
    return ("{" + members + "}\n").encode("utf-8")


def response_bytes(
    status: int,
    payload,
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one HTTP/1.1 response.

    ``payload`` may be ``bytes``, ``str``, or any JSON-able object
    (dict/list payloads are the service's normal currency).
    """
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
