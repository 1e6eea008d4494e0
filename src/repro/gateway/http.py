"""Asyncio HTTP/1.1 shell around :class:`~repro.gateway.app.Gateway`.

Stdlib only (``asyncio.start_server``): a minimal, careful HTTP/1.1
server — request line + headers + ``Content-Length`` body, keep-alive
by default, ``413`` on oversized bodies, ``400`` on unparsable JSON —
that hands every request to the synchronous gateway core via
``loop.run_in_executor``, so slow queries never block the event loop
and the core stays testable without sockets.

Not implemented on purpose (the gateway is a reproduction harness,
not an internet-facing proxy): TLS, chunked transfer encoding,
pipelining beyond serial keep-alive, and HTTP/2.

Usage::

    server = GatewayServer(gateway, host="127.0.0.1", port=0)
    with server:                      # binds; .port is the real port
        ...                          # serve until the block exits

``serve_forever()`` is the blocking entry point used by
``examples/gateway_serve.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

from ..errors import GatewayError
from .app import Gateway

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_MAX_HEADER_BYTES = 32 * 1024


def _encode_response(status: int, payload, *,
                     keep_alive: bool) -> bytes:
    if isinstance(payload, str):  # /metrics exposition
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if status == 429 and isinstance(payload, dict) \
            and payload.get("retry_after") is not None:
        headers.append(f"Retry-After: {payload['retry_after']:.3f}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


class GatewayServer:
    """One bound asyncio server fronting a :class:`Gateway`.

    The event loop runs on a dedicated thread (started by
    :meth:`start` / ``__enter__``), so the server composes with
    synchronous tests and examples; request handling itself runs on a
    ``ThreadPoolExecutor`` of ``max(4, 2 × workers)`` threads.
    """

    def __init__(
        self,
        gateway: Gateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.gateway = gateway
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, gateway.service.workers * 2),
            thread_name_prefix="gw-handler")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Connection handling (runs on the event loop)
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Optional[bytes], bool]]:
        """One request off the wire: (method, path, body, keep_alive).

        Returns None on a cleanly closed idle connection; raises
        :class:`GatewayError` (→ 400/413) on protocol violations.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # peer closed between requests: normal
            raise GatewayError("connection closed mid-request") from error
        except asyncio.LimitOverrunError as error:
            raise GatewayError("request head too large") from error
        if len(head) > _MAX_HEADER_BYTES:
            raise GatewayError("request head too large")
        try:
            text = head.decode("ascii")
        except UnicodeDecodeError as error:
            raise GatewayError("request head is not ASCII") from error
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise GatewayError(f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise GatewayError(f"malformed header line {line!r}")
            headers[key.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive") \
            .lower() != "close"
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as error:
            raise GatewayError(
                f"bad Content-Length {length_text!r}") from error
        if length < 0:
            raise GatewayError(f"bad Content-Length {length!r}")
        if length > self.gateway.config.max_body_bytes:
            raise _PayloadTooLarge(
                f"body of {length} bytes exceeds the "
                f"{self.gateway.config.max_body_bytes}-byte limit")
        body = await reader.readexactly(length) if length else None
        return method, path, body, keep_alive

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _PayloadTooLarge as error:
                    writer.write(_encode_response(
                        413, {"error": "PayloadTooLarge",
                              "message": str(error)},
                        keep_alive=False))
                    await writer.drain()
                    return
                except GatewayError as error:
                    writer.write(_encode_response(
                        400, {"error": "BadRequest",
                              "message": str(error)},
                        keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                method, path, raw_body, keep_alive = request
                if raw_body:
                    try:
                        body = json.loads(raw_body)
                    except ValueError:
                        writer.write(_encode_response(
                            400, {"error": "BadRequest",
                                  "message": "body is not valid JSON"},
                            keep_alive=keep_alive))
                        await writer.drain()
                        if keep_alive:
                            continue
                        return
                else:
                    body = None
                status, payload = await loop.run_in_executor(
                    self._executor,
                    self.gateway.handle, method, path, body)
                writer.write(_encode_response(
                    status, payload, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(asyncio.start_server(
                self._handle_connection, self.host,
                self._requested_port))
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as error:  # noqa: BLE001 - to start()
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    def start(self) -> "GatewayServer":
        """Bind and serve on a background thread; returns self."""
        if self._thread is not None:
            raise GatewayError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="gw-server", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Stop serving (idempotent); the gateway itself stays open."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._executor.shutdown(wait=False)

    @property
    def address(self) -> str:
        if self.port is None:
            raise GatewayError("server is not started")
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Blocking entry point: serve until interrupted."""
        self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _PayloadTooLarge(GatewayError):
    """Internal: body exceeded ``max_body_bytes`` (HTTP 413)."""
