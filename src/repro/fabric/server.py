"""An asyncio HTTP front for the coordinator — stdlib only, no heavy deps.

The coordinator's request handlers are short critical sections behind one
lock, so the server's job is purely connection fan-in: accept many
concurrent workers, parse one small JSON request each, dispatch, answer.
``asyncio.start_server`` handles the fan-in; the handlers run in the
default thread-pool executor so a store commit (file I/O inside
``handle_request``) never stalls the accept loop.

The event loop runs on a daemon thread, so :meth:`FabricHTTPServer.start`
returns immediately with the bound URL (``port=0`` picks a free port —
what the tests use) and the creating thread stays free for the serve
loop's progress reporting.

Wire protocol: ``POST /<action>`` with a JSON body (``GET /status`` also
works, for humans with ``curl``).  Responses are JSON with ``200``;
unknown actions get ``404``, malformed payloads ``400``, handler crashes
``500``.  Connections are single-request (``Connection: close``) — the
protocol exchanges a handful of small messages per *cell*, so keep-alive
buys nothing and closing keeps the server state-free.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import TYPE_CHECKING

from repro.fabric.protocol import FabricError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.coordinator import FabricCoordinator

__all__ = ["FabricHTTPServer"]

_MAX_BODY_BYTES = 64 * 1024 * 1024  # a record batch is small; this is a fuse


class FabricHTTPServer:
    """Serve one coordinator over loopback/LAN HTTP from a background thread.

    ``expose_metrics`` additionally publishes the coordinator's metrics
    registry at ``/metrics`` (``fabric serve --telemetry``); without it the
    endpoint answers 404 with a hint, so operators learn the flag instead
    of debugging a silent miss.
    """

    def __init__(
        self,
        coordinator: "FabricCoordinator",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        expose_metrics: bool = False,
    ) -> None:
        self._coordinator = coordinator
        self._host = host
        self._port = port
        self._expose_metrics = expose_metrics
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.url: str | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Bind and serve; returns the base URL (e.g. ``http://127.0.0.1:8765``)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="fabric-http", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        if self.url is None:
            raise RuntimeError("fabric server signalled start-up without binding a port")
        return self.url

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "FabricHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- event loop --------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # pragma: no cover - startup failures
            self._startup_error = error
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, self._host, self._port)
        bound_port = server.sockets[0].getsockname()[1]
        self.url = f"http://{self._host}:{bound_port}"
        self._started.set()
        async with server:
            await self._stop.wait()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, response = await self._respond(reader)
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            status, response = 400, {"error": "malformed request"}
        except Exception as error:  # pragma: no cover - handler crash fence
            status, response = 500, {"error": f"{type(error).__name__}: {error}"}
        body = json.dumps(response).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("ascii", "replace").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        try:
            method, path, _ = request_line.split(" ", 2)
        except ValueError:
            return 400, {"error": f"bad request line {request_line!r}"}
        content_length = 0
        while True:
            line = (await reader.readline()).decode("ascii", "replace")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > _MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        raw = await reader.readexactly(content_length) if content_length else b""
        if method not in ("POST", "GET"):
            return 400, {"error": f"unsupported method {method!r}"}
        action = path.strip("/").split("?", 1)[0]
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as error:
            return 400, {"error": f"bad JSON body: {error}"}
        if not isinstance(payload, dict):
            return 400, {"error": "payload must be a JSON object"}
        if action == "metrics" and not self._expose_metrics:
            return 404, {
                "error": (
                    "metrics endpoint not exposed; start the coordinator "
                    "with 'fabric serve --telemetry' to publish /metrics"
                )
            }
        # Run the (locking, possibly file-writing) handler off the loop.
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                None, self._coordinator.handle_request, action, payload
            )
        except FabricError as error:
            return 404, {"error": str(error)}
        return 200, response
