"""Live run inspection: a stdlib-only background HTTP endpoint.

:func:`ensure_server` (``--serve-metrics PORT`` on the CLI) starts a
daemon-thread HTTP server bound to ``127.0.0.1`` that exposes:

* ``/metrics`` -- the global :class:`~repro.obs.metrics.MetricsRegistry`
  rendered by :func:`~repro.obs.export.prometheus_text`,
* ``/progress`` -- JSON watermarks for every open
  :class:`~repro.engine.engine.RunHandle`, feed and hub: bytes fed,
  document offset, events emitted, per-stage throughput, per-owner buffer
  bytes.

Design notes:

* The progress registry is module-level so that *serving* and *running*
  stay decoupled: every RunHandle registers a zero-cost snapshot callback
  on open and removes it on finish/close, whether or not a server is up.
  The server only calls the callbacks when someone actually GETs
  ``/progress`` -- a run being watched does not run different code, which
  is what lets the oracle assert byte-identical output under inspection.
* Servers are cached per *requested* port, so repeated runs (and the
  conformance oracle's per-case checks) reuse one listener instead of
  leaking sockets.  Port 0 maps to one shared ephemeral server whose real
  port is exposed as ``MetricsServer.port``.
* ``http.server`` is imported lazily inside :func:`ensure_server` so the
  engine can import this module unconditionally without paying for the
  HTTP stack on runs that never serve.
"""

from __future__ import annotations

import itertools
import json
import threading
import weakref
from typing import Callable, Dict, Optional

_PROGRESS_LOCK = threading.Lock()
_PROGRESS: Dict[int, "weakref.WeakMethod"] = {}
_PROGRESS_KEYS = itertools.count(1)

_SERVER_LOCK = threading.Lock()
_SERVERS: Dict[int, "MetricsServer"] = {}


def register_run(snapshot: Callable[[], dict]) -> int:
    """Expose an open run on ``/progress``; returns its registry key.

    ``snapshot`` is a bound method and is held weakly: being listed must
    not keep an abandoned run (and the governor it owns) alive.
    """
    key = next(_PROGRESS_KEYS)
    with _PROGRESS_LOCK:
        _PROGRESS[key] = weakref.WeakMethod(snapshot)
    return key


def unregister_run(key: Optional[int]) -> None:
    if key is None:
        return
    with _PROGRESS_LOCK:
        _PROGRESS.pop(key, None)


def progress_snapshot() -> dict:
    """Watermarks for every open run (also usable without a server)."""
    with _PROGRESS_LOCK:
        items = sorted(_PROGRESS.items())
    runs = []
    for key, ref in items:
        snapshot = ref()
        if snapshot is None:
            continue
        try:
            entry = snapshot()
        except Exception:
            continue
        entry.setdefault("run", key)
        runs.append(entry)
    return {"open_runs": len(runs), "runs": runs}


class MetricsServer:
    """Background HTTP server for ``/metrics`` and ``/progress``."""

    def __init__(self, port: int):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from .export import prometheus_text
        from .metrics import global_registry

        class _Handler(BaseHTTPRequestHandler):
            server_version = "repro-obs/1"

            def do_GET(self):  # noqa: N802 - http.server API
                if self.path == "/metrics":
                    body = prometheus_text(global_registry()).encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/progress":
                    body = json.dumps(progress_snapshot(), sort_keys=True).encode(
                        "utf-8"
                    )
                    ctype = "application/json"
                else:
                    body = b"repro-obs: unknown path; try /metrics or /progress\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002 - http.server API
                return None

        self._http = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._http.daemon_threads = True
        self.port = self._http.server_address[1]
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name=f"repro-obs-serve-{self.port}",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._http.shutdown()
        self._http.server_close()


def ensure_server(port: int) -> MetricsServer:
    """Start (or reuse) the metrics server for ``port``.

    Cached by the *requested* port: asking for port 0 twice returns the
    same ephemeral server rather than binding a new socket per run.
    The server lives as long as the process; runs execute identical code
    whether or not one is listening.
    """
    if not isinstance(port, int) or isinstance(port, bool) or not 0 <= port <= 65535:
        raise ValueError(f"port must be a TCP port (0-65535), got {port!r}")
    with _SERVER_LOCK:
        server = _SERVERS.get(port)
        if server is None:
            server = MetricsServer(port)
            _SERVERS[port] = server
        return server


def shutdown_servers() -> None:
    """Stop every cached server (test teardown helper)."""
    with _SERVER_LOCK:
        servers = list(_SERVERS.values())
        _SERVERS.clear()
    for server in servers:
        try:
            server.close()
        except Exception:
            pass
