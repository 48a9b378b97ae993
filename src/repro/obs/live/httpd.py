"""HTTP exporter: stdlib ``http.server`` endpoints over a live engine.

Serves the live-observability surface the way a production LLM server
(vLLM, TensorRT-LLM) would, with zero third-party dependencies:

* ``GET /metrics``        — Prometheus text exposition of the active
  telemetry registry (the same bytes ``obs.write_snapshot`` dumps);
* ``GET /healthz``        — liveness JSON: heartbeat step, simulated
  clock, SLO state (non-``ok`` SLO degrades the reported status);
* ``GET /slo``            — the SLO monitor's burn-rate snapshot and
  degradation-event log;
* ``GET /windows``        — sliding-window aggregates per metric;
* ``GET /requests``       — the record store's index (active/completed
  ids);
* ``GET /requests/<id>``  — one request's record (timeline, phase timings,
  retries, faults, KV blocks) with its attribution under ``attribution``;
  a structured 404 JSON body when unknown/evicted;
* ``GET /attribution``    — the store's cost-ledger view: fleet
  attribution aggregate, per-request records, KV pool economics
  (repro.obs.attrib).

Every per-request route reads the one record store, ``live.flights``.

The server runs on a daemon thread (`ThreadingHTTPServer`), binds an
ephemeral port by default, and reads engine state only through the
thread-safe :class:`~repro.obs.live.LiveObs` accessors — it never blocks
or perturbs the simulated run it observes.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from threading import Thread
from typing import TYPE_CHECKING

import repro.obs as obs
from repro.obs import export as _export

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import LiveObs

__all__ = ["LiveHTTPServer", "ROUTES"]

#: Documented endpoint table (also returned by ``GET /``).
ROUTES: dict[str, str] = {
    "/metrics": "Prometheus text exposition of the live registry",
    "/healthz": "liveness + heartbeat + SLO state",
    "/slo": "SLO burn-rate snapshot and degradation events",
    "/windows": "sliding-window aggregates per metric",
    "/requests": "flight-recorder index",
    "/requests/<id>": "one request's flight record + attribution",
    "/attribution": "cost-ledger snapshot (latency attribution + KV economics)",
}


class _Handler(BaseHTTPRequestHandler):
    """Routes requests against the owning :class:`LiveHTTPServer`."""

    server_version = "repro-live/1"
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log (it would interleave with the
    # engine's own output and CI logs).
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    @property
    def _live(self) -> "LiveObs | None":
        return self.server.live  # type: ignore[attr-defined]

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        self._send(status, body, "application/json")

    def _need_live(self) -> "LiveObs | None":
        live = self._live
        if live is None:
            self._send_json(
                503, {"error": "no live observability layer attached"}
            )
        return live

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            body = _export.prometheus_text(obs.metrics()).encode()
            self._send(200, body, "text/plain; version=0.0.4")
        elif path == "/healthz":
            self._send_json(200, self._healthz())
        elif path == "/slo":
            live = self._need_live()
            if live is not None:
                self._send_json(200, live.slo.snapshot(now=live.clock))
        elif path == "/windows":
            live = self._need_live()
            if live is not None:
                self._send_json(200, live.windows.to_dict())
        elif path == "/requests":
            live = self._need_live()
            if live is not None:
                self._send_json(200, self._request_index(live))
        elif path.startswith("/requests/"):
            live = self._need_live()
            if live is not None:
                self._request_detail(live, path[len("/requests/"):])
        elif path == "/attribution":
            live = self._need_live()
            if live is not None:
                self._send_json(200, live.flights.attribution())
        elif path == "/":
            self._send_json(200, {"endpoints": ROUTES})
        else:
            self._send_json(404, {"error": f"unknown path {path!r}",
                                  "endpoints": sorted(ROUTES)})

    # ------------------------------------------------------------ payloads

    def _healthz(self) -> dict:
        live = self._live
        payload: dict = {
            "status": "ok",
            "telemetry_enabled": obs.enabled(),
            "live_attached": live is not None,
        }
        if live is not None:
            slo_state = live.slo.state
            payload.update(
                heartbeat_steps=live.steps,
                sim_clock=live.clock,
                slo_state=slo_state,
                requests_tracked=len(live.flights),
            )
            if slo_state != "ok":
                payload["status"] = "degraded"
        return payload

    def _request_index(self, live: "LiveObs") -> dict:
        return {
            "active": live.flights.active_ids(),
            "completed": [r.request_id for r in live.flights.completed()],
            "failures": [r.request_id for r in live.flights.failures()],
            "summary": live.flights.summary(),
        }

    def _request_detail(self, live: "LiveObs", raw_id: str) -> None:
        try:
            request_id = int(raw_id)
        except ValueError:
            self._send_json(400, {"error": f"bad request id {raw_id!r}"})
            return
        rec = live.flights.get(request_id)
        if rec is None:
            self._send_json(
                404,
                {
                    "error": f"request {request_id} not tracked (evicted "
                             "or never seen)",
                    "request_id": request_id,
                    "active": live.flights.active_ids(),
                    "completed": live.flights.summary()["completed"],
                    "hint": "GET /requests lists tracked ids",
                },
            )
            return
        doc = rec.to_dict()
        doc["attribution"] = rec.attribution()
        self._send_json(200, doc)


class LiveHTTPServer:
    """Owns the listening socket and its daemon serving thread.

    Usage::

        server = LiveHTTPServer(live)
        url = server.start()          # ephemeral port by default
        ... engine.run(...) ...       # /metrics etc. live while it runs
        server.stop()
    """

    def __init__(
        self,
        live: "LiveObs | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.live = live
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (0 until :meth:`start`)."""
        if self._httpd is None:
            return self._port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> str:
        """Bind, spin up the daemon serving thread, and return the URL."""
        if self._httpd is not None:
            return self.url
        httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        httpd.daemon_threads = True
        httpd.live = self.live  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = Thread(
            target=httpd.serve_forever,
            name="repro-live-httpd",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "LiveHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
