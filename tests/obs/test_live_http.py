"""HTTP exporter smoke tests: real sockets on an ephemeral port.

Exercises every route of :class:`LiveHTTPServer` through ``urllib``
against a hand-fed :class:`LiveObs` bundle — no serving engine needed.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.live import LiveObs
from repro.obs.live.httpd import ROUTES, LiveHTTPServer
from repro.serving.request import Request


def _get(url: str):
    """Return (status, content_type, body_bytes) — errors included."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.headers.get_content_type(), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get_content_type(), err.read()


def _get_json(url: str):
    status, ctype, body = _get(url)
    assert ctype == "application/json"
    return status, json.loads(body)


@pytest.fixture()
def live():
    """A LiveObs with a few requests and heartbeats already fed in."""
    bundle = LiveObs(window_seconds=1.0)
    req1 = Request(1, prompt_len=16, max_new_tokens=8)
    bundle.flights.admitted(req1, 0.1, kv_blocks=2)
    bundle.flights.prefill_done(1)
    bundle.flights.first_token(1, 0.2)
    bundle.flights.step_cost(0.4, gemm=0.2, attention=0.1, kv_dequant=0.05,
                             overhead=0.05)
    bundle.flights.close(req1, 0.5, outcome="finished", generated=8,
                         slo_met=True)
    bundle.flights.close(
        Request(2, prompt_len=16, max_new_tokens=8, arrival_time=0.1),
        0.6, outcome="failed", reason="kv exhausted",
    )
    bundle.slo.record(0.5, met=True, request_id=1)
    bundle.slo.record(0.6, met=False, request_id=2)
    bundle.heartbeat(0.7, {"serving.step_seconds": 0.01,
                           "serving.batch_size": 2.0})
    return bundle


@pytest.fixture()
def server(live):
    srv = LiveHTTPServer(live)
    srv.start()
    yield srv
    srv.stop()


class TestRoutes:
    def test_index_lists_endpoints(self, server):
        status, doc = _get_json(server.url + "/")
        assert status == 200
        assert doc["endpoints"] == ROUTES

    def test_metrics_is_prometheus_text(self, server):
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype == "text/plain"
        assert isinstance(body.decode(), str)

    def test_healthz_reports_live_state(self, server):
        status, doc = _get_json(server.url + "/healthz")
        assert status == 200
        assert doc["live_attached"] is True
        assert doc["heartbeat_steps"] == 1
        assert doc["sim_clock"] == pytest.approx(0.7)
        assert doc["requests_tracked"] == 2
        assert doc["status"] == "ok"
        assert doc["slo_state"] == "ok"

    def test_slo_snapshot(self, server):
        status, doc = _get_json(server.url + "/slo")
        assert status == 200
        assert doc["lifetime_total"] == 2
        assert doc["lifetime_misses"] == 1

    def test_windows(self, server):
        status, doc = _get_json(server.url + "/windows")
        assert status == 200
        assert doc["serving.step_seconds"]["count"] == 1

    def test_requests_index(self, server):
        status, doc = _get_json(server.url + "/requests")
        assert status == 200
        assert doc["active"] == []
        assert doc["completed"] == [1, 2]
        assert doc["failures"] == [2]
        assert doc["summary"]["outcomes"]["failed"] == 1

    def test_request_detail(self, server):
        status, doc = _get_json(server.url + "/requests/2")
        assert status == 200
        assert doc["request_id"] == 2
        assert doc["outcome"] == "failed"
        assert doc["failure_reason"] == "kv exhausted"
        events = [e["event"] for e in doc["timeline"]]
        assert events == ["queued", "failed"]
        # Never admitted: its whole e2e was queue, in both views.
        assert doc["queue_seconds"] == pytest.approx(0.5)
        assert doc["attribution"]["queue_seconds"] == doc["queue_seconds"]
        assert doc["attribution"]["e2e_seconds"] == doc["e2e_seconds"]

    def test_request_detail_carries_attribution(self, server):
        status, doc = _get_json(server.url + "/requests/1")
        assert status == 200
        attrib = doc["attribution"]
        assert attrib["outcome"] == "finished"
        assert attrib["queue_seconds"] == pytest.approx(0.1)
        assert attrib["decode"]["gemm"] == pytest.approx(0.2)
        assert doc["phases"]["queue"] == pytest.approx(0.1)
        # One value per name: the record's phases are the ledger buckets.
        assert doc["phases"]["decode"] == sum(attrib["decode"].values())
        assert doc["kv_blocks_peak"] == attrib["kv"]["blocks_peak"] == 2

    def test_attribution_snapshot(self, server):
        status, doc = _get_json(server.url + "/attribution")
        assert status == 200
        assert doc["completed"] == 2
        assert [r["request_id"] for r in doc["records"]] == [1, 2]
        assert doc["aggregate"]["dominant"] in doc["aggregate"]["fractions"]

    def test_routes_retain_the_same_requests(self):
        """One capacity: /requests and /attribution keep the same ids."""
        bundle = LiveObs(capacity=3)
        for rid in range(5):
            bundle.flights.close(
                Request(rid, prompt_len=4, max_new_tokens=2), 0.1 * rid,
                outcome="rejected",
            )
        with LiveHTTPServer(bundle) as srv:
            _, index = _get_json(srv.url + "/requests")
            _, attribution = _get_json(srv.url + "/attribution")
        assert index["completed"] == [2, 3, 4]
        assert [r["request_id"] for r in attribution["records"]] == [2, 3, 4]
        assert attribution["capacity"] == 3
        assert attribution["evicted"] == index["summary"]["evictions"] == 2

    def test_trailing_slash_is_tolerated(self, server):
        status, _ = _get_json(server.url + "/healthz/")
        assert status == 200


class TestErrors:
    def test_unknown_request_id_404(self, server):
        status, doc = _get_json(server.url + "/requests/999")
        assert status == 404
        assert "not tracked" in doc["error"]
        assert doc["request_id"] == 999
        assert doc["completed"] == 2
        assert "hint" in doc

    def test_unknown_request_id_404_counts_only_completed(self):
        bundle = LiveObs()
        bundle.flights.queued(Request(1, prompt_len=4, max_new_tokens=2))
        with LiveHTTPServer(bundle) as srv:
            status, doc = _get_json(srv.url + "/requests/999")
        assert status == 404
        assert doc["active"] == [1]
        assert doc["completed"] == bundle.flights.summary()["completed"] == 0

    def test_bad_request_id_400(self, server):
        status, doc = _get_json(server.url + "/requests/abc")
        assert status == 400
        assert "bad request id" in doc["error"]

    def test_unknown_path_404(self, server):
        status, doc = _get_json(server.url + "/nope")
        assert status == 404
        assert "/metrics" in doc["endpoints"]

    def test_503_when_no_live_attached(self):
        srv = LiveHTTPServer(live=None)
        srv.start()
        try:
            for path in ("/slo", "/windows", "/requests", "/requests/1",
                         "/attribution"):
                status, doc = _get_json(srv.url + path)
                assert status == 503, path
                assert "no live" in doc["error"]
            # /healthz and /metrics still answer without a live bundle.
            status, doc = _get_json(srv.url + "/healthz")
            assert status == 200
            assert doc["live_attached"] is False
        finally:
            srv.stop()


class TestLifecycle:
    def test_ephemeral_port_is_bound(self, server):
        assert server.port != 0

    def test_start_is_idempotent(self, server):
        assert server.start() == server.url

    def test_stop_closes_socket(self, live):
        srv = LiveHTTPServer(live)
        url = srv.start()
        srv.stop()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=1.0)

    def test_context_manager(self, live):
        with LiveHTTPServer(live) as srv:
            status, _ = _get_json(srv.url + "/healthz")
            assert status == 200
