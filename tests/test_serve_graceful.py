"""Tests for the hardened serving tier: graceful drain + slow clients.

Two ISSUE satellites, pinned deterministically:

* graceful shutdown — ``drain`` flips ``/healthz`` to ``draining``
  (503), stops accepting new connections, waits for in-flight requests
  up to a bounded deadline, stops an attached watcher thread, and
  closes the socket;
* per-connection socket timeouts — a stalled (slowloris-style) client
  is disconnected instead of pinning its handler thread, and never
  blocks other clients.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.serve.http import PslServer
from repro.serve.snapshots import SnapshotRegistry
from repro.update.upstream import SyntheticUpstream
from repro.update.watcher import Watcher, WatcherConfig
from repro.runtime.executor import RetryPolicy

from tests.test_serve_snapshots import make_store
from tests.test_update_upstream import make_truth
from tests.test_update_watcher import TODAY, make_prefix


def start_server(**kwargs) -> tuple[PslServer, threading.Thread]:
    server = PslServer(("127.0.0.1", 0), SnapshotRegistry(make_store()), **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def get_json(server: PslServer, path: str) -> tuple[int, dict]:
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestGracefulDrain:
    def test_drain_completes_and_closes_the_socket(self):
        server, thread = start_server()
        status, _ = get_json(server, "/healthz")
        assert status == 200
        assert server.drain(deadline=5.0)
        thread.join(timeout=5)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            get_json(server, "/healthz")

    def test_drain_is_idempotent(self):
        server, thread = start_server()
        assert server.drain(deadline=5.0)
        assert server.drain(deadline=5.0)  # second call: first verdict
        thread.join(timeout=5)

    def test_healthz_reports_draining_with_503_while_inflight_holds(self):
        server, thread = start_server()
        release = threading.Event()
        entered = threading.Event()
        real_site = server.engine.site

        def slow_site(hostname, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return real_site(hostname, **kwargs)

        server.engine.site = slow_site  # type: ignore[method-assign]

        # A keep-alive connection established BEFORE the drain begins:
        # its handler thread outlives the accept loop, which is exactly
        # how an operator still sees /healthz mid-drain.
        probe = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        probe.request("GET", "/healthz")
        first = probe.getresponse()
        first.read()  # consume fully so the connection can be reused
        assert first.status == 200

        inflight_result: dict[str, int] = {}

        def inflight_request() -> None:
            status, _ = get_json(server, "/site?host=www.example.co.uk")
            inflight_result["status"] = status

        worker = threading.Thread(target=inflight_request, daemon=True)
        worker.start()
        assert entered.wait(timeout=5)

        drain_result: dict[str, bool] = {}
        drainer = threading.Thread(
            target=lambda: drain_result.update(ok=server.drain(deadline=10.0)),
            daemon=True,
        )
        drainer.start()
        deadline = time.monotonic() + 5
        while not server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.draining

        # Mid-drain: the established connection still answers, as 503.
        probe.request("GET", "/healthz")
        response = probe.getresponse()
        body = json.loads(response.read())
        assert response.status == 503
        assert body["status"] == "draining"
        assert body["inflight"] >= 1
        probe.close()

        # The in-flight request is allowed to finish, then drain ends.
        release.set()
        worker.join(timeout=5)
        drainer.join(timeout=10)
        assert inflight_result["status"] == 200
        assert drain_result["ok"] is True
        thread.join(timeout=5)

    def test_drain_deadline_bounds_a_stuck_request(self):
        server, thread = start_server()
        release = threading.Event()

        def stuck_site(hostname, **kwargs):
            release.wait(timeout=30)
            raise RuntimeError("unreached in time")

        server.engine.site = stuck_site  # type: ignore[method-assign]
        worker = threading.Thread(
            target=lambda: get_json(server, "/site?host=example.com"), daemon=True
        )
        worker.start()
        deadline = time.monotonic() + 5
        while server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        started = time.monotonic()
        drained = server.drain(deadline=0.5)
        elapsed = time.monotonic() - started
        assert drained is False  # truthfully reports the stuck request
        assert elapsed < 5.0  # bounded, not hung
        release.set()
        worker.join(timeout=5)
        thread.join(timeout=5)

    def test_drain_stops_an_attached_watcher(self):
        truth = make_truth()
        registry = SnapshotRegistry(make_prefix(truth, 3))
        server = PslServer(("127.0.0.1", 0), registry)
        upstream = SyntheticUpstream(truth, sleep=lambda _: None)
        watcher = Watcher(
            registry,
            upstream,
            config=WatcherConfig(poll_interval=0.05, retry=RetryPolicy(max_attempts=2)),
            today=lambda: TODAY,
        )
        server.attach_watcher(watcher)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        watcher.start()
        assert watcher.running
        assert server.drain(deadline=5.0)
        assert not watcher.running
        thread.join(timeout=5)


class TestSlowClients:
    def test_stalled_client_is_disconnected_not_immortal(self):
        server, thread = start_server(request_timeout=0.3)
        try:
            stalled = socket.create_connection(server.server_address[:2], timeout=10)
            stalled.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finishes headers
            # The per-connection timeout must sever it: a closed peer
            # surfaces as EOF on recv.
            stalled.settimeout(5)
            assert stalled.recv(1024) == b""
            stalled.close()
        finally:
            assert server.drain(deadline=5.0)
            thread.join(timeout=5)

    def test_stalled_client_does_not_block_others(self):
        # Regression for the satellite: with a tight handler pool a
        # half-open connection must not starve well-behaved clients.
        server, thread = start_server(request_timeout=1.0, max_inflight=4)
        try:
            stalled = [
                socket.create_connection(server.server_address[:2], timeout=10)
                for _ in range(4)
            ]
            for sock in stalled:
                sock.sendall(b"GET /site?host=a.com HTTP/1.1\r\n")  # incomplete
            # Stalled sockets never entered a handler body, so they hold
            # no admission slots: live clients keep getting answers.
            for _ in range(5):
                status, body = get_json(server, "/site?host=www.example.co.uk")
                assert status == 200
                assert body["site"] == "example.co.uk"
            for sock in stalled:
                sock.close()
        finally:
            assert server.drain(deadline=5.0)
            thread.join(timeout=5)

    def test_timeout_disabled_when_none(self):
        server, thread = start_server(request_timeout=None)
        try:
            status, _ = get_json(server, "/healthz")
            assert status == 200
        finally:
            assert server.drain(deadline=5.0)
            thread.join(timeout=5)

    def test_request_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            PslServer(
                ("127.0.0.1", 0),
                SnapshotRegistry(make_store()),
                request_timeout=0.0,
            )


class TestCliSignals:
    def test_sigterm_right_after_listening_line_drains_and_exits_zero(self):
        """The stop handlers are in place before ``psl-serve`` announces
        its address: SIGTERM sent the moment "listening on" appears
        drains the server (exit 0), never kills it (exit -15)."""
        import os
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve.cli", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            for line in child.stdout:
                if line.startswith("listening on"):
                    child.send_signal(signal.SIGTERM)
                    break
            else:
                pytest.fail("psl-serve exited before listening")
            tail = child.stdout.read()
            assert child.wait(timeout=60) == 0
            assert "drained cleanly" in tail
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
