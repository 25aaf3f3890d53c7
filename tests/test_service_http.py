"""HTTP surface + client: routes, the wire error taxonomy, and
backpressure, against an in-process ``ServiceServer`` on an ephemeral
port."""

import http.client
import json
import socket
import threading

import pytest

from repro.common.errors import (BadRequestError, DrainingError,
                                 JobNotFoundError, QueueFullError,
                                 ServiceError)
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.server import ServiceServer
from repro.service.supervisor import Supervisor

SPEC = JobSpec(workload="mcf_r", scheme="unsafe", instructions=300,
               threads=1)


@pytest.fixture()
def idle_url(tmp_path):
    """URL of a live server whose worker never starts: jobs stay
    queued."""
    supervisor = Supervisor(str(tmp_path / "idle"), jobs=1, fsync=False)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()


def raw_request(url, method, path, headers=()):
    """Send one hand-built request and return ``(status, body doc)``.

    The 1 s socket timeout is the test's answer deadline: a server that
    blocks or spins on the request fails with ``TimeoutError``."""
    host, port = url[len("http://"):].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=1.0)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture()
def service(tmp_path):
    """(supervisor, client) around a live server; worker started."""
    supervisor = Supervisor(str(tmp_path / "service"), jobs=1,
                            fsync=False, heartbeat_s=0.02)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    supervisor.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                           retries=2, backoff_s=0.01, timeout_s=10.0)
    try:
        yield supervisor, client
    finally:
        server.shutdown()
        server.server_close()
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


def test_health_and_readiness(service):
    supervisor, client = service
    assert client.healthz() == {"ok": True}
    ready = client.readyz()
    assert ready["ready"] is True
    assert ready["level"] == "full"


def test_submit_wait_and_idempotent_resubmit(service):
    supervisor, client = service
    result = client.run(SPEC, timeout_s=60.0)
    assert result.cycles > 0
    assert result.workload_name == "mcf_r"
    # resubmission: 200 done immediately, result embedded on GET
    doc = client.submit(SPEC)
    assert doc["status"] == "done"
    full = client.job(doc["job"])
    assert full["result"]["cycles"] == result.cycles
    assert supervisor.counters["idempotent_hits"] >= 1


def test_error_taxonomy_crosses_the_wire(service):
    _supervisor, client = service
    with pytest.raises(BadRequestError) as bad:
        client.submit(JobSpec(workload="nosuch_r"))
    assert bad.value.code == "invalid-request"
    with pytest.raises(JobNotFoundError) as missing:
        client.job("0" * 64)
    assert missing.value.code == "not-found"
    with pytest.raises(JobNotFoundError):
        client.job("")  # routes to GET /jobs/ -> no such route
    # malformed JSON body -> 400 with a structured error doc
    with pytest.raises(BadRequestError):
        client._request_once("POST", "/jobs", None)


def test_unknown_spec_field_rejected(service):
    _supervisor, client = service
    import urllib.request
    request = urllib.request.Request(
        client.base_url + "/jobs",
        data=json.dumps({"workload": "mcf_r", "wat": 1}).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with pytest.raises(Exception) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 400


def test_queue_full_is_429_with_retry_after(tmp_path):
    # worker never started, capacity 1: the second distinct job trips
    # admission control
    supervisor = Supervisor(str(tmp_path / "svc"), jobs=1,
                            queue_capacity=1, fsync=False)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                           retries=0, timeout_s=10.0)
    try:
        client.submit(SPEC)
        other = JobSpec(workload="mcf_r", scheme="unsafe",
                        instructions=301, threads=1)
        with pytest.raises(QueueFullError) as excinfo:
            client.submit(other)
        assert excinfo.value.code == "queue-full"
        assert excinfo.value.retry_after_s >= 1
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()


def test_drain_flips_readiness_and_refuses_jobs(service):
    supervisor, client = service
    assert client.drain() == {"draining": True}
    supervisor.drain(wait=True, timeout_s=10.0)  # join the async drain
    with pytest.raises(DrainingError) as not_ready:
        client._request_once("GET", "/readyz", None)
    assert not_ready.value.code == "draining"
    with pytest.raises(DrainingError):
        client._request_once("POST", "/jobs", SPEC.to_doc())
    assert client.healthz() == {"ok": True}  # alive, just not ready


def test_stats_endpoint(service):
    supervisor, client = service
    stats = client.stats()
    assert stats["level"] == "full"
    assert stats["queue_capacity"] == 64
    assert "counters" in stats


def test_client_backoff_honors_retry_after():
    client = ServiceClient("http://127.0.0.1:1", retries=0,
                           backoff_s=0.1, backoff_cap_s=5.0)
    assert client._delay(0, None) <= 0.1
    assert client._delay(0, 2.5) >= 2.5  # server hint is a floor
    assert client._delay(20, None) <= 5.0  # cap beats exponent
    # deterministic jitter: every client replays the same schedule
    a = ServiceClient("http://x")
    b = ServiceClient("http://x")
    assert [a._delay(i, None) for i in range(5)] \
        == [b._delay(i, None) for i in range(5)]


def test_watch_nan_timeout_is_400(idle_url):
    job_id = ServiceClient(idle_url, retries=0).submit(SPEC)["job"]
    status, doc = raw_request(
        idle_url, "GET", f"/jobs?watch={job_id}&timeout_s=nan")
    assert status == 400
    assert doc["error"]["code"] == "invalid-request"


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_malformed_content_length_is_400(idle_url, length):
    status, doc = raw_request(idle_url, "POST", "/jobs",
                              [("Content-Length", length)])
    assert status == 400
    assert doc["error"]["code"] == "invalid-request"


def test_unread_body_is_never_parsed_as_a_request(idle_url):
    """A 400 that leaves the body unread also closes the connection, so
    the body's bytes can never run as a second request."""
    host, port = idle_url[len("http://"):].split(":")
    smuggled = b"POST /drain HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
    with socket.create_connection((host, int(port)), timeout=1.0) as sock:
        sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
                     + smuggled)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.count(b"HTTP/1.1 ") == 1


def test_wire_error_doc_roundtrip():
    err = QueueFullError("full up", retry_after_s=3.25)
    clone = ServiceError.from_doc(err.to_doc())
    assert isinstance(clone, QueueFullError)
    assert clone.retry_after_s == 3.25
    assert str(clone) == "full up"
    fallback = ServiceError.from_doc({"code": "never-heard-of-it",
                                      "message": "?"})
    assert type(fallback) is ServiceError
