"""The streaming results feed (long-poll ``GET /jobs?watch=``), the
client's ``wait`` built on it, and the backlog hint on queued jobs."""

import threading

import pytest

from repro.common.errors import BadRequestError, JobNotFoundError
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.server import ServiceServer
from repro.service.supervisor import Supervisor

SPEC = JobSpec(workload="mcf_r", scheme="unsafe", instructions=300,
               threads=1)


def start_server(supervisor):
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def service(tmp_path):
    """(supervisor, client) around a live server; worker started."""
    supervisor = Supervisor(str(tmp_path / "service"), jobs=1,
                            fsync=False, heartbeat_s=0.02)
    server, url = start_server(supervisor)
    supervisor.start()
    client = ServiceClient(url, retries=2, backoff_s=0.01,
                           timeout_s=10.0)
    try:
        yield supervisor, client
    finally:
        server.shutdown()
        server.server_close()
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


@pytest.fixture()
def idle_service(tmp_path):
    """A service whose worker is *not* running: jobs stay queued, which
    pins down pending/timeout behavior deterministically."""
    supervisor = Supervisor(str(tmp_path / "idle"), jobs=1, fsync=False)
    server, url = start_server(supervisor)
    client = ServiceClient(url, retries=0, timeout_s=10.0)
    try:
        yield supervisor, client
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()


class TestWatchEndpoint:
    def test_watch_returns_terminal_doc_with_result(self, service):
        _supervisor, client = service
        job_id = client.submit(SPEC)["job"]
        done = client.watch([job_id], timeout_s=30.0)
        assert set(done) == {job_id}
        assert done[job_id]["status"] == "done"
        assert done[job_id]["result"]["cycles"] > 0

    def test_wait_prefers_watch_and_never_polls(self, service,
                                                monkeypatch):
        _supervisor, client = service

        def no_polling(job_id):
            raise AssertionError(f"wait polled GET /jobs/{job_id[:16]}")

        monkeypatch.setattr(client, "job", no_polling)
        result = client.run(SPEC, timeout_s=60.0)
        assert result.cycles > 0

    def test_watch_timeout_reports_pending(self, idle_service):
        _supervisor, client = idle_service
        job_id = client.submit(SPEC)["job"]
        doc = client._request(
            "GET", f"/jobs?watch={job_id}&timeout_s=0.1")
        assert doc["jobs"] == {}
        assert doc["pending"] == [job_id]

    def test_watch_unknown_job_is_404(self, service):
        _supervisor, client = service
        with pytest.raises(JobNotFoundError):
            client._request_once(
                "GET", f"/jobs?watch={'0' * 64}&timeout_s=0.1", None)

    def test_watch_without_ids_is_400(self, service):
        _supervisor, client = service
        with pytest.raises(BadRequestError):
            client._request_once("GET", "/jobs?watch=", None)
        with pytest.raises(BadRequestError):
            client._request_once(
                "GET", "/jobs?watch=abc&timeout_s=soon", None)

    def test_queued_status_carries_backpressure_hint(self, idle_service):
        _supervisor, client = idle_service
        doc = client.submit(SPEC)
        assert doc["status"] == "queued"
        assert doc["retry_after_s"] > 0
