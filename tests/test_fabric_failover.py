"""Federated failover, end to end against real processes: a 3-shard
ring behind seeded fault proxies, one primary shard killed with
``SIGKILL`` mid-sweep, and the sweep must still complete via replica
failover with results bit-identical to a fault-free single-shard
baseline.  This is the acceptance contract for the fabric: the
content-addressed idempotency that makes a crash-restart bit-identical
(``test_service_crash``) is exactly what makes cross-shard
resubmission bit-identical."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.common.errors import ShardUnavailableError
from repro.service.client import ServiceClient
from repro.service.fabric import FaultProxy, FederatedClient
from repro.service.jobs import JobSpec
from repro.service.server import ServiceServer
from repro.service.supervisor import Supervisor

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Long enough (~2s of simulation) that SIGKILL reliably lands while
#: the job is running on its primary.
LONG = JobSpec(workload="mcf_r", scheme="unsafe", instructions=60000,
               threads=1)
SWEEP = [
    LONG,
    JobSpec(workload="mcf_r", scheme="unsafe", instructions=1500,
            threads=1),
    JobSpec(workload="mcf_r", scheme="fence-lp", instructions=1600,
            threads=1),
    JobSpec(workload="radix", scheme="unsafe", instructions=1700,
            threads=1),
]


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def reserve_ports(count):
    """``count`` distinct free ports, each held bound by the returned
    socket until the caller closes it, so a listener bound to port 0
    meanwhile (a ``FaultProxy``) cannot be handed one of them."""
    socks = []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    return [sock.getsockname()[1] for sock in socks], socks


def start_shard(root, port, ring=None, shard_index=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro", "serve", "--root", str(root),
            "--port", str(port), "--jobs", "1", "--no-fsync"]
    if ring is not None:
        argv += ["--ring", ",".join(ring),
                 "--shard-index", str(shard_index)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # health-check on the shard's real port, bypassing any proxy
    probe = ServiceClient(f"http://127.0.0.1:{port}", retries=0,
                          timeout_s=5.0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            probe.healthz()
            return proc
        except (ConnectionError, OSError):
            if proc.poll() is not None:
                raise AssertionError(
                    f"repro serve exited early with {proc.returncode}")
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("shard never became healthy")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


def wait_running(client, job_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.job(job_id)["status"]
        if status == "running":
            return
        if status in ("done", "failed"):
            raise AssertionError(f"job finished ({status}) before the "
                                 f"kill could land; raise LONG")
        time.sleep(0.02)
    raise AssertionError("job never started running on its primary")


@pytest.mark.slow
def test_kill9_primary_mid_sweep_is_bit_identical(tmp_path):
    # -- fault-free single-shard baseline ------------------------------
    port = free_port()
    proc = start_shard(tmp_path / "baseline", port)
    try:
        solo = ServiceClient(f"http://127.0.0.1:{port}", retries=3,
                             backoff_s=0.05, timeout_s=10.0)
        baseline = {spec.job_id(): solo.run(spec,
                                            timeout_s=120.0).to_dict()
                    for spec in SWEEP}
    finally:
        stop(proc)

    # -- 3-shard ring, every shard behind a seeded fault proxy ---------
    ports, held = reserve_ports(3)
    proxies = [FaultProxy(upstream_port=p, seed=11 + i,
                          latency_prob=0.3, latency_s=0.02)
               for i, p in enumerate(ports)]
    for sock in held:  # the shards bind these next
        sock.close()
    for proxy in proxies:
        proxy.start()
    ring = [proxy.url for proxy in proxies]
    procs = []
    try:
        for index, port in enumerate(ports):
            procs.append(start_shard(tmp_path / f"shard{index}", port,
                                     ring=ring, shard_index=index))

        fabric = FederatedClient(ring, retries=2, backoff_s=0.05,
                                 jitter_seed=5, timeout_s=10.0)
        long_id = LONG.job_id()
        victim_url = fabric.ring.primary(long_id)
        victim = ring.index(victim_url)

        # shards agree with the client about the ring they form
        survivor_url = next(u for u in ring if u != victim_url)
        ring_doc = fabric.client(survivor_url)._request("GET", "/ring")
        assert ring_doc["ring"] == ring

        fabric.submit_all(SWEEP)
        wait_running(fabric.client(victim_url), long_id)
        os.kill(procs[victim].pid, signal.SIGKILL)  # no drain, no goodbye
        procs[victim].wait(timeout=10)
        assert procs[victim].poll() is not None

        results = fabric.gather(SWEEP, timeout_s=300.0)

        # the sweep completed via failover, not via luck
        assert fabric.counters["failovers"] >= 1
        assert fabric.counters["shard_errors"] >= 1
        # and the long job's replica really is where it was served
        assert fabric.ring.route(long_id)[1] != victim_url

        # bit-identical to the fault-free single-shard run
        assert {job_id: result.to_dict()
                for job_id, result in results.items()} == baseline

        stats = fabric.stats()
        assert stats["shards"][victim_url].get("unreachable")
    finally:
        for proc in procs:
            stop(proc)
        for proxy in proxies:
            proxy.stop()


def test_run_fabric_sweep_records_cells(tmp_path):
    """The bench-side wrapper: a sweep through the fabric comes back as
    one record with per-cell cycles and the fabric's own stats."""
    from repro.sim.bench import run_fabric_sweep
    supervisor = Supervisor(str(tmp_path / "svc"), jobs=1, fsync=False)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    supervisor.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        doc = run_fabric_sweep([url], apps=["mcf_r"],
                               schemes=["unsafe", "fence-lp"],
                               instructions=500, timeout_s=120.0)
        assert doc["bench"] == "fabric-sweep"
        assert set(doc["cells"]) == {"mcf_r/unsafe", "mcf_r/fence-lp"}
        assert all(cell["cycles"] > 0 for cell in doc["cells"].values())
        assert doc["fabric"]["counters"]["requests"] >= 2
        assert doc["fabric"]["ring"]["nodes"] == [url]
    finally:
        server.shutdown()
        server.server_close()
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


def test_whole_route_down_raises_shard_unavailable(tmp_path):
    """When every replica in a job's route is unreachable, the fabric
    surfaces the documented 503 ``shard-unavailable`` taxonomy error
    instead of a raw socket error."""
    supervisor = Supervisor(str(tmp_path / "svc"), jobs=1, fsync=False)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        with FaultProxy(upstream_port=server.server_address[1]) as proxy:
            fabric = FederatedClient([proxy.url], retries=0,
                                     backoff_s=0.01, timeout_s=5.0)
            proxy.partition()
            with pytest.raises(ShardUnavailableError) as excinfo:
                fabric.submit(SWEEP[1])
            assert excinfo.value.code == "shard-unavailable"
            assert excinfo.value.http_status == 503
            assert fabric.counters["shard_errors"] == 1
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()
