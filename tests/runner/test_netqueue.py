"""Unit tests for the network work-queue transport (``spoold`` + NetSpool).

The cross-transport byte-identity contract lives in
``tests/differential/test_executor_contract.py``; this file covers the
mechanics: URL parsing, JSON-lines protocol framing (malformed requests,
unknown ops, version handshakes), claim/result round-trips over a live
server, stale-claim rejection (the network transport's vanished-claim
path), connection-loss degradation, and server-side GC/status.
"""

from __future__ import annotations

import json
import os
import socket
import threading

import pytest

from repro.runner.cache import code_version
from repro.runner.executors import Spool, open_spool
from repro.runner.netqueue import (DEFAULT_PORT, NetSpool, NetSpoolError,
                                   PROTOCOL_VERSION, SpoolServer,
                                   parse_spool_url)
from repro.runner.scenarios import Scenario
from repro.runner.worker import _execute, run_worker

CHEAP = Scenario(name="unit/chain", kind="engine_chain",
                 params={"n_msgs": 5, "stages": 1})


def _job_payload(job_id, scenario=CHEAP, backend="engine"):
    return {
        "job": job_id,
        "chunk": {"kind": scenario.kind, "params": [dict(scenario.params)]},
        "backend": backend,
        "segment_memo_dir": None,
        "code_version": code_version(),
    }


@pytest.fixture()
def server(tmp_path):
    instance = SpoolServer(tmp_path / "spool", host="127.0.0.1", port=0)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.close()
    thread.join(timeout=5.0)


class TestSpoolUrlParsing:
    def test_host_and_port(self):
        assert parse_spool_url("tcp://10.0.0.7:7000") == ("10.0.0.7", 7000)

    def test_port_defaults(self):
        assert parse_spool_url("tcp://queuehost") == ("queuehost", DEFAULT_PORT)

    def test_rejects_non_tcp_and_malformed_urls(self):
        for bad in ("http://h:1", "/just/a/path", "tcp://:7000",
                    "tcp://h:notaport", "tcp://h:0", "tcp://h:70000"):
            with pytest.raises(ValueError):
                parse_spool_url(bad)

    def test_open_spool_selects_the_transport(self, tmp_path):
        assert isinstance(open_spool(tmp_path / "dir"), Spool)
        assert isinstance(open_spool("tcp://h:7000"), NetSpool)


class TestProtocolFraming:
    """Raw-socket conversations: the wire contract itself."""

    def _converse(self, server, lines):
        """Send raw lines, return the response for each (None once the
        server hangs up)."""
        with socket.create_connection(server.address, timeout=10.0) as sock:
            handle = sock.makefile("rwb")
            responses = []
            for line in lines:
                handle.write(line + b"\n")
                handle.flush()
                reply = handle.readline()
                responses.append(json.loads(reply) if reply else None)
            return responses

    def test_malformed_json_gets_an_error_then_disconnect(self, server):
        first, second = self._converse(
            server, [b"{definitely not json", b'{"op": "hello"}'])
        assert first["ok"] is False and "malformed" in first["error"]
        assert second is None  # server hung up after the garbage

    def test_unknown_op_errors_but_keeps_the_connection(self, server):
        first, second = self._converse(
            server,
            [b'{"op": "warp-core-eject"}',
             json.dumps({"op": "hello",
                         "proto": PROTOCOL_VERSION}).encode()])
        assert first["ok"] is False and "unknown op" in first["error"]
        assert second["ok"] is True  # the connection survived

    def test_hello_rejects_a_protocol_version_mismatch(self, server):
        (reply,) = self._converse(
            server, [json.dumps({"op": "hello", "proto": 999}).encode()])
        assert reply["ok"] is False
        assert "protocol version" in reply["error"]

    def test_many_ops_share_one_connection(self, server):
        hello = json.dumps({"op": "hello", "proto": PROTOCOL_VERSION})
        now = json.dumps({"op": "now"})
        replies = self._converse(
            server, [hello.encode(), now.encode(), now.encode()])
        assert all(reply["ok"] for reply in replies)
        assert replies[1]["now"] > 0


class TestNetSpoolRoundTrips:
    def test_enqueue_claim_result_round_trip(self, server):
        client = NetSpool(server.url).ensure()
        payload = _job_payload("b.00000000")
        client.enqueue("b.00000000", payload)
        claimed = client.claim("net-worker")
        assert claimed is not None and claimed.job_id == "b.00000000"
        # The payload travelled with the claim, byte for byte.
        assert json.loads(claimed.read()) == payload
        assert client.claim("other-worker") is None  # exclusivity held
        assert client.finish(claimed, {"job": claimed.job_id, "x": 1}) is True
        results = client.take_results("b.")
        assert set(results) == {"b.00000000"}
        assert json.loads(results["b.00000000"]) == {"job": "b.00000000",
                                                     "x": 1}
        assert client.take_results("b.") == {}  # consumed exactly once
        client.close()

    def test_enqueue_many_is_claimed_in_submission_order(self, server):
        client = NetSpool(server.url).ensure()
        jobs = [(f"b.{i:08d}", _job_payload(f"b.{i:08d}")) for i in range(5)]
        assert client.enqueue_many(jobs) == 5
        claimed = [client.claim("w").job_id for _ in range(5)]
        assert claimed == [job_id for job_id, _ in jobs]
        client.close()

    def test_heartbeats_live_workers_and_clear(self, server):
        client = NetSpool(server.url).ensure()
        client.beat("net-worker", info={"pid": 1, "processed": 3})
        assert client.live_workers(within_s=60.0) == ["net-worker"]
        status = client.status()
        assert [w["worker"] for w in status["workers"]] == ["net-worker"]
        assert status["workers"][0]["processed"] == 3
        client.clear_heartbeat("net-worker")
        assert client.live_workers(within_s=60.0) == []
        client.close()

    def test_stale_claim_result_is_rejected_server_side(self, server):
        # The network transport's vanished-claim path: a stalled worker's
        # claim is orphan-requeued away; when the stalled worker finally
        # publishes, the server must drop the result (the job belongs to
        # the new owner) and the worker must not count it as processed.
        stalled = NetSpool(server.url).ensure()
        healthy = NetSpool(server.url).ensure()
        stalled.enqueue("b.00000000", _job_payload("b.00000000"))
        stale_claim = stalled.claim("stalled-worker")
        assert stale_claim is not None
        # Death certificate: backdate the server-side claim file.
        (claim_file,) = server.spool.claimed_dir.glob("*.json")
        os.utime(claim_file, (1.0, 1.0))
        assert stalled.requeue_orphans(30.0, prefix="b.") == ["b.00000000"]
        fresh_claim = healthy.claim("healthy-worker")
        assert fresh_claim is not None
        assert stalled.finish(stale_claim, {"owner": "stalled"}) is False
        assert healthy.finish(fresh_claim, {"owner": "healthy"}) is True
        results = healthy.take_results("b.")
        assert json.loads(results["b.00000000"]) == {"owner": "healthy"}
        stalled.close()
        healthy.close()

    def test_requeues_are_counted_in_status(self, server):
        client = NetSpool(server.url).ensure()
        client.enqueue("b.00000000", _job_payload("b.00000000"))
        client.claim("doomed-worker")
        (claim_file,) = server.spool.claimed_dir.glob("*.json")
        os.utime(claim_file, (1.0, 1.0))
        client.requeue_orphans(30.0, prefix="b.")
        assert client.status()["requeues"] == {"b.00000000": 1}
        client.close()

    def test_worker_loop_runs_against_a_tcp_spool(self, server):
        client = NetSpool(server.url).ensure()
        client.enqueue("b.00000000", _job_payload("b.00000000"))
        processed = run_worker(server.url, poll_s=0.01, max_jobs=1,
                               worker_id="tcp-worker")
        assert processed == 1
        results = client.take_results("b.")
        payload = json.loads(results["b.00000000"])
        assert payload["kind"] == "engine_chain"
        assert len(payload["results"]) == 1
        assert payload["code_version"] == code_version()
        # The worker cleared its heartbeat on exit.
        assert client.live_workers(within_s=60.0) == []
        client.close()

    def test_gc_over_the_network(self, server):
        client = NetSpool(server.url).ensure()
        client.enqueue("b.00000000", _job_payload("b.00000000"))
        client.claim("dead-worker")
        for path in server.spool.claimed_dir.glob("*.json"):
            os.utime(path, (1.0, 1.0))
        report = client.gc(30.0)
        assert report["removed"]["claims"] == 1
        with pytest.raises(ValueError):
            client.gc(-1.0)
        client.close()


class TestConnectionLossDegradation:
    """A NetSpool pointed at a dead server must degrade, not crash: polling
    operations return their empty results (the caller's loop retries --
    which is what rides out a server restart), one-shot operations raise."""

    @pytest.fixture()
    def dead_url(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return f"tcp://127.0.0.1:{port}"

    def test_polling_operations_return_empty(self, dead_url):
        client = NetSpool(dead_url)
        assert client.claim("w") is None
        assert client.take_results("b.") == {}
        assert client.requeue_orphans(30.0, prefix="b.") == []
        assert client.live_workers(within_s=60.0) == []
        client.beat("w")  # must not raise
        client.clear_heartbeat("w")
        client.abandon("b.")
        client.close()

    def test_one_shot_operations_raise(self, dead_url):
        client = NetSpool(dead_url)
        with pytest.raises(NetSpoolError):
            client.ensure()
        with pytest.raises(NetSpoolError):
            client.status()
        with pytest.raises(NetSpoolError):
            client.gc(60.0)
        client.close()

    def test_client_reconnects_after_a_server_restart(self, tmp_path):
        first = SpoolServer(tmp_path / "spool", host="127.0.0.1", port=0)
        port = first.address[1]
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        client = NetSpool(first.url).ensure()
        client.enqueue("b.00000000", _job_payload("b.00000000"))
        first.shutdown()
        first.close()
        thread.join(timeout=5.0)
        # Same directory, same port: the disk state *is* the queue.
        second = SpoolServer(tmp_path / "spool", host="127.0.0.1", port=port)
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        try:
            claimed = client.claim("survivor")
            assert claimed is not None and claimed.job_id == "b.00000000"
            client.close()
        finally:
            second.shutdown()
            second.close()
            thread.join(timeout=5.0)


class TestVanishedClaimBothTransports:
    """``_execute`` + publish for a claim requeued away mid-execution: the
    directory transport detects it at read time, the network transport at
    publish time -- either way nothing of the stalled worker's survives."""

    def test_directory_transport_detects_at_read_time(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("b.00000000", _job_payload("b.00000000"))
        claimed = spool.claim("stalled-worker")
        claimed.path.unlink()  # the orphan requeue, as seen by the worker
        assert _execute(claimed, "stalled-worker") is None
        assert not list(spool.results_dir.glob("*.json"))

    def test_network_transport_detects_at_publish_time(self, server):
        client = NetSpool(server.url).ensure()
        client.enqueue("b.00000000", _job_payload("b.00000000"))
        claimed = client.claim("stalled-worker")
        # The claim travelled with its payload, so the read still works and
        # execution proceeds obliviously...
        result = _execute(claimed, "stalled-worker")
        assert result is not None and result["kind"] == "engine_chain"
        # ...but the claim has been requeued away in the meantime, and the
        # publish is where the stale copy dies.
        (claim_file,) = server.spool.claimed_dir.glob("*.json")
        os.utime(claim_file, (1.0, 1.0))
        client.requeue_orphans(30.0, prefix="b.")
        assert client.finish(claimed, result) is False
        assert client.take_results("b.") == {}
        client.close()


class TestMemoSyncOverTheNetwork:
    def _entry(self, key, latency=1.0):
        return {"key": key, "code_version": code_version(),
                "result": {"latency_s": latency}}

    def test_push_pull_round_trip(self, server):
        pusher = NetSpool(server.url).ensure()
        puller = NetSpool(server.url).ensure()
        entries = [self._entry("workload-" + "a" * 64),
                   self._entry("b" * 64)]
        fetched = pusher.memo_sync(entries)
        assert sorted(e["key"] for e in fetched) == \
            sorted(e["key"] for e in entries)
        # A second participant pulls them; entries it already knows are
        # filtered server-side via the known list.
        assert sorted(e["key"] for e in puller.memo_sync([])) == \
            sorted(e["key"] for e in entries)
        assert puller.memo_sync(
            [], known=[e["key"] for e in entries]) == []
        pusher.close()
        puller.close()

    def test_entries_land_in_the_server_spool_memo_dir(self, server):
        client = NetSpool(server.url).ensure()
        client.memo_sync([self._entry("c" * 64)])
        published = list(server.spool.memo_dir.glob("*.json"))
        assert [p.stem for p in published] == ["c" * 64]
        assert json.loads(published[0].read_text())["key"] == "c" * 64
        client.close()

    def test_memo_sync_degrades_to_empty_on_connection_loss(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = NetSpool(f"tcp://127.0.0.1:{port}")
        # Polling semantics: a dead (or old, pre-memo-sync) server means no
        # sharing this round, never a crashed worker.
        assert client.memo_sync([self._entry("d" * 64)]) == []
        client.close()
