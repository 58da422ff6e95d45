"""Direct tests for the ``python -m repro.runner`` CLI.

Covers every subcommand (list / run / sweep / cache) through ``main()`` with
``capsys``, and pins the robustness contract: user errors -- unknown scenario
names, invalid worker counts, unsupported backends, empty selections -- exit
with status 2 and a one-line message, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.table import from_wire
from repro.runner.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListCommand:
    def test_list_prints_catalogue_and_tags(self, capsys):
        code, out, err = _run(capsys, "list")
        assert code == 0 and not err
        assert "table6b/gemm-1024" in out
        assert "smoke/engine-chain" in out
        assert "tags:" in out

    def test_list_filters_by_tag(self, capsys):
        code, out, _ = _run(capsys, "list", "--tag", "table9")
        assert code == 0
        assert "table9/no-optimize" in out
        assert "table6b/gemm-1024" not in out

    def test_list_shows_backends(self, capsys):
        code, out, _ = _run(capsys, "list", "--tag", "table6b")
        assert code == 0
        assert "(engine/analytic)" in out


class TestRunCommand:
    def test_run_executes_and_prints_headline(self, capsys, tmp_path):
        code, out, err = _run(capsys, "run", "table6a/aie-32x32x32",
                              "--cache-dir", str(tmp_path))
        assert code == 0 and not err
        assert "GFLOPS" in out
        assert "1 scenario(s) on the engine backend" in out

    def test_run_analytic_backend(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "run", "table6b/gemm-1024",
                            "--backend", "analytic", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "analytic backend" in out

    def test_run_preserves_user_name_order(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "run", "table6a/aie-32x32x32",
                            "table6a/aie-32x16x32", "--cache-dir", str(tmp_path))
        assert code == 0
        lines = [line for line in out.splitlines()
                 if line.startswith("table6a/")]
        assert [line.split()[0] for line in lines] == ["table6a/aie-32x32x32",
                                                "table6a/aie-32x16x32"]

    def test_run_writes_json_with_backend(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = _run(capsys, "run", "smoke/engine-chain", "--no-cache",
                          "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload[0]["scenario"] == "smoke/engine-chain"
        assert payload[0]["backend"] == "engine"
        assert payload[0]["result"]["events"] > 0


class TestSweepCommand:
    def test_sweep_by_tag(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "sweep", "--tag", "table6a",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "3 scenario(s)" in out

    def test_sweep_without_selection_errors(self, capsys):
        code, _, err = _run(capsys, "sweep")
        assert code == 2
        assert "pass scenario names" in err

    def test_sweep_with_unmatched_tag_errors(self, capsys):
        code, _, err = _run(capsys, "sweep", "--tag", "no-such-tag")
        assert code == 2
        assert "no scenarios matched" in err

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        # A cold engine sweep on a 2-process pool, then a warm one that must
        # be all cache hits with byte-identical results; a prune then keeps
        # every (current) entry.
        argv = ["sweep", "--tag", "table9", "--tag", "table6",
                "--tag", "smoke", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache")]
        code, out, _ = _run(capsys, *argv, "--json", str(tmp_path / "cold.json"))
        cold = json.loads((tmp_path / "cold.json").read_text())
        assert code == 0 and len(cold) == 20
        assert "20 executed, 0 cache hit(s)" in out
        code, out, _ = _run(capsys, *argv, "--json", str(tmp_path / "warm.json"))
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert code == 0
        assert "0 executed, 20 cache hit(s)" in out
        assert not any(o["cached"] for o in cold)
        assert all(o["cached"] for o in warm)
        assert json.dumps([o["result"] for o in cold], sort_keys=True) == \
            json.dumps([o["result"] for o in warm], sort_keys=True)
        code, out, _ = _run(capsys, "cache", "--prune",
                            "--cache-dir", str(tmp_path / "cache"))
        assert code == 0 and "pruned 0 entrie(s)" in out

    def test_sweep_whole_catalogue_on_the_analytic_backend(self, capsys):
        from repro.runner import REGISTRY
        count = len(REGISTRY.names())
        code, out, err = _run(capsys, "sweep", "--all", "--backend", "analytic",
                              "--no-cache")
        assert code == 0 and not err
        assert (f"{count} scenario(s) on the analytic backend: "
                f"{count} executed") in out


class TestCacheCommand:
    def test_cache_show_and_clear(self, capsys, tmp_path):
        _run(capsys, "run", "table6a/aie-32x32x32", "--cache-dir", str(tmp_path))
        code, out, _ = _run(capsys, "cache", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "1 entrie(s)" in out
        code, out, _ = _run(capsys, "cache", "--clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 1 entrie(s)" in out
        code, out, _ = _run(capsys, "cache", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "0 entrie(s)" in out


class TestCachePruneCommand:
    def test_prune_reports_kept_and_removed(self, capsys, tmp_path):
        _run(capsys, "run", "table6a/aie-32x32x32", "--cache-dir", str(tmp_path))
        code, out, err = _run(capsys, "cache", "--prune",
                              "--cache-dir", str(tmp_path))
        assert code == 0 and not err
        assert "pruned 0 entrie(s)" in out
        assert "kept 1 current entrie(s)" in out

    def test_prune_survives_corrupted_entries(self, capsys, tmp_path):
        """The satellite bugfix: corrupted entries are skipped with a
        warning on stderr and the command still exits 0 -- no traceback."""
        _run(capsys, "run", "table6a/aie-32x32x32", "--cache-dir", str(tmp_path))
        (tmp_path / "garbage-entry.json").write_text("{not json")
        code, out, err = _run(capsys, "cache", "--prune",
                              "--cache-dir", str(tmp_path))
        assert code == 0
        assert "warning: removing corrupted entry garbage-entry.json" in err
        assert "Traceback" not in err
        assert "pruned 1 entrie(s)" in out

    def test_show_clear_prune_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--clear", "--prune"])
        assert excinfo.value.code == 2


class TestExploreCommand:
    def test_explore_smoke_space_end_to_end(self, capsys, tmp_path):
        code, out, err = _run(capsys, "explore", "--space", "encoder-smoke",
                              "--strategy", "grid", "--budget", "8",
                              "--verify-top", "2",
                              "--cache-dir", str(tmp_path))
        assert code == 0 and not err
        assert "Pareto frontier" in out
        assert "Engine verification" in out
        assert "engine-verified" in out

    def test_explore_writes_json_and_report(self, capsys, tmp_path):
        # Halving, then grid over the same cache, each engine-verifying the
        # top four of its frontier (exit 1 if a contract failed).
        json_path = tmp_path / "report.json"
        report_path = tmp_path / "frontier.txt"
        code, _, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                          "--strategy", "halving", "--budget", "16",
                          "--verify-top", "4", "--seed", "7",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--json", str(json_path),
                          "--report", str(report_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["space"] == "encoder-smoke"
        assert payload["contract_ok"] is True
        assert payload["frontier"]
        assert "Pareto frontier" in report_path.read_text()
        grid_path = tmp_path / "grid.json"
        code, _, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                          "--strategy", "grid", "--budget", "16",
                          "--verify-top", "4",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--json", str(grid_path))
        assert code == 0
        grid = json.loads(grid_path.read_text())
        assert grid["contract_ok"] is True
        assert grid["frontier"] and grid["verified"]

    def test_explore_list_spaces(self, capsys):
        code, out, err = _run(capsys, "explore", "--list-spaces")
        assert code == 0 and not err
        assert "encoder-smoke" in out
        assert "axis num_mme" in out

    def test_explore_unknown_space_exits_2(self, capsys):
        code, _, err = _run(capsys, "explore", "--space", "warp-drive",
                            "--no-cache")
        assert code == 2
        assert "unknown design space" in err and "Traceback" not in err

    def test_explore_unknown_strategy_exits_2(self, capsys):
        code, _, err = _run(capsys, "explore", "--strategy", "annealing",
                            "--no-cache")
        assert code == 2
        assert "unknown search strategy" in err

    def test_explore_negative_verify_top_exits_2(self, capsys):
        code, _, err = _run(capsys, "explore", "--space", "encoder-smoke",
                            "--verify-top", "-1", "--no-cache")
        assert code == 2
        assert "--verify-top" in err


class TestRobustness:
    """User errors exit 2 with a message on stderr -- never a traceback."""

    def test_run_unknown_scenario(self, capsys):
        code, _, err = _run(capsys, "run", "no/such-scenario", "--no-cache")
        assert code == 2
        assert "unknown scenario" in err
        assert "Traceback" not in err

    def test_sweep_unknown_extra_name(self, capsys):
        code, _, err = _run(capsys, "sweep", "no/such-scenario",
                            "--tag", "table6a", "--no-cache")
        assert code == 2
        assert "unknown scenario" in err

    @pytest.mark.parametrize("workers", ["0", "-4", "two"])
    def test_invalid_workers_rejected(self, capsys, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "smoke/engine-chain", "--workers", workers])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "smoke/engine-chain", "--backend", "quantum"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_unsupported_backend_for_kind(self, capsys):
        # A registry kind that only implements the engine backend must fail
        # cleanly when asked for the analytic one.  The global registry is
        # restored afterwards so catalogue-wide contract tests stay clean.
        from repro.runner import REGISTRY

        REGISTRY.kind("cli-test-engine-only")(lambda: {"ok": True})
        REGISTRY.add("cli-test/engine-only", "cli-test-engine-only",
                     tags=("cli-test",))
        try:
            code, _, err = _run(capsys, "run", "cli-test/engine-only",
                                "--backend", "analytic", "--no-cache")
            assert code == 2
            assert "does not support the 'analytic' backend" in err
        finally:
            REGISTRY._scenarios.pop("cli-test/engine-only")
            REGISTRY._kinds.pop("cli-test-engine-only")


class TestWorkersAuto:
    def test_auto_resolves_to_cpu_count(self):
        import os

        from repro.runner.cli import _build_parser
        args = _build_parser().parse_args(["sweep", "--all",
                                           "--workers", "auto"])
        assert args.workers == (os.cpu_count() or 1)

    def test_auto_is_case_insensitive(self):
        from repro.runner.cli import _build_parser
        args = _build_parser().parse_args(["run", "x", "--workers", "AUTO"])
        assert args.workers >= 1

    def test_plain_integers_still_parse(self):
        from repro.runner.cli import _build_parser
        args = _build_parser().parse_args(["sweep", "--all", "--workers", "3"])
        assert args.workers == 3

    def test_sweep_help_documents_auto(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "'auto'" in out and "CPU count" in out


class TestExecutorSelection:
    def test_executor_serial_explicit(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "run", "table6b/charm-1024",
                            "--executor", "serial",
                            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "1 executed" in out

    def test_workqueue_requires_spool(self, capsys):
        code, _, err = _run(capsys, "run", "smoke/engine-chain",
                            "--executor", "workqueue", "--no-cache")
        assert code == 2
        assert "--spool" in err and "Traceback" not in err

    def test_spool_requires_workqueue(self, capsys, tmp_path):
        code, _, err = _run(capsys, "run", "smoke/engine-chain",
                            "--spool", str(tmp_path / "spool"), "--no-cache")
        assert code == 2
        assert "only meaningful with --executor workqueue" in err

    def test_serial_contradicts_multiple_workers(self, capsys):
        code, _, err = _run(capsys, "run", "smoke/engine-chain",
                            "--executor", "serial", "--workers", "4",
                            "--no-cache")
        assert code == 2
        assert "contradicts" in err

    def test_unknown_executor_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "smoke/engine-chain", "--executor", "slurm"])
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_workqueue_sweep_end_to_end(self, capsys, tmp_path):
        code, out, err = _run(capsys, "sweep", "fig18/charm-b1",
                              "fig18/charm-b2", "--executor", "workqueue",
                              "--spool", str(tmp_path / "spool"),
                              "--backend", "analytic", "--no-cache")
        assert code == 0, err
        assert "2 executed" in out


class TestWorkerCommand:
    def test_worker_requires_spool(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker"])
        assert excinfo.value.code == 2
        assert "--spool" in capsys.readouterr().err

    def test_worker_idle_exit_on_empty_spool(self, capsys, tmp_path):
        code, out, err = _run(capsys, "worker",
                              "--spool", str(tmp_path / "spool"),
                              "--poll", "0.01", "--idle-exit", "0.05",
                              "--worker-id", "cli-test-worker")
        assert code == 0 and not err
        assert "cli-test-worker" in out
        assert "processed 0 job(s)" in out

    def test_worker_drains_published_jobs(self, capsys, tmp_path):
        from repro.runner import REGISTRY, canonical_json
        from repro.runner.cache import chunk_identity, code_version
        from repro.runner.executors import Spool
        spool = Spool(tmp_path / "spool").ensure()
        scenario = REGISTRY.get("table6b/charm-1024")
        spool.enqueue("cli.00000", json.dumps({
            "code_version": code_version(), "job": "cli.00000",
            "segment_memo_dir": None,
        }) + "\n" + chunk_identity(scenario.kind, [dict(scenario.params)],
                                   "engine"))
        code, out, _ = _run(capsys, "worker",
                            "--spool", str(tmp_path / "spool"),
                            "--poll", "0.01", "--max-jobs", "1")
        assert code == 0
        assert "processed 1 job(s)" in out
        _, entry = spool.result_path("cli.00000").read_text().split("\n")
        assert canonical_json(list(from_wire(json.loads(entry)["results"]))) == \
            canonical_json([REGISTRY.run(scenario)])

    def test_worker_rejects_non_positive_poll(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--spool", "s", "--poll", "0"])
        assert excinfo.value.code == 2
        assert "--poll" in capsys.readouterr().err


class TestSpoolCommands:
    """``spool --status`` / ``spool --gc`` over both transports, and the
    ``spoold`` server's user-error handling."""

    def _live_spool(self, tmp_path):
        from repro.runner.executors import Spool
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue("cli.00000000", {"job": "cli.00000000"})
        spool.beat("cli-worker", info={"pid": 1, "host": "h",
                                       "processed": 4, "started": 1.0})
        return spool

    def test_spool_status_renders_queue_and_workers(self, capsys, tmp_path):
        spool = self._live_spool(tmp_path)
        code, out, err = _run(capsys, "spool", str(spool.root), "--status")
        assert code == 0 and not err
        assert "Spool status" in out
        assert "cli-worker" in out
        assert "1 pending job(s)" in out

    def test_spool_status_is_the_default_action(self, capsys, tmp_path):
        spool = self._live_spool(tmp_path)
        code, out, _ = _run(capsys, "spool", str(spool.root))
        assert code == 0
        assert "Spool status" in out

    def test_spool_gc_sweeps_and_reports(self, capsys, tmp_path):
        import os
        spool = self._live_spool(tmp_path)
        spool.write_result("old.00000000", {"job": "old.00000000"})
        for path in spool.root.rglob("*.json"):
            os.utime(path, (1.0, 1.0))
        code, out, err = _run(capsys, "spool", str(spool.root),
                              "--gc", "--max-age", "60")
        assert code == 0 and not err
        assert "removed 2 file(s)" in out  # result + heartbeat; pending kept
        assert (spool.pending_dir / "cli.00000000.json").exists()

    def test_spool_gc_is_a_no_op_on_a_clean_spool(self, capsys, tmp_path):
        from repro.runner.executors import Spool
        Spool(tmp_path / "spool").ensure()
        code, out, _ = _run(capsys, "spool", str(tmp_path / "spool"), "--gc")
        assert code == 0
        assert "removed 0 file(s)" in out

    def test_spool_status_json_is_machine_readable(self, capsys, tmp_path):
        spool = self._live_spool(tmp_path)
        code, out, err = _run(capsys, "spool", str(spool.root),
                              "--status", "--json")
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["target"] == str(spool.root)
        assert payload["pending"] == 1
        assert payload["results"] == 0
        assert payload["claimed"] == []
        assert [w["worker"] for w in payload["workers"]] == ["cli-worker"]
        assert payload["workers"][0]["processed"] == 4

    def test_spool_gc_json_reports_the_sweep(self, capsys, tmp_path):
        import os
        spool = self._live_spool(tmp_path)
        spool.write_result("old.00000000", {"job": "old.00000000"})
        for path in spool.root.rglob("*.json"):
            os.utime(path, (1.0, 1.0))
        code, out, err = _run(capsys, "spool", str(spool.root),
                              "--gc", "--max-age", "60", "--json")
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["max_age_s"] == 60.0
        assert sum(payload["removed"].values()) == 2
        # Pending jobs are never GC'd, however stale.
        assert (spool.pending_dir / "cli.00000000.json").exists()

    def test_spool_status_json_over_tcp(self, capsys, spoold):
        spoold.spool.enqueue("cli.00000000", {"job": "cli.00000000"})
        code, out, err = _run(capsys, "spool", spoold.url,
                              "--status", "--json")
        assert code == 0 and not err
        payload = json.loads(out)
        assert payload["target"] == spoold.url
        assert payload["pending"] == 1
        # The network transport additionally serves requeue counters.
        assert payload["requeues"] == {}

    def test_spool_missing_directory_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "spool", str(tmp_path / "nowhere"))
        assert code == 2
        assert "no spool directory" in err

    def test_spool_status_and_gc_are_mutually_exclusive(self, capsys,
                                                        tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["spool", str(tmp_path), "--status", "--gc"])
        assert excinfo.value.code == 2

    def test_spool_status_over_tcp(self, capsys, spoold):
        spoold.spool.enqueue("cli.00000000", {"job": "cli.00000000"})
        code, out, err = _run(capsys, "spool", spoold.url, "--status")
        assert code == 0 and not err
        assert spoold.url in out
        assert "1 pending job(s)" in out

    def test_spool_unreachable_server_exits_2(self, capsys):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, _, err = _run(capsys, "spool", f"tcp://127.0.0.1:{port}",
                            "--status")
        assert code == 2
        assert "unreachable" in err

    def test_spoold_unbindable_port_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "spoold",
                            "--spool", str(tmp_path / "spool"),
                            "--port", "70000")
        assert code == 2
        assert "cannot bind" in err

    def test_worker_attaches_over_tcp(self, capsys, spoold):
        from repro.runner import REGISTRY, canonical_json
        from repro.runner.cache import chunk_identity, code_version
        scenario = REGISTRY.get("table6b/charm-1024")
        spoold.spool.enqueue("cli.00000000", json.dumps({
            "code_version": code_version(), "job": "cli.00000000",
            "segment_memo_dir": None,
        }) + "\n" + chunk_identity(scenario.kind, [dict(scenario.params)],
                                   "engine"))
        code, out, _ = _run(capsys, "worker", "--spool", spoold.url,
                            "--poll", "0.01", "--max-jobs", "1")
        assert code == 0
        assert "processed 1 job(s)" in out
        _, entry = spoold.spool.result_path(
            "cli.00000000").read_text().split("\n")
        assert canonical_json(list(from_wire(json.loads(entry)["results"]))) == \
            canonical_json([REGISTRY.run(scenario)])


class TestExploreProxyAndWeights:
    def test_batched_proxy_end_to_end(self, capsys, tmp_path):
        code, out, err = _run(capsys, "explore", "--space", "encoder-smoke",
                              "--strategy", "grid", "--budget", "8",
                              "--verify-top", "1",
                              "--cache-dir", str(tmp_path))
        assert code == 0 and not err
        assert "Pareto frontier" in out
        assert "batched proxy" in out

    # The sweep proxy was removed and batched is the only path: no flag.
    @pytest.mark.parametrize("proxy", ["sweep", "batched"])
    def test_proxy_flag_exits_2(self, capsys, proxy):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--space", "encoder-smoke", "--proxy", proxy])
        assert excinfo.value.code == 2
        assert "--proxy" in capsys.readouterr().err

    def test_weights_order_frontier_and_render_score_column(self, capsys,
                                                            tmp_path):
        json_path = tmp_path / "weighted.json"
        code, out, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                            "--strategy", "halving", "--budget", "8",
                            "--verify-top", "0",
                            "--weights", "latency=2,traffic=1",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--json", str(json_path))
        assert code == 0
        assert "score" in out
        assert "weighted scalarisation" in out
        payload = json.loads(json_path.read_text())
        assert payload["weights"] == {"latency_s": 2.0, "offchip_bytes": 1.0}
        scores = [point["weighted_score"] for point in payload["frontier"]]
        assert scores == sorted(scores)

    def test_weighted_scalarisation_orders_the_frontier(self, capsys,
                                                         tmp_path):
        # A halving run under three weights, no cache: the report keeps the
        # weights by payload key and lists its frontier best score first.
        json_path = tmp_path / "dse-weighted.json"
        code, _, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                          "--strategy", "halving", "--budget", "16",
                          "--verify-top", "0", "--seed", "7", "--no-cache",
                          "--weights", "latency=2,traffic=1,utilization=0.5",
                          "--json", str(json_path))
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["weights"] == {"latency_s": 2.0, "offchip_bytes": 1.0,
                                     "utilization": 0.5}
        scores = [p["weighted_score"] for p in report["frontier"]]
        assert scores == sorted(scores), "frontier not score-ordered"

    @pytest.mark.parametrize("weights", [
        "latency", "latency=x", "latency=-1", "bogus=1", "",
        "latency=0,traffic=0", "latency=1,latency=2",
        "latency=nan", "latency=inf,traffic=1",
        "area=1,watts=1", "throughput=1,bogus=2",
    ])
    def test_invalid_weights_exit_2(self, capsys, weights):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--space", "encoder-smoke",
                  "--weights", weights])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--weights" in err and "Traceback" not in err

    @pytest.mark.parametrize("weights, message", [
        ("latency=-1", "weights must be non-negative, got latency=-1"),
        ("traffic=inf,latency=1", "weights must be finite, got traffic=inf"),
        ("latency=0,offchip_traffic=0", "at least one weight must be positive"),
        ("", "no weights given"),
    ])
    def test_invalid_weights_name_what_was_typed(self, capsys, weights,
                                                 message):
        with pytest.raises(SystemExit):
            main(["explore", "--space", "encoder-smoke",
                  "--weights", weights])
        assert message in capsys.readouterr().err

    def test_library_weighted_halving_matches_the_cli(self, capsys, tmp_path):
        # A plain SuccessiveHalving() under run_exploration's weights ranks
        # survivors on the exploration's own axes and weights, as the CLI
        # does: both give the same report.
        from repro.explore import SuccessiveHalving, get_space, run_exploration

        json_path = tmp_path / "cli.json"
        code, _, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                          "--strategy", "halving", "--budget", "12",
                          "--verify-top", "0", "--seed", "7", "--no-cache",
                          "--weights", "utilization=1",
                          "--json", str(json_path))
        assert code == 0
        cli = json.loads(json_path.read_text())
        library = run_exploration(get_space("encoder-smoke"),
                                  SuccessiveHalving(), budget=12,
                                  verify_top=0, seed=7,
                                  weights={"utilization": 1.0}).to_dict()
        for report in (cli, library):
            report.pop("proxy_wall_s")
            report.pop("verify_wall_s")
        assert json.loads(json.dumps(library)) == cli


class TestExploreChipletSpace:
    def test_grid_frontier_scales_out_and_verifies(self, capsys, tmp_path):
        # Grid over the whole chiplet-smoke space, the four leading
        # frontier points verified on the engine.
        json_path = tmp_path / "chiplet-grid.json"
        code, _, _ = _run(capsys, "explore", "--space", "chiplet-smoke",
                          "--strategy", "grid", "--budget", "12",
                          "--verify-top", "4", "--seed", "7",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--json", str(json_path),
                          "--report", str(tmp_path / "chiplet-frontier.txt"))
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["frontier"], "empty chiplet frontier"
        assert report["verified"], "nothing engine-verified"
        assert report["contract_ok"], "chiplet contract violated"
        names = {o["name"] for o in report["objectives"]}
        assert {"pipeline_throughput", "area", "energy"} <= names
        chips = {p["assignment"]["num_chips"] for p in report["frontier"]}
        assert len(chips) > 1, f"frontier never scales out: {chips}"

    def test_chiplet_weighted_cost_exploration(self, capsys, tmp_path):
        json_path = tmp_path / "chiplet.json"
        code, out, err = _run(capsys, "explore", "--space", "chiplet-smoke",
                              "--strategy", "halving", "--budget", "12",
                              "--verify-top", "2",
                              "--weights", "latency=1,area=2,energy=1",
                              "--cache-dir", str(tmp_path / "cache"),
                              "--json", str(json_path))
        assert code == 0 and not err
        payload = json.loads(json_path.read_text())
        assert payload["space"] == "chiplet-smoke"
        assert payload["contract_ok"] is True
        assert payload["weights"] == {"latency_s": 1.0, "area_luts": 2.0,
                                      "energy_j": 1.0}
        # The chiplet space reports the extended objective axes.
        names = {o["name"] for o in payload["objectives"]}
        assert {"area", "energy", "pipeline_throughput"} <= names
        assert payload["frontier"]

    def test_halving_weighted_by_area_and_energy(self, capsys, tmp_path):
        # Halving weighted by latency, area and energy, no cache, the two
        # best-scoring frontier points verified on the engine.
        json_path = tmp_path / "chiplet-weighted.json"
        code, _, _ = _run(capsys, "explore", "--space", "chiplet-smoke",
                          "--strategy", "halving", "--budget", "12",
                          "--verify-top", "2", "--seed", "7", "--no-cache",
                          "--weights", "latency=1,area=1,energy=1",
                          "--json", str(json_path))
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["frontier"], "empty weighted chiplet frontier"
        assert report["contract_ok"], "weighted chiplet contract violated"
        scores = [p["weighted_score"] for p in report["frontier"]]
        assert scores == sorted(scores), "frontier not score-ordered"

    def test_cost_weights_accepted_on_encoder_space(self, capsys, tmp_path):
        # Cost keys are scorable on the single-chip space too (its payloads
        # carry area/energy); they must not be rejected as unknown.
        code, _, err = _run(capsys, "explore", "--space", "encoder-smoke",
                            "--strategy", "halving", "--budget", "8",
                            "--verify-top", "0",
                            "--weights", "throughput=1,energy=1",
                            "--cache-dir", str(tmp_path))
        assert code == 0 and not err

    def test_list_spaces_includes_chiplet(self, capsys):
        code, out, _ = _run(capsys, "explore", "--list-spaces")
        assert code == 0
        assert "chiplet-encoder" in out
        assert "chiplet-smoke" in out


class TestSeedRecording:
    """`--seed random` draws a real seed and echoes it for replay."""

    def test_explore_random_seed_is_echoed_and_replayable(self, capsys,
                                                          tmp_path):
        json_path = tmp_path / "random.json"
        code, out, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                            "--strategy", "halving", "--budget", "8",
                            "--verify-top", "0", "--seed", "random",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--json", str(json_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        seed = payload["seed"]
        assert isinstance(seed, int)       # never None: the draw is recorded
        assert f"seed {seed}" in out
        # Replaying with the echoed seed reproduces the sampling decisions.
        replay_path = tmp_path / "replay.json"
        code, _, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                          "--strategy", "halving", "--budget", "8",
                          "--verify-top", "0", "--seed", str(seed),
                          "--cache-dir", str(tmp_path / "cache"),
                          "--json", str(replay_path))
        assert code == 0
        replay = json.loads(replay_path.read_text())
        assert replay["frontier"] == payload["frontier"]

    def test_explore_report_file_names_the_replay_flag(self, capsys,
                                                       tmp_path):
        report_path = tmp_path / "frontier.txt"
        code, _, _ = _run(capsys, "explore", "--space", "encoder-smoke",
                          "--strategy", "grid", "--budget", "8",
                          "--verify-top", "0", "--seed", "42",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--report", str(report_path))
        assert code == 0
        assert "seed: 42 (replay with --seed 42)" in report_path.read_text()

    def test_invalid_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--space", "encoder-smoke", "--seed", "entropy"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err


class TestServeCommand:
    def test_serve_open_loop_end_to_end(self, capsys, tmp_path):
        code, out, err = _run(capsys, "serve", "--arrival", "exponential",
                              "--requests", "2000", "--load", "200",
                              "--recertify", "1",
                              "--cache-dir", str(tmp_path))
        assert code == 0 and not err
        assert "latency p99" in out
        assert "Engine re-certification" in out
        assert "1 dispatch shape(s) engine-certified" in out

    def test_serve_load_sweep_renders_curve(self, capsys, tmp_path):
        json_path = tmp_path / "serve-curve.json"
        report_path = tmp_path / "serve-curve.txt"
        code, out, _ = _run(capsys, "serve", "--arrival", "bursty",
                            "--policy", "dynamic", "--requests", "5000",
                            "--load", "200,600,1200,2000",
                            "--queue-depth", "256", "--timeout", "0.5",
                            "--seed", "7", "--recertify", "2",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--json", str(json_path),
                            "--report", str(report_path))
        assert code == 0
        assert "Throughput-latency curve" in out
        assert "4 load point(s)" in out
        curve = json.loads(json_path.read_text())["curve"]
        assert len(curve) == 4
        loads = [row["offered_load_rps"] for row in curve]
        assert loads == sorted(loads)
        goodput = [row["goodput_rps"] for row in curve]
        assert max(goodput) > goodput[0], "goodput should rise before the knee"
        assert "Throughput-latency curve" in report_path.read_text()

    @pytest.mark.parametrize("policy", ["continuous", "dynamic"])
    def test_serve_closed_loop(self, capsys, tmp_path, policy):
        closed = ["serve", "--arrival", "closed", "--policy", policy,
                  "--requests", "2000", "--clients", "32", "--think", "0.02",
                  "--seed", "7", "--recertify", "2"]
        cached_path = tmp_path / "serve.json"
        code, out, _ = _run(capsys, *closed,
                            "--cache-dir", str(tmp_path / "cache"),
                            "--json", str(cached_path))
        assert code == 0
        assert "1 load point(s)" in out
        report = json.loads(cached_path.read_text())
        [result] = report["results"]
        latency = result["latency"]
        assert latency["count"] > 0
        assert latency["p50_s"] and latency["p99_s"]
        assert result["completed"] + result["dropped"] + \
            result["timed_out"] == result["requests"]
        assert report["certification"]
        assert all(r["bound_ok"] and r["traffic_ok"]
                   for r in report["certification"])
        # The seeded replay, uncached, reproduces the cached run's results.
        replay_path = tmp_path / "replay.json"
        code, _, _ = _run(capsys, *closed, "--no-cache",
                          "--json", str(replay_path))
        assert code == 0
        replay = json.loads(replay_path.read_text())
        assert json.dumps(replay["results"], sort_keys=True) == \
            json.dumps(report["results"], sort_keys=True)

    def test_serve_writes_json_and_report(self, capsys, tmp_path):
        json_path = tmp_path / "serve.json"
        report_path = tmp_path / "serve.txt"
        code, _, _ = _run(capsys, "serve", "--requests", "1000",
                          "--load", "150", "--seed", "9", "--recertify", "2",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--json", str(json_path),
                          "--report", str(report_path))
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 9
        assert payload["results"][0]["completed"] > 0
        assert all(r["bound_ok"] and r["traffic_ok"]
                   for r in payload["certification"])
        assert "latency p50" in report_path.read_text()

    def test_serve_random_seed_replays_byte_identically(self, capsys,
                                                        tmp_path):
        first_path = tmp_path / "first.json"
        code, out, _ = _run(capsys, "serve", "--requests", "800",
                            "--load", "250", "--seed", "random",
                            "--recertify", "0", "--no-cache",
                            "--json", str(first_path))
        assert code == 0
        seed = json.loads(first_path.read_text())["seed"]
        assert isinstance(seed, int) and f"seed {seed}" in out
        replay_path = tmp_path / "replay.json"
        code, _, _ = _run(capsys, "serve", "--requests", "800",
                          "--load", "250", "--seed", str(seed),
                          "--recertify", "0", "--no-cache",
                          "--json", str(replay_path))
        assert code == 0
        assert json.loads(replay_path.read_text())["results"] == \
            json.loads(first_path.read_text())["results"]

    def test_serve_list_workloads(self, capsys):
        code, out, err = _run(capsys, "serve", "--list-workloads")
        assert code == 0 and not err
        assert "encoder-mix" in out
        assert "short-64" in out

    def test_serve_unknown_workload_exits_2(self, capsys):
        code, _, err = _run(capsys, "serve", "--workload", "warp-traffic",
                            "--no-cache")
        assert code == 2
        assert "unknown workload" in err and "Traceback" not in err

    def test_serve_negative_recertify_exits_2(self, capsys):
        code, _, err = _run(capsys, "serve", "--recertify", "-1",
                            "--no-cache")
        assert code == 2
        assert "--recertify" in err and "Traceback" not in err

    @pytest.mark.parametrize("loads", ["", "0", "-5", "100,,200", "100,x"])
    def test_serve_invalid_load_list_exits_2(self, capsys, loads):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--load", loads, "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--load" in err and "Traceback" not in err


class TestChunkSizeOption:
    """``--chunk-size`` policy parsing and plumbing on the sweep/explore
    front-ends (the byte-identity of the paths it selects is pinned by
    ``tests/differential/test_chunk_contract.py``)."""

    @pytest.mark.parametrize("value", ["1", "2", "auto"])
    def test_sweep_accepts_every_policy(self, capsys, value):
        code, out, err = _run(capsys, "sweep", "--tag", "fig18",
                              "--backend", "analytic", "--no-cache",
                              "--chunk-size", value)
        assert code == 0 and not err
        assert "fig18" in out

    def test_explore_batched_proxy_with_chunk_size(self, capsys, tmp_path):
        code, out, err = _run(capsys, "explore", "--space", "encoder-smoke",
                              "--strategy", "grid", "--budget", "16",
                              "--verify-top", "0",
                              "--chunk-size", "4", "--no-cache")
        assert code == 0 and not err
        assert "Pareto frontier" in out

    # "off" (per-scenario jobs) is no policy: that is ``--chunk-size 1``.
    @pytest.mark.parametrize("bad", ["0", "-3", "none", "1.5", "", "off"])
    def test_invalid_chunk_size_exits_2(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--tag", "fig18", "--chunk-size", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--chunk-size" in err and "Traceback" not in err
