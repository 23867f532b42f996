"""Unit tests for the ``python -m repro.experiments`` command line."""

import io
import json
import sys

import pytest

from repro.experiments.__main__ import main


class TestCLI:
    def test_list_prints_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for figure_id in ("fig04", "fig05", "fig07", "fig09", "fig11", "fig13", "fig15", "fig17"):
            assert figure_id in out

    def test_run_small_figure(self, capsys):
        code = main(
            ["run", "fig09", "--tasks", "20", "--batches", "1", "--datasets", "uniform"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig09 [uniform]" in out
        assert "PUCE" in out

    def test_unknown_figure_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_seed_changes_output(self, capsys):
        base = ["run", "fig09", "--tasks", "20", "--batches", "1", "--datasets", "uniform"]
        main([*base, "--seed", "1"])
        first = capsys.readouterr().out
        main([*base, "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


STREAM_ARGS = [
    "stream",
    "--horizon", "0.4",
    "--task-rate", "15",
    "--max-batch", "10",
    "--methods", "UCE",
    "--seed", "3",
]


class TestStreamCLI:
    def test_stream_prints_the_report_table(self, capsys):
        assert main(STREAM_ARGS) == 0
        out = capsys.readouterr().out
        assert "stream[poisson/normal]" in out
        assert "UCE" in out
        assert "p95_lat" in out

    def test_stream_accepts_method_specs(self, capsys):
        assert main([*STREAM_ARGS[:-4], "--methods", "PDCE(ppcf=off)", "--seed", "3"]) == 0
        assert "PDCE-nppcf" in capsys.readouterr().out


class TestScenarioCLI:
    def test_saved_spec_reproduces_the_stream_run(self, tmp_path, capsys):
        """`stream --save-spec` then `scenario` replays the exact run."""
        path = tmp_path / "spec.json"
        assert main([*STREAM_ARGS, "--save-spec", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["scenario", str(path)]) == 0
        second = capsys.readouterr().out

        def strip_wall_clock(table):
            # tasks/s is wall-clock throughput; everything else is seeded.
            return [
                [c for i, c in enumerate(line.split()) if i != 8]
                for line in table.splitlines()[1:]
            ]

        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_seed_override(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        main([*STREAM_ARGS, "--save-spec", str(path)])
        capsys.readouterr()
        main(["scenario", str(path), "--seed", "4"])
        assert "seed=4" in capsys.readouterr().out

    def test_missing_file_is_a_clean_cli_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", str(tmp_path / "nope.json")])
        assert "cannot load scenario" in capsys.readouterr().err

    def test_unknown_keys_are_a_clean_cli_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"arivals": "poisson"}')
        with pytest.raises(SystemExit):
            main(["scenario", str(path)])
        assert "unknown scenario key" in capsys.readouterr().err


class TestObsCLI:
    def test_trace_flag_adds_phase_column_values(self, capsys):
        assert main([*STREAM_ARGS, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "top_phase" in out
        row = next(line for line in out.splitlines() if line.startswith("UCE"))
        assert row.rstrip()[-1] == "%"  # e.g. "commit 54%"

    def test_untraced_stream_prints_dash_for_top_phase(self, capsys):
        assert main(STREAM_ARGS) == 0
        row = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("UCE")
        )
        assert row.rstrip().endswith("-")

    def test_trace_out_writes_jsonl_spans(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main([*STREAM_ARGS, "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"-> {path}" in out
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows, "trace-out implied --trace but wrote no spans"
        assert {row["name"] for row in rows} >= {"flush", "flush.commit"}
        assert all(row["method"] == "UCE" for row in rows)

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main([*STREAM_ARGS, "--metrics-out", str(path)]) == 0
        assert f"-> {path}" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE repro_flushes_total counter" in text
        assert 'repro_tasks_arrived_total{method="UCE"}' in text
        assert "repro_flush_solver_seconds_bucket" in text

    def test_profile_subcommand_forces_tracing_and_prints_tree(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        main([*STREAM_ARGS, "--save-spec", str(spec)])
        capsys.readouterr()
        assert main(["profile", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "profile[" in out
        assert "traced_seconds=" in out
        assert "flush.commit" in out
        assert "share" in out

    def test_profile_seed_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        main([*STREAM_ARGS, "--save-spec", str(spec)])
        capsys.readouterr()
        assert main(["profile", str(spec), "--seed", "9"]) == 0
        assert "method=UCE" in capsys.readouterr().out

    def test_saved_spec_round_trips_the_trace_flag(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        assert main([*STREAM_ARGS, "--trace", "--save-spec", str(spec)]) == 0
        capsys.readouterr()
        assert json.loads(spec.read_text())["options"]["trace"] is True


class TestRetiredFlags:
    @pytest.mark.parametrize("flag", ["--shards", "--parallel", "--flush-timeout"])
    def test_retired_execution_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([*STREAM_ARGS, flag, "2"])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err


def envelope(tenant, record):
    from repro.api.wire import encode_record

    return json.dumps({"tenant": tenant, "request": encode_record(record)})


def serve(monkeypatch, lines, *flags):
    """Run ``serve`` with ``lines`` on stdin; returns the exit code."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    return main(["serve", *flags])


class TestServeCLI:
    def open_and_load(self, tenant):
        from repro.api.wire import Advance, OpenSession, SubmitTask, SubmitWorker

        return [
            envelope(tenant, OpenSession(method="UCE")),
            envelope(tenant, SubmitWorker(worker_id=1, x=0.0, y=0.0, radius=5.0)),
            envelope(tenant, SubmitTask(task_id=1, x=0.1, y=0.0, value=1.0, at=0.1)),
            envelope(tenant, Advance(to_time=0.5)),
        ]

    def test_one_reply_per_line_in_order(self, monkeypatch, capsys):
        from repro.api.wire import Finish

        lines = [
            *self.open_and_load("a"),
            "not json at all",
            envelope("a", Finish()),
        ]
        assert serve(monkeypatch, lines) == 0
        captured = capsys.readouterr()
        replies = [json.loads(line) for line in captured.out.splitlines()]
        kinds = [reply["reply"]["kind"] for reply in replies]
        # The malformed line gets its error and the loop serves on.
        assert kinds == ["ack", "ack", "ack", "ack", "error", "finished"]
        assert replies[-1]["tenant"] == "a"
        assert replies[-1]["reply"]["assigned"] == 1
        assert "serve: 5 requests handled" in captured.err

    def test_metrics_out_writes_prometheus_text(self, tmp_path, monkeypatch, capsys):
        metrics = tmp_path / "service.prom"
        assert serve(monkeypatch, self.open_and_load("a"), "--metrics-out", str(metrics)) == 0
        capsys.readouterr()
        assert "service_sessions_opened_total" in metrics.read_text()

    def test_journal_dir_recovers_unfinished_tenants(self, tmp_path, monkeypatch, capsys):
        from repro.api.wire import Finish

        journals = str(tmp_path / "journals")
        assert serve(monkeypatch, self.open_and_load("a"), "--journal-dir", journals) == 0
        assert "recovered" not in capsys.readouterr().err
        # The second run picks tenant "a" up where the first left it.
        assert serve(monkeypatch, [envelope("a", Finish())], "--journal-dir", journals) == 0
        captured = capsys.readouterr()
        assert "recovered 1 tenant session(s)" in captured.err
        (reply,) = [json.loads(line) for line in captured.out.splitlines()]
        assert reply["reply"]["kind"] == "finished"
        assert reply["reply"]["arrived_tasks"] == 1

    def test_retired_snapshot_flag_is_rejected(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exit_:
            serve(monkeypatch, [], "--snapshot", str(tmp_path / "cache.json"))
        assert exit_.value.code == 2
        assert "--snapshot" in capsys.readouterr().err
