"""The ``python -m repro`` command line: plan/sweep/bench/serve/cache."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import FSMoE, IterationPlan, PlanCompiler
from repro import testbed_b as make_testbed_b
from repro.api.cli import build_parser, main
from repro.models import get_model_preset, layer_spec_for
from repro.serve import DEFAULT_CAPACITY, DEFAULT_FLUSH_MS

TINY_SPEC = {
    "name": "cli-test",
    "clusters": ["B"],
    "systems": ["tutel", "fsmoe"],
    "stacks": [
        {
            "layers": [
                {
                    "batch_size": 1,
                    "seq_len": 256,
                    "embed_dim": 512,
                    "num_experts": 8,
                    "num_heads": 8,
                }
            ],
            "num_layers": 2,
        }
    ],
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY_SPEC))
    return path


class TestPlan:
    def test_json_output_matches_python_api(self, capsys):
        code = main(
            [
                "plan", "--cluster", "B", "--system", "fsmoe",
                "--model", "GPT2-XL", "--layers", "2", "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        plan = IterationPlan.from_json(out)

        compiler = PlanCompiler(make_testbed_b())
        preset = get_model_preset("GPT2-XL")
        spec = layer_spec_for(
            preset,
            batch_size=1,
            seq_len=1024,
            num_experts=compiler.parallel.n_ep,
        )
        reference = compiler.compile([spec] * 2, FSMoE())
        # the acceptance bar: CLI JSON replays to the *same timeline*
        assert plan.simulate() == reference.simulate()

    def test_custom_layer_plan(self, capsys):
        code = main(
            [
                "plan", "--cluster", "B", "--system", "tutel",
                "--embed-dim", "512", "--seq-len", "256", "--num-heads", "8",
                "--layers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "plan cache" in out

    def test_plan_uses_workspace_cache(self, tmp_path, capsys):
        argv = [
            "plan", "--cluster", "B", "--system", "fsmoe",
            "--embed-dim", "512", "--seq-len", "256", "--num-heads", "8",
            "--workspace", str(tmp_path / "ws"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "plan cache: 1 hits, 0 misses" in out

    def test_unknown_system_is_reported(self, capsys):
        code = main(
            ["plan", "--cluster", "B", "--system", "megatron"]
        )
        assert code == 2
        assert "unknown system" in capsys.readouterr().err

    def test_custom_layer_defaults_to_deployment_experts(self, capsys):
        # Testbed A has 6 nodes; a hard-coded default of 8 experts would
        # not divide its EP width.
        code = main(
            [
                "plan", "--cluster", "A", "--system", "tutel",
                "--seq-len", "256", "--embed-dim", "512", "--num-heads", "8",
            ]
        )
        assert code == 0
        assert "makespan" in capsys.readouterr().out


class TestSweep:
    def test_cold_then_warm(self, tmp_path, spec_file, capsys):
        ws = str(tmp_path / "ws")
        assert main(["sweep", str(spec_file), "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "plan cache: 0 hits, 2 misses" in out

        assert (
            main(
                ["sweep", str(spec_file), "--workspace", ws, "--expect-warm"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "plan cache: 2 hits, 0 misses (100% hit rate)" in out
        assert "profile cache: 0 hits, 0 misses (100% hit rate)" in out

    def test_expect_warm_fails_cold(self, tmp_path, spec_file, capsys):
        code = main(
            [
                "sweep", str(spec_file),
                "--workspace", str(tmp_path / "ws"), "--expect-warm",
            ]
        )
        assert code == 3
        assert "--expect-warm" in capsys.readouterr().err

    def test_json_rows(self, tmp_path, spec_file, capsys):
        assert main(["sweep", str(spec_file), "--json"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[: out.rindex("]") + 1])
        assert len(rows) == 2
        assert {row["system"] for row in rows} == {"Tutel", "FSMoE"}

    def test_missing_spec_file(self, capsys):
        assert main(["sweep", "/nonexistent/spec.json"]) == 2

    def test_invalid_json_spec_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"clusters": ["B"],}')  # trailing comma
        assert main(["sweep", str(bad)]) == 2
        assert "invalid JSON spec" in capsys.readouterr().err

    def test_unknown_gate_in_spec_is_a_clean_error(self, tmp_path, capsys):
        doc = dict(TINY_SPEC)
        doc["gate"] = "topk"
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path)]) == 2
        assert "unknown gate" in capsys.readouterr().err


class TestBenchAndCache:
    def test_bench_prints_speedups(self, capsys):
        code = main(
            [
                "bench", "--cluster", "B", "--systems", "dsmoe,fsmoe",
                "--embed-dim", "512", "--seq-len", "256", "--num-heads", "8",
                "--layers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup vs DS-MoE" in out
        assert "FSMoE" in out

    def test_cache_info_and_clear(self, tmp_path, spec_file, capsys):
        ws = str(tmp_path / "ws")
        main(["sweep", str(spec_file), "--workspace", ws])
        capsys.readouterr()

        assert main(["cache", "info", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "plan_entries: 2" in out

        assert main(["cache", "clear", "--workspace", ws]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert main(["cache", "--workspace", ws]) == 0
        assert "plan_entries: 0" in capsys.readouterr().out

    def test_cache_gc_evicts_stale_plans(self, tmp_path, spec_file, capsys):
        import os

        ws = tmp_path / "ws"
        main(["sweep", str(spec_file), "--workspace", str(ws)])
        capsys.readouterr()
        plans = sorted((ws / "plans").glob("*.json"))
        stale = plans[0]
        old = 10 * 86400
        os.utime(stale, (stale.stat().st_atime - old,
                         stale.stat().st_mtime - old))

        assert main(["cache", "--workspace", str(ws), "--gc", "7"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 plan file(s)" in out and "kept 1" in out
        assert not stale.exists()

        assert main(["cache", "--workspace", str(ws)]) == 0
        assert "plan_entries: 1" in capsys.readouterr().out

    def test_cache_clear_refuses_gc_combination(
        self, tmp_path, spec_file, capsys
    ):
        ws = tmp_path / "ws"
        main(["sweep", str(spec_file), "--workspace", str(ws)])
        capsys.readouterr()
        code = main(
            ["cache", "clear", "--workspace", str(ws), "--gc", "7"]
        )
        assert code == 2
        assert "--gc cannot be combined" in capsys.readouterr().err
        # Nothing was deleted by the refused command.
        assert len(list((ws / "plans").glob("*.json"))) == 2

    def test_cache_gc_missing_workspace_errors(self, tmp_path, capsys):
        code = main(
            ["cache", "--workspace", str(tmp_path / "nope"), "--gc", "7"]
        )
        assert code == 2

    def test_cache_info_reports_solver_stats(self, tmp_path, spec_file, capsys):
        ws = str(tmp_path / "ws")
        main(["sweep", str(spec_file), "--workspace", ws])
        capsys.readouterr()
        assert main(["cache", "info", "--workspace", ws]) == 0
        assert "degree_solver:" in capsys.readouterr().out

    def test_cache_clear_recovers_schema_mismatch(
        self, tmp_path, spec_file, capsys
    ):
        """The recovery path the refusal error advertises must work."""
        ws = str(tmp_path / "ws")
        main(["sweep", str(spec_file), "--workspace", ws])
        capsys.readouterr()
        profiles = next((tmp_path / "ws" / "profiles").glob("*.json"))
        payload = json.loads(profiles.read_text())
        payload["schema_version"] = 999
        profiles.write_text(json.dumps(payload))

        assert main(["cache", "info", "--workspace", ws]) == 2  # refused
        assert main(["cache", "clear", "--workspace", ws]) == 0  # recovers
        capsys.readouterr()
        assert main(["sweep", str(spec_file), "--workspace", ws]) == 0


class TestServe:
    REQUEST = {
        "cluster": "B",
        "system": "tutel",
        "stack": {
            "layers": [
                {
                    "batch_size": 1,
                    "seq_len": 256,
                    "embed_dim": 512,
                    "num_experts": 8,
                    "num_heads": 8,
                }
            ],
            "num_layers": 2,
        },
    }

    def test_service_defaults_come_from_the_service(self):
        args = build_parser().parse_args(["serve", "--demo", "1"])
        assert args.flush_ms == DEFAULT_FLUSH_MS
        assert args.capacity == DEFAULT_CAPACITY

    @pytest.fixture()
    def requests_file(self, tmp_path):
        lines = [
            json.dumps(self.REQUEST),
            json.dumps({**self.REQUEST, "system": "fsmoe",
                        "solver": "slsqp"}),
            json.dumps(self.REQUEST),  # duplicate: must dedup
        ]
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_requests_stream_round_trips(
        self, tmp_path, requests_file, capsys
    ):
        ws = str(tmp_path / "ws")
        assert main([
            "serve", "--requests", str(requests_file), "--workspace", ws,
        ]) == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [row["index"] for row in rows] == [0, 1, 2]
        assert rows[0]["system"] == "Tutel"
        assert rows[1]["system"] == "FSMoE"
        # the duplicate answers identically to its first occurrence
        assert rows[2] == {**rows[0], "index": 2}
        assert "dedup" in captured.err

    def test_served_plan_matches_direct_workspace_plan(
        self, tmp_path, requests_file, capsys
    ):
        from repro import MoELayerSpec, Workspace
        from repro.systems.registry import get_system

        ws = str(tmp_path / "ws")
        main(["serve", "--requests", str(requests_file),
              "--workspace", ws])
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        layer = MoELayerSpec(batch_size=1, seq_len=256, embed_dim=512,
                             num_experts=8, num_heads=8)
        direct = Workspace(ws).plan(
            (layer,) * 2, get_system("tutel"), make_testbed_b()
        )
        assert rows[0]["makespan_ms"] == direct.makespan_ms()
        # and the serve run left its plans in the shared cache
        warm = Workspace(ws)
        warm.plan((layer,) * 2, get_system("tutel"), make_testbed_b())
        assert warm.stats.plan_misses == 0

    def test_demo_reports_speedup(self, capsys):
        assert main(["serve", "--demo", "24", "--distinct", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup:" in out
        assert "plans bit-identical: True" in out
        assert "dedup hits" in out

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["serve"]) == 2
        assert main([
            "serve", "--demo", "4", "--requests", "x.jsonl",
        ]) == 2

    def test_malformed_request_line_is_a_clean_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cluster": "B"}\n')
        assert main(["serve", "--requests", str(path)]) == 2
        assert "lacks 'system'" in capsys.readouterr().err

    def test_unknown_request_key_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**self.REQUEST, "mystery": 1}) + "\n")
        assert main(["serve", "--requests", str(path)]) == 2
        assert "unknown keys" in capsys.readouterr().err


#: the repository's ``src`` directory, for child ``python -m repro``.
SRC = Path(__file__).resolve().parents[1] / "src"


class TestForegroundServers:
    @pytest.mark.parametrize(
        "argv, banner",
        [
            (["cache", "serve"], "cache server listening on "),
            (
                ["serve", "--listen", "127.0.0.1:0", "--workspace", "{ws}"],
                "plan server listening on ",
            ),
        ],
        ids=["cache-serve", "serve-listen"],
    )
    def test_sigterm_stops_cleanly(self, tmp_path, argv, banner):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), env.get("PYTHONPATH", "")]
        )
        argv = [arg.format(ws=tmp_path / "ws") for arg in argv]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(banner)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - failure path
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()


class TestReport:
    @pytest.fixture()
    def tiny_artifact(self):
        from repro.report import (
            Artifact,
            ArtifactResult,
            register_artifact,
            unregister_artifact,
        )

        def produce(workspace, config):
            return ArtifactResult(
                artifact="cli-tiny",
                outputs={"cli_tiny.txt": f"solver={config.step2_solver}\n"},
            )

        register_artifact(Artifact(
            name="cli-tiny",
            title="tiny CLI test artifact",
            paper_ref="test",
            producer=produce,
            outputs=("cli_tiny.txt",),
        ))
        yield
        unregister_artifact("cli-tiny")

    def test_list_prints_the_manifest(self, capsys):
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig6", "table5", "perf-serve"):
            assert name in out

    def test_unknown_artifact_is_a_clean_error(self, capsys):
        assert main(["report", "--only", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_report_writes_results_and_report_md(
        self, tmp_path, tiny_artifact, capsys
    ):
        results = tmp_path / "results"
        code = main([
            "report", "--only", "cli-tiny",
            "--results-dir", str(results),
            "--report-file", str(tmp_path / "REPORT.md"),
        ])
        assert code == 0
        assert (results / "cli_tiny.txt").read_text() == "solver=de\n"
        report = (tmp_path / "REPORT.md").read_text()
        assert "cli-tiny" in report and "solver=de" in report
        out = capsys.readouterr().out
        assert "wrote 1 artifact file(s)" in out

    def test_solver_flag_reaches_producers(self, tmp_path, tiny_artifact):
        results = tmp_path / "results"
        assert main([
            "report", "--only", "cli-tiny", "--solver", "slsqp",
            "--results-dir", str(results),
            "--report-file", str(tmp_path / "REPORT.md"),
        ]) == 0
        assert (results / "cli_tiny.txt").read_text() == "solver=slsqp\n"

    def test_check_passes_then_fails_on_drift(
        self, tmp_path, tiny_artifact, capsys
    ):
        results = tmp_path / "results"
        main([
            "report", "--only", "cli-tiny", "--results-dir", str(results),
            "--report-file", str(tmp_path / "REPORT.md"),
        ])
        assert main([
            "report", "--only", "cli-tiny", "--check",
            "--results-dir", str(results),
        ]) == 0
        assert "report check passed" in capsys.readouterr().out

        (results / "cli_tiny.txt").write_text("solver=other\n")
        assert main([
            "report", "--only", "cli-tiny", "--check",
            "--results-dir", str(results),
        ]) == 1
        err = capsys.readouterr().err
        assert "drift: cli-tiny: cli_tiny.txt" in err

    def test_check_skips_nondeterministic_artifacts_entirely(
        self, tmp_path, capsys
    ):
        from repro.report import (
            Artifact,
            ArtifactResult,
            register_artifact,
            unregister_artifact,
        )

        calls: list[str] = []

        def produce(workspace, config):
            calls.append("ran")
            return ArtifactResult(
                artifact="cli-nondet", outputs={"cli_nondet.txt": "x\n"}
            )

        register_artifact(Artifact(
            name="cli-nondet", title="", paper_ref="test",
            producer=produce, outputs=("cli_nondet.txt",),
            deterministic=False,
        ))
        try:
            # a selection with nothing checkable is an error, and the
            # producer must never run (it could be minutes of load test)
            code = main([
                "report", "--only", "cli-nondet", "--check",
                "--results-dir", str(tmp_path),
            ])
            assert code == 2
            assert calls == []
            err = capsys.readouterr().err
            assert "no deterministic artifacts" in err
        finally:
            unregister_artifact("cli-nondet")

    def test_check_refuses_non_default_config(self, tmp_path, capsys):
        assert main([
            "report", "--check", "--full", "--results-dir", str(tmp_path),
        ]) == 2
        assert "default-configuration" in capsys.readouterr().err
        assert main([
            "report", "--check", "--solver", "slsqp",
            "--results-dir", str(tmp_path),
        ]) == 2

    def test_no_timings_report_is_byte_stable(
        self, tmp_path, tiny_artifact
    ):
        args = [
            "report", "--only", "cli-tiny", "--no-timings",
            "--results-dir", str(tmp_path / "results"),
            "--report-file", str(tmp_path / "REPORT.md"),
        ]
        assert main(args) == 0
        first = (tmp_path / "REPORT.md").read_text()
        assert "Wall time" not in first and "wall (s)" not in first
        assert main(args) == 0
        assert (tmp_path / "REPORT.md").read_text() == first

    def test_check_does_not_write(self, tmp_path, tiny_artifact):
        results = tmp_path / "results"
        results.mkdir()
        assert main([
            "report", "--only", "cli-tiny", "--check",
            "--results-dir", str(results),
        ]) == 1  # drift: file missing
        assert list(results.iterdir()) == []


class TestDocs:
    def test_write_then_check(self, tmp_path, capsys):
        out = tmp_path / "CLI.md"
        assert main(["docs", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["docs", "--out", str(out), "--check"]) == 0
        assert "matches the parser" in capsys.readouterr().out

    def test_check_detects_drift(self, tmp_path, capsys):
        out = tmp_path / "CLI.md"
        main(["docs", "--out", str(out)])
        out.write_text(out.read_text() + "edited\n")
        assert main(["docs", "--out", str(out), "--check"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_check_missing_file(self, tmp_path, capsys):
        assert main([
            "docs", "--out", str(tmp_path / "nope.md"), "--check",
        ]) == 1
        assert "does not exist" in capsys.readouterr().err
