"""The report subsystem: manifest, runner, renderer, drift checker."""

from __future__ import annotations

import pytest

from repro import Workspace
from repro.errors import ConfigError, RegistryError
from repro.report import (
    DEFAULT_ARTIFACTS,
    Artifact,
    ArtifactResult,
    ReportConfig,
    available_artifacts,
    check_run,
    first_difference,
    get_artifact,
    register_artifact,
    render_report,
    run_report,
    select_artifacts,
    unregister_artifact,
    write_outputs,
)

TINY_LAYER = {
    "batch_size": 1,
    "seq_len": 256,
    "embed_dim": 512,
    "num_experts": 8,
    "num_heads": 8,
}

#: wide enough that on Testbed B its gradients outgrow the Step-1
#: windows, so FSMoE plans of it run the Step-2 search.
STEP2_LAYER = dict(TINY_LAYER, embed_dim=1024)


def _static_artifact(name: str, text: str = "hello\n") -> Artifact:
    """An artifact whose producer returns fixed bytes (no planning)."""

    def produce(workspace, config):
        return ArtifactResult(
            artifact=name, outputs={f"{name}.txt": text}
        )

    return Artifact(
        name=name,
        title=f"static artifact {name}",
        paper_ref="test",
        producer=produce,
        outputs=(f"{name}.txt",),
    )


def _planning_artifact(
    name: str,
    system: str = "tutel",
    num_layers: int = 2,
    layer: dict = TINY_LAYER,
) -> Artifact:
    """An artifact that actually plans, so counters move."""

    def produce(workspace, config):
        from repro.api import ClusterRef, ExperimentSpec, StackSpec

        spec = ExperimentSpec(
            name=name,
            clusters=(ClusterRef("B"),),
            systems=(system,),
            stacks=(StackSpec.from_data(
                {"layers": [layer], "num_layers": num_layers}
            ),),
        )
        result = workspace.sweep(spec)
        text = f"{result.points[0].makespan_ms:.6f}\n"
        return ArtifactResult(
            artifact=name, outputs={f"{name}.txt": text}
        )

    return Artifact(
        name=name,
        title="tiny planning artifact",
        paper_ref="test",
        producer=produce,
        outputs=(f"{name}.txt",),
    )


@pytest.fixture()
def registered():
    """Register test artifacts and guarantee cleanup."""
    names: list[str] = []

    def _register(artifact: Artifact) -> Artifact:
        register_artifact(artifact)
        names.append(artifact.name)
        return artifact

    yield _register
    for name in names:
        unregister_artifact(name)


class TestManifest:
    def test_default_manifest_is_registered(self):
        names = available_artifacts()
        for artifact in DEFAULT_ARTIFACTS:
            assert artifact.name in names

    def test_every_default_producer_resolves(self):
        # The dotted producers import from benchmarks/ -- resolvable
        # from the repository root (where the suite runs).
        for artifact in DEFAULT_ARTIFACTS:
            assert callable(artifact.resolve_producer())

    def test_default_outputs_cover_committed_results_exactly(self):
        import pathlib

        results = (
            pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
        )
        committed = {
            p.name
            for p in results.iterdir()
            if p.suffix in (".txt", ".json")
        }
        declared = {
            name
            for artifact in DEFAULT_ARTIFACTS
            for name in artifact.outputs
        }
        assert declared == committed

    def test_select_by_comma_string(self):
        chosen = select_artifacts("fig7,table5")
        assert [a.name for a in chosen] == ["fig7", "table5"]

    def test_select_unknown_name_lists_available(self):
        with pytest.raises(RegistryError, match="unknown artifact"):
            select_artifacts("no-such-artifact")

    def test_select_none_returns_whole_manifest(self):
        assert len(select_artifacts(None)) == len(available_artifacts())

    def test_register_and_lookup(self, registered):
        artifact = registered(_static_artifact("test-static"))
        assert get_artifact("test-static") is artifact

    def test_duplicate_name_refused(self, registered):
        registered(_static_artifact("test-dup"))
        with pytest.raises(RegistryError):
            register_artifact(_static_artifact("test-dup"))

    def test_malformed_dotted_producer(self):
        artifact = Artifact(
            name="bad", title="", paper_ref="", producer="no_colon",
            outputs=(),
        )
        with pytest.raises(ConfigError, match="module:function"):
            artifact.resolve_producer()

    def test_unimportable_producer_module(self):
        artifact = Artifact(
            name="bad", title="", paper_ref="",
            producer="no_such_module_xyz:produce", outputs=(),
        )
        with pytest.raises(ConfigError, match="not importable"):
            artifact.resolve_producer()


class TestReportConfig:
    def test_step2_solver_defaults(self):
        assert ReportConfig().step2_solver == "de"
        assert ReportConfig(full=True).step2_solver == "slsqp"
        assert ReportConfig(full=True, solver="de").step2_solver == "de"

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        monkeypatch.setenv("REPRO_BENCH_SOLVER", "none")
        monkeypatch.setenv("REPRO_PERF_SMOKE", "1")
        config = ReportConfig.from_env()
        assert config.full and config.smoke
        assert config.step2_solver == "none"


class TestRunner:
    def test_run_collects_outputs_and_counters(self, tmp_path, registered):
        registered(_planning_artifact("test-planner"))
        workspace = Workspace(tmp_path / "ws")
        run = run_report(
            workspace, ReportConfig(), only=["test-planner"]
        )
        assert len(run.runs) == 1
        record = run.runs[0]
        assert record.artifact.name == "test-planner"
        assert "test-planner.txt" in record.result.outputs
        # the windowed counters saw the compile
        assert record.stats.plan_misses == 1
        assert record.stats.profiles.misses > 0
        assert record.wall_s > 0
        assert run.stats.plan_misses == 1

    def test_whole_run_counters_sum_per_artifact_windows(
        self, tmp_path, registered
    ):
        # FSMoE plans drive Algorithm 1 and Step 2, so the solver
        # counters move; the cold artifact plans on its own store, as the
        # perf artifacts do, and must leave the workspace's counters be.
        registered(_planning_artifact("test-sum-a", "fsmoe", 2, STEP2_LAYER))
        registered(_planning_artifact("test-sum-b", "fsmoe", 3, STEP2_LAYER))

        def cold(workspace, config):
            from repro import FSMoE, MoELayerSpec, PlanCompiler, get_cluster

            plan = PlanCompiler(get_cluster("B")).compile(
                [MoELayerSpec(**STEP2_LAYER)] * 4, FSMoE()
            )
            return ArtifactResult(
                artifact="test-sum-cold",
                outputs={"test-sum-cold.txt": f"{len(plan.degrees)}\n"},
            )

        registered(Artifact(
            name="test-sum-cold", title="", paper_ref="test",
            producer=cold, outputs=("test-sum-cold.txt",),
        ))
        run = run_report(
            Workspace(tmp_path / "ws"),
            ReportConfig(),
            only=["test-sum-a", "test-sum-cold", "test-sum-b"],
        )

        def counters(stats) -> tuple[int, ...]:
            solver = stats.solver
            return (
                stats.profiles.hits, stats.profiles.misses,
                stats.plan_hits, stats.plan_misses,
                solver.solves, solver.cache_hits, solver.batch_calls,
                solver.evictions, solver.step2_objective_calls,
                solver.step2_candidates,
            )

        windows = [counters(record.stats) for record in run.runs]
        assert [sum(column) for column in zip(*windows)] == list(
            counters(run.stats)
        )
        assert run.stats.solver.solves > 0
        assert run.stats.solver.step2_candidates > 0
        assert counters(run.runs[1].stats) == (0,) * 10

    def test_second_run_is_warm(self, tmp_path, registered):
        registered(_planning_artifact("test-warm"))
        workspace = Workspace(tmp_path / "ws")
        first = run_report(workspace, ReportConfig(), only=["test-warm"])
        second = run_report(workspace, ReportConfig(), only=["test-warm"])
        assert first.runs[0].stats.plan_misses == 1
        assert second.runs[0].stats.plan_misses == 0
        assert second.stats.warm
        # byte-identical artifact bytes across the two runs
        assert first.outputs() == second.outputs()

    def test_progress_callback(self, tmp_path, registered):
        registered(_static_artifact("test-progress"))
        lines: list[str] = []
        run_report(
            Workspace(tmp_path / "ws"),
            ReportConfig(),
            only=["test-progress"],
            progress=lines.append,
        )
        assert len(lines) == 1 and "test-progress" in lines[0]

    def test_undeclared_output_is_refused(self, tmp_path, registered):
        def produce(workspace, config):
            return ArtifactResult(
                artifact="test-extra", outputs={"surprise.txt": "x\n"}
            )

        registered(Artifact(
            name="test-extra", title="", paper_ref="", producer=produce,
            outputs=("declared.txt",),
        ))
        with pytest.raises(ConfigError, match="undeclared"):
            run_report(
                Workspace(tmp_path / "ws"), ReportConfig(),
                only=["test-extra"],
            )

    def test_missing_output_is_refused_when_deterministic(
        self, tmp_path, registered
    ):
        def produce(workspace, config):
            return ArtifactResult(artifact="test-missing", outputs={})

        registered(Artifact(
            name="test-missing", title="", paper_ref="", producer=produce,
            outputs=("declared.txt",),
        ))
        with pytest.raises(ConfigError, match="did not produce"):
            run_report(
                Workspace(tmp_path / "ws"), ReportConfig(),
                only=["test-missing"],
            )

    def test_duplicate_filenames_across_artifacts_refused(
        self, tmp_path, registered
    ):
        def produce(workspace, config):
            return ArtifactResult(
                artifact="whatever", outputs={"same.txt": "x\n"}
            )

        for name in ("test-clash-a", "test-clash-b"):
            registered(Artifact(
                name=name, title="", paper_ref="", producer=produce,
                outputs=("same.txt",),
            ))
        with pytest.raises(ConfigError, match="both produce"):
            run_report(
                Workspace(tmp_path / "ws"), ReportConfig(),
                only=["test-clash-a", "test-clash-b"],
            )

    def test_write_outputs(self, tmp_path, registered):
        registered(_static_artifact("test-write", "content\n"))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-write"],
        )
        written = write_outputs(run, tmp_path / "results")
        assert [p.name for p in written] == ["test-write.txt"]
        assert written[0].read_text() == "content\n"


class TestRender:
    def test_report_contains_tables_and_counters(
        self, tmp_path, registered
    ):
        registered(_planning_artifact("test-render"))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-render"],
        )
        text = render_report(run)
        assert "# FSMoE reproduction report" in text
        assert "test-render.txt" in text
        assert "Counters:" in text and "1 plans compiled" in text
        assert "Wall time" in text

    def test_rendering_is_deterministic_for_one_run(
        self, tmp_path, registered
    ):
        registered(_planning_artifact("test-det1"))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-det1"],
        )
        assert render_report(run) == render_report(run)

    def test_equal_workspaces_render_byte_identically(
        self, tmp_path, registered
    ):
        """Same config, two fresh workspaces -> identical untimed report."""
        registered(_planning_artifact("test-det2"))
        runs = [
            run_report(
                Workspace(tmp_path / f"ws{i}"), ReportConfig(),
                only=["test-det2"],
            )
            for i in (1, 2)
        ]
        first, second = (
            render_report(run, include_timings=False) for run in runs
        )
        assert first == second
        # and the timed variant differs ONLY by the timing lines
        assert "Wall time" not in first
        assert "Wall time" in render_report(runs[0])

    def test_backtick_runs_in_outputs_do_not_break_fences(
        self, tmp_path, registered
    ):
        evil = "before\n````\nstill inside the block\n"
        registered(_static_artifact("test-fence", evil))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-fence"],
        )
        text = render_report(run)
        # the chosen fence is longer than any backtick run in the file,
        # so the content cannot terminate the block early
        assert "`````text\n" in text
        assert text.count("`````") == 2


class TestCheck:
    def test_identical_files_pass(self, tmp_path, registered):
        registered(_static_artifact("test-ok", "stable\n"))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(), only=["test-ok"]
        )
        results = tmp_path / "results"
        write_outputs(run, results)
        assert check_run(run, results) == []

    def test_content_drift_is_reported(self, tmp_path, registered):
        registered(_static_artifact("test-drift", "line one\nnew\n"))
        results = tmp_path / "results"
        results.mkdir()
        (results / "test-drift.txt").write_text("line one\nold\n")
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-drift"],
        )
        drifts = check_run(run, results)
        assert len(drifts) == 1
        assert drifts[0].filename == "test-drift.txt"
        assert "line 2" in drifts[0].reason
        assert "'old'" in drifts[0].reason and "'new'" in drifts[0].reason

    def test_missing_committed_file_is_reported(
        self, tmp_path, registered
    ):
        registered(_static_artifact("test-nofile"))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-nofile"],
        )
        (tmp_path / "results").mkdir()
        drifts = check_run(run, tmp_path / "results")
        assert len(drifts) == 1
        assert "not committed" in drifts[0].reason

    def test_crlf_drift_is_detected(self, tmp_path, registered):
        """read_bytes comparison: newline normalization must not hide drift."""
        registered(_static_artifact("test-crlf", "a\nb\n"))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-crlf"],
        )
        results = tmp_path / "results"
        results.mkdir()
        (results / "test-crlf.txt").write_bytes(b"a\r\nb\r\n")
        drifts = check_run(run, results)
        assert len(drifts) == 1
        assert "byte-level" in drifts[0].reason

    def test_nondeterministic_artifacts_skipped_by_default(
        self, tmp_path, registered
    ):
        artifact = _static_artifact("test-nondet", "varies\n")
        registered(Artifact(
            name=artifact.name, title=artifact.title, paper_ref="test",
            producer=artifact.producer, outputs=artifact.outputs,
            deterministic=False,
        ))
        run = run_report(
            Workspace(tmp_path / "ws"), ReportConfig(),
            only=["test-nondet"],
        )
        results = tmp_path / "results"
        results.mkdir()
        (results / "test-nondet.txt").write_text("different\n")
        assert check_run(run, results) == []
        assert len(check_run(
            run, results, include_nondeterministic=True
        )) == 1


class TestJobs:
    """Artifacts run one at a time, in selection order."""

    def test_planning_artifacts_get_exact_windows(
        self, tmp_path, registered
    ):
        # Two artifacts plan the identical spec: the first compiles it,
        # the second is answered from cache, and each window holds only
        # its own artifact's work.
        registered(_planning_artifact("test-window-a"))
        registered(_planning_artifact("test-window-b"))
        run = run_report(
            Workspace(tmp_path / "ws"),
            ReportConfig(),
            only=["test-window-a", "test-window-b"],
        )
        assert [
            (record.stats.plan_misses, record.stats.plan_hits)
            for record in run.runs
        ] == [(1, 0), (0, 1)]
        outputs = run.outputs()
        assert (
            outputs["test-window-a.txt"] == outputs["test-window-b.txt"]
        )

    def test_progress_lines_stay_in_selection_order(
        self, tmp_path, registered
    ):
        names = [f"test-order-{i}" for i in range(3)]
        for name in names:
            registered(_static_artifact(name))
        lines: list[str] = []
        run_report(
            Workspace(tmp_path / "ws"),
            ReportConfig(),
            only=names,
            progress=lines.append,
        )
        assert [line.split(":")[0] for line in lines] == names


class TestFirstDifference:
    def test_differing_line_is_quoted(self):
        reason = first_difference("a\nb\n", "a\nc\n")
        assert "line 2" in reason and "'b'" in reason and "'c'" in reason

    def test_prefix_reports_line_counts(self):
        assert "line count" in first_difference("a\n", "a\nb\n")

    def test_line_ending_difference(self):
        assert "byte-level" in first_difference("a\nb", "a\r\nb")
