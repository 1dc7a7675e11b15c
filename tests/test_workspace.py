"""Workspace sessions: persistent caches, warm starts, corruption handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import (
    ExperimentSpec,
    FSMoE,
    MoELayerSpec,
    SolverStats,
    StackSpec,
    Tutel,
    Workspace,
    WorkspaceError,
)
from repro import testbed_b as make_testbed_b
from repro.api import workspace as workspace_module
from repro.api.codec import digest
from repro.api.workspace import WORKSPACE_SCHEMA_VERSION

SRC = Path(__file__).parent.parent / "src"


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="tiny",
        clusters=("B",),
        systems=("tutel", "fsmoe"),
        stacks=(
            StackSpec(
                layers=(
                    MoELayerSpec(
                        batch_size=1,
                        seq_len=256,
                        embed_dim=512,
                        num_experts=8,
                        num_heads=8,
                    ),
                ),
                num_layers=2,
            ),
        ),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestWorkspaceBasics:
    def test_cold_sweep_populates_both_caches(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        result = ws.sweep(tiny_spec())
        assert len(result) == 2
        stats = ws.stats
        assert stats.plan_misses == 2 and stats.plan_hits == 0
        assert stats.profiles.misses > 0
        profile_files = list((tmp_path / "ws" / "profiles").glob("*.json"))
        assert len(profile_files) == stats.profiles.misses
        assert len(list((tmp_path / "ws" / "plans").glob("*.json"))) == 2

    def test_same_session_rerun_hits_plan_cache(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        ws.sweep(tiny_spec())
        before = ws.stats
        ws.sweep(tiny_spec())
        after = ws.stats
        assert after.plan_misses == before.plan_misses
        assert after.plan_hits == before.plan_hits + 2
        assert after.profiles.misses == before.profiles.misses

    def test_l1_warm_sweep_never_simulates(self, tmp_path, monkeypatch):
        import repro.planner.plan as plan_module

        ws = Workspace(tmp_path / "ws")
        cold = ws.sweep(tiny_spec())
        calls = []
        engine = plan_module.simulate
        monkeypatch.setattr(
            plan_module, "simulate",
            lambda graph: calls.append(graph) or engine(graph),
        )
        before = ws.stats
        warm = ws.sweep(tiny_spec())
        window = ws.stats.since(before)
        assert window.cache.l1.hits == 2 and window.plan_misses == 0
        assert calls == []
        assert [p.makespan_ms for p in warm.points] == [
            p.makespan_ms for p in cold.points
        ]

    def test_warm_reopen_is_fully_cached(self, tmp_path):
        root = tmp_path / "ws"
        cold = Workspace(root).sweep(tiny_spec())
        warm_ws = Workspace(root)
        warm = warm_ws.sweep(tiny_spec())
        stats = warm_ws.stats
        assert stats.warm
        assert stats.profiles.misses == 0
        assert stats.plan_misses == 0
        assert stats.plan_hits == 2
        # bit-identical replay: same simulated timelines, same makespans
        for a, b in zip(cold.points, warm.points):
            assert a.makespan_ms == b.makespan_ms
            assert a.plan.simulate() == b.plan.simulate()

    def test_different_spec_misses(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        ws = Workspace(root)
        ws.sweep(tiny_spec(seed=7))  # different profiling seed
        assert ws.stats.plan_misses == 2

    def test_plan_api_uses_cache(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        plan = ws.plan([spec, spec], FSMoE(), cluster)
        assert ws.stats.plan_misses == 1
        ws2 = Workspace(root)
        replay = ws2.plan([spec, spec], FSMoE(), cluster)
        assert ws2.stats.plan_hits == 1 and ws2.stats.plan_misses == 0
        assert replay.simulate() == plan.simulate()

    def test_solver_is_part_of_plan_identity(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        ws.plan([spec, spec], FSMoE(solver="de"), cluster)
        ws.plan([spec, spec], FSMoE(solver="slsqp"), cluster)
        assert ws.stats.plan_misses == 2  # distinct cache entries

    def test_system_identity_not_just_name(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        ws.plan(spec, Tutel(), cluster)
        ws.plan(spec, Tutel(r_max=4), cluster)
        assert ws.stats.plan_misses == 2

    def test_every_system_knob_reaches_the_fingerprint(self, tmp_path):
        """Differently-configured instances of each system must never
        share a plan-cache entry."""
        from repro.systems import PipeMoELina

        ws = Workspace(tmp_path / "ws")
        spec = MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)
        cluster = make_testbed_b()
        ws.plan(spec, PipeMoELina(), cluster)
        ws.plan(spec, PipeMoELina(chunk_bytes=1e6), cluster)
        assert ws.stats.plan_misses == 2

    def test_clear_empties_disk_and_counters(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        ws.clear()
        assert ws.cache_info()["plan_entries"] == 0
        assert list((root / "profiles").glob("*.json")) == []
        assert ws.stats.plan_hits == ws.stats.plan_misses == 0
        # planning again recompiles from scratch
        ws.sweep(tiny_spec())
        assert ws.stats.plan_misses == 2


class TestSweepGateOverrides:
    def test_per_layer_gates_change_the_plan(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        uniform = ws.sweep(tiny_spec(systems=("fsmoe",)))
        overridden = ws.sweep(
            tiny_spec(
                systems=("fsmoe",),
                stacks=(
                    StackSpec(
                        layers=(
                            MoELayerSpec(
                                batch_size=1,
                                seq_len=256,
                                embed_dim=512,
                                num_experts=8,
                                num_heads=8,
                            ),
                        ),
                        num_layers=2,
                        gates=("xmoe", "expert_choice"),
                    ),
                ),
            )
        )
        # Distinct gating is a distinct plan identity (no false cache hit).
        assert ws.stats.plan_misses == 2
        row = overridden.points[0].row()
        assert row["gate_kind"] == "xmoe,expert_choice"
        assert uniform.points[0].row()["gate_kind"] == "gshard"

    def test_config_results_keep_gate_only_cases_apart(self, tmp_path):
        stacks = tuple(
            StackSpec(
                model="GPT2-XL", seq_len=256, num_layers=2, gates=(gate,)
            )
            for gate in ("gshard", "expert_choice")
        )
        result = Workspace(tmp_path / "ws").sweep(tiny_spec(stacks=stacks))
        assert len(result) == 4
        gshard, ec = result.config_results()
        for case, points in ((gshard, result.points[:2]),
                             (ec, result.points[2:])):
            assert case.times_ms == {
                point.system_name: point.makespan_ms for point in points
            }
        assert gshard.times_ms != ec.times_ms

    def test_stats_expose_solver_counters(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        ws.sweep(tiny_spec(systems=("fsmoe",)))
        solver = ws.stats.solver
        assert solver.solves > 0
        assert solver.batch_calls > 0
        assert solver.max_batch_size >= 1

    def test_solver_counters_are_per_workspace(self, tmp_path):
        """An idle workspace's solver counters stay put while another
        workspace in the same process compiles."""
        busy = Workspace(tmp_path / "busy")
        idle = Workspace(tmp_path / "idle")
        before = idle.stats
        busy.plan(
            [MoELayerSpec(embed_dim=512, num_experts=8, num_heads=8)] * 2,
            FSMoE(),
            make_testbed_b(),
        )
        assert busy.stats.solver.solves > 0
        assert idle.stats.since(before).solver == SolverStats()


class TestPlanGC:
    def test_gc_evicts_only_stale_plan_files(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        plans = sorted((root / "plans").glob("*.json"))
        assert len(plans) == 2
        stale = plans[0]
        stale_bytes = stale.stat().st_size
        old = 10 * 86400
        os.utime(stale, (stale.stat().st_atime - old,
                         stale.stat().st_mtime - old))

        swept = Workspace.gc_plans(root, max_age_days=7)
        assert swept["removed"] == 1 and swept["kept"] == 1
        assert swept["removed_bytes"] == stale_bytes
        assert swept["kept_bytes"] > 0
        assert not stale.exists() and plans[1].exists()

        # Nothing left to evict on a second pass.
        again = Workspace.gc_plans(root, max_age_days=7)
        assert again["removed"] == 0 and again["kept"] == 1
        assert again["removed_bytes"] == 0

    def test_gc_rejects_negative_age(self, tmp_path):
        from repro import ConfigError

        with pytest.raises(ConfigError):
            Workspace.gc_plans(tmp_path, max_age_days=-1)

    def test_gc_age_zero_evicts_everything(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        old = 60  # any mtime in the past is older than "0 days"
        for path in (root / "plans").glob("*.json"):
            os.utime(path, (path.stat().st_atime - old,
                            path.stat().st_mtime - old))
        swept = Workspace.gc_plans(root, max_age_days=0)
        assert swept["removed"] == 2 and swept["kept"] == 0


class TestWorkspacePersistenceEdges:
    def test_cross_process_warm_start(self, tmp_path):
        """A second *process* re-running the sweep computes nothing new."""
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        program = (
            "from repro import Workspace\n"
            "from tests.test_workspace import tiny_spec\n"
            f"ws = Workspace({str(root)!r})\n"
            "ws.sweep(tiny_spec())\n"
            "stats = ws.stats\n"
            "assert stats.warm, stats\n"
            "print('profile_misses', stats.profiles.misses,"
            " 'plan_misses', stats.plan_misses,"
            " 'plan_hits', stats.plan_hits)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(SRC.parent), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "profile_misses 0 plan_misses 0 plan_hits 2" in result.stdout

    def test_schema_version_mismatch_is_refused(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        profile_file = next((root / "profiles").glob("*.json"))
        payload = json.loads(profile_file.read_text())
        payload["schema_version"] = WORKSPACE_SCHEMA_VERSION + 1
        profile_file.write_text(json.dumps(payload))
        with pytest.raises(WorkspaceError, match="schema version"):
            Workspace(root)

    def test_plan_schema_version_mismatch_is_refused(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        plan_file = next((root / "plans").glob("*.json"))
        payload = json.loads(plan_file.read_text())
        payload["schema_version"] = WORKSPACE_SCHEMA_VERSION + 1
        plan_file.write_text(json.dumps(payload))
        fresh = Workspace(root)
        with pytest.raises(WorkspaceError, match="schema version"):
            fresh.sweep(tiny_spec())

    def test_truncated_profiles_file_recovers(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        profile_files = sorted((root / "profiles").glob("*.json"))
        for path in profile_files:
            text = path.read_text()
            path.write_text(text[: len(text) // 2])
        with pytest.warns(UserWarning, match="unreadable"):
            ws = Workspace(root)
        # quarantined, not deleted; session still fully usable
        for path in profile_files:
            assert path.with_name(path.name + ".corrupt").exists()
        assert len(ws.store) == 0
        ws.sweep(tiny_spec())
        assert ws.stats.plan_hits == 2  # plan cache survived unharmed
        # an uncached variant must re-profile: the store really was lost
        ws.sweep(tiny_spec(seed=3))
        assert ws.stats.profiles.misses > 0

    def test_truncated_plan_file_recovers(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        plan_file = next((root / "plans").glob("*.json"))
        plan_file.write_text(plan_file.read_text()[:40])
        fresh = Workspace(root)
        with pytest.warns(UserWarning, match="unreadable"):
            fresh.sweep(tiny_spec())
        stats = fresh.stats
        assert stats.plan_misses == 1 and stats.plan_hits == 1
        # the recompiled plan replaced the truncated file
        warm = Workspace(root)
        warm.sweep(tiny_spec())
        assert warm.stats.warm

    def test_undecodable_profile_entries_are_skipped(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        good = len(list((root / "profiles").glob("*.json")))
        key = {"__dc__": "FutureType", "f": {}}
        (root / "profiles" / f"{digest(key)}.json").write_text(
            json.dumps(
                {
                    "schema_version": WORKSPACE_SCHEMA_VERSION,
                    "key": key,
                    "value": None,
                }
            )
        )
        with pytest.warns(UserWarning, match="unreadable"):
            ws = Workspace(root)  # must not raise
        assert len(ws.store) == good  # every other entry still loaded
        ws.sweep(tiny_spec())
        assert ws.stats.plan_hits == 2

    def test_root_expands_home_shorthand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        ws = Workspace("~/ws-home-test")
        assert ws.root == tmp_path / "ws-home-test"
        assert not (Path.cwd() / "~").exists()

    def test_discard_works_without_opening(self, tmp_path):
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        profile_files = list((root / "profiles").glob("*.json"))
        payload = json.loads(profile_files[0].read_text())
        payload["schema_version"] = 999
        profile_files[0].write_text(json.dumps(payload))
        # a legacy single-file store is discarded alongside
        (root / "profiles.json").write_text("{}")
        removed = Workspace.discard(root)
        assert removed["profiles"] == len(profile_files) + 1
        assert removed["plans"] == 2
        assert not (root / "profiles.json").exists()
        # and the workspace opens cleanly again
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        assert ws.stats.plan_misses == 2

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        ws.save()
        # anything hidden would be a leaked temp file from a non-atomic
        # write (profile saves take no workspace-wide lock file at all)
        leftovers = [
            p
            for directory in (root, root / "profiles", root / "plans")
            for p in directory.iterdir()
            if p.name.startswith(".")
        ]
        assert leftovers == []


def _layer(seq_len: int) -> MoELayerSpec:
    return MoELayerSpec(
        batch_size=1, seq_len=seq_len, embed_dim=512, num_experts=8,
        num_heads=8,
    )


class TestProfileFiles:
    """One content-addressed file per profile, each written exactly once."""

    @staticmethod
    def _record_writes(monkeypatch) -> list[tuple[Path, int]]:
        writes: list[tuple[Path, int]] = []
        real = workspace_module._atomic_write

        def recording(path: Path, text: str) -> None:
            writes.append((path, len(text.encode())))
            real(path, text)

        monkeypatch.setattr(workspace_module, "_atomic_write", recording)
        return writes

    def test_save_writes_only_new_profiles(self, tmp_path, monkeypatch):
        writes = self._record_writes(monkeypatch)
        root = tmp_path / "ws"
        profiles = root / "profiles"
        cluster = make_testbed_b()
        a, b, c = _layer(256), _layer(384), _layer(512)

        ws = Workspace(root)
        ws.plan([a, b], Tutel(), cluster)
        first = [path for path, _ in writes if path.parent == profiles]
        assert len(first) == len(set(first)) == ws.stats.profiles.misses
        assert sorted(first) == sorted(profiles.glob("*.json"))
        before = {
            path: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in first
        }

        # shares the cluster profile and layer a, fits layer c only
        writes.clear()
        fitted = ws.stats.profiles
        ws.plan([a, c], Tutel(), cluster)
        delta = ws.stats.profiles - fitted
        assert delta.cluster_misses == 0 and delta.layer_misses == 1
        second = [(p, size) for p, size in writes if p.parent == profiles]
        assert len(second) == 1
        (path, size), = second
        assert path not in before
        assert size == path.stat().st_size
        for other, identity in before.items():
            assert (other.stat().st_ino, other.stat().st_mtime_ns) == identity

        writes.clear()
        warm = Workspace(root)
        warm.plan([a, b], Tutel(), cluster)
        warm.plan([a, c], Tutel(), cluster)
        warm.save()
        assert warm.stats.warm
        assert [p for p, _ in writes if p.parent == profiles] == []
        assert not (root / ".workspace.lock").exists()

    def test_each_save_writes_exactly_what_settled_since_the_last(
        self, tmp_path, monkeypatch
    ):
        writes = self._record_writes(monkeypatch)
        root = tmp_path / "ws"
        cluster = make_testbed_b()
        stacks = [
            [_layer(256)],
            [_layer(256), _layer(384)],
            [_layer(384), _layer(256)],  # nothing new
            [_layer(512), _layer(640), _layer(256)],
        ]
        ws = Workspace(root, autosave=False)
        on_disk: set[Path] = set()
        for stack in stacks:
            fitted = ws.stats.profiles.misses
            ws.plan(stack, Tutel(), cluster)
            writes.clear()
            ws.save()  # autosave is off: plan files only until here
            new = ws.stats.profiles.misses - fitted
            written = [path for path, _ in writes]
            assert len(written) == len(set(written)) == new
            assert on_disk.isdisjoint(written)
            on_disk.update(written)
            writes.clear()
            ws.save()  # nothing settled in between
            assert writes == []
        assert on_disk == set((root / "profiles").glob("*.json"))

        reopened = Workspace(root, autosave=False)
        reopened.save()  # preloaded profiles are never journaled
        for stack in stacks:
            reopened.plan(stack, FSMoE(solver="slsqp"), cluster)
        reopened.save()
        assert reopened.stats.profiles.misses == 0
        assert [p for p, _ in writes if p.parent == root / "profiles"] == []

    def test_failed_write_is_retried_by_the_next_save(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "ws"
        ws = Workspace(root, autosave=False)
        ws.plan([_layer(256), _layer(384)], Tutel(), make_testbed_b())
        assert len(ws.store) == 3
        real = workspace_module._atomic_write
        calls = []

        def second_write_fails(path: Path, text: str) -> None:
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            real(path, text)

        monkeypatch.setattr(
            workspace_module, "_atomic_write", second_write_fails
        )
        with pytest.raises(OSError, match="disk full"):
            ws.save()
        assert len(list((root / "profiles").glob("*.json"))) == 1
        monkeypatch.setattr(workspace_module, "_atomic_write", real)
        writes = self._record_writes(monkeypatch)
        ws.save()
        retried = [path for path, _ in writes]
        assert len(retried) == 2 and retried[0] == calls[1]
        assert len(list((root / "profiles").glob("*.json"))) == 3

    def test_clear_starts_with_an_empty_journal(self, tmp_path, monkeypatch):
        root = tmp_path / "ws"
        cluster = make_testbed_b()
        ws = Workspace(root, autosave=False)
        ws.plan(_layer(256), Tutel(), cluster)
        ws.clear()
        writes = self._record_writes(monkeypatch)
        ws.save()
        assert writes == []
        assert list((root / "profiles").glob("*.json")) == []
        ws.plan(_layer(256), Tutel(), cluster)  # genuinely cold again
        ws.save()
        profiles = [p for p, _ in writes if p.parent == root / "profiles"]
        assert len(profiles) == ws.stats.profiles.misses == 2

    def test_autosave_off_writes_nothing_until_save(self, tmp_path):
        root = tmp_path / "ws"
        ws = Workspace(root, autosave=False)
        ws.plan(_layer(256), Tutel(), make_testbed_b())
        assert list((root / "profiles").glob("*.json")) == []
        ws.save()
        assert len(list((root / "profiles").glob("*.json"))) == len(ws.store)

    def test_corrupt_and_misnamed_files_cost_only_their_entries(
        self, tmp_path
    ):
        root = tmp_path / "ws"
        spec = tiny_spec(
            stacks=(StackSpec(layers=(_layer(256), _layer(384), _layer(512))),)
        )
        Workspace(root).sweep(spec)
        files = sorted((root / "profiles").glob("*.json"))
        assert len(files) == 4  # the cluster profile and three layers
        corrupt, misnamed = files[0], files[1]
        corrupt.write_text(corrupt.read_text()[:40])
        payload = json.loads(misnamed.read_text())
        payload["key"] = json.loads(files[2].read_text())["key"]
        misnamed.write_text(json.dumps(payload))

        with pytest.warns(UserWarning, match="unreadable"):
            ws = Workspace(root)
        assert len(ws.store) == len(files) - 2
        for path in (corrupt, misnamed):
            assert not path.exists()
            assert path.with_name(path.name + ".corrupt").exists()

        # recompiling the plans refits exactly the two lost entries
        for plan_file in (root / "plans").glob("*.json"):
            plan_file.unlink()
        ws.sweep(spec)
        assert ws.stats.profiles.misses == 2
        assert sorted((root / "profiles").glob("*.json")) == files

    def test_legacy_profiles_file_is_not_read(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "profiles.json").write_text("not json")
        ws = Workspace(root)  # neither refused nor quarantined
        assert len(ws.store) == 0
        assert (root / "profiles.json").exists()


def test_concurrent_plans_single_flight(tmp_path, monkeypatch):
    """Threads planning one request share its single compile.

    The compile waits until every other thread has joined the in-flight
    entry, so each of them arrives while it is still running.
    """
    from repro.planner.compiler import PlanCompiler

    threads_n = 4
    ws = Workspace(tmp_path / "ws")
    compile_real = PlanCompiler.compile

    def slow_compile(self, *args, **kwargs):
        deadline = time.monotonic() + 10.0
        while ws.stats.plan_hits < threads_n - 1:
            assert time.monotonic() < deadline, "joiners never arrived"
            time.sleep(0.001)
        return compile_real(self, *args, **kwargs)

    monkeypatch.setattr(PlanCompiler, "compile", slow_compile)
    stack = [tiny_spec().stacks[0].layers[0]] * 2
    cluster = make_testbed_b()
    barrier = threading.Barrier(threads_n)
    plans: list = []
    errors: list[BaseException] = []

    def planner() -> None:
        try:
            barrier.wait()
            plans.append(ws.plan(stack, Tutel(), cluster))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=planner) for _ in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    stats = ws.stats
    assert stats.plan_misses == 1
    assert stats.plan_hits == threads_n - 1
    assert len(plans) == threads_n
    assert all(plan == plans[0] for plan in plans)


def test_atomic_write_is_safe_across_threads(tmp_path):
    """Two threads replacing one path never share a temp file."""
    path = tmp_path / "doc.json"
    rounds = 200
    barrier = threading.Barrier(2)
    errors: list[BaseException] = []

    def writer(tag: int) -> None:
        try:
            for round_ in range(rounds):
                barrier.wait()
                workspace_module._atomic_write(
                    path,
                    json.dumps(
                        {"writer": tag, "round": round_, "pad": "x" * 4096}
                    ),
                )
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=writer, args=(t,)) for t in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert json.loads(path.read_text())["round"] == rounds - 1
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """A write whose replace fails removes its temp file and re-raises."""
    root = tmp_path / "ws"
    Workspace(root)

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        workspace_module._atomic_write(root / "plans" / "doc.json", "{}")
    monkeypatch.undo()
    assert list((root / "plans").iterdir()) == []
    assert Workspace.gc_plans(root, max_entries=0)["removed"] == 0
