"""Inter-process locking: FileLock semantics and the workspace hammer."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import FileLock, LockTimeout, MoELayerSpec, Workspace
from repro.api.codec import digest
from repro.api.workspace import WORKSPACE_SCHEMA_VERSION

SRC = Path(__file__).parent.parent / "src"


class TestFileLock:
    def test_context_manager_acquires_and_releases(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert not lock.held
        with lock:
            assert lock.held
        assert not lock.held
        assert (tmp_path / "x.lock").exists()  # lock files persist

    def test_reacquire_while_held_raises(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_release_is_idempotent(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        lock.acquire()
        lock.release()
        lock.release()

    def test_second_instance_times_out_while_held(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path)
        contender = FileLock(path, timeout_s=0.1, poll_s=0.01)
        with holder:
            start = time.monotonic()
            with pytest.raises(LockTimeout):
                contender.acquire()
            assert time.monotonic() - start >= 0.1
        # released: the contender gets through now
        with contender:
            assert contender.held

    def test_excludes_across_processes(self, tmp_path):
        """A subprocess holding the lock blocks this process."""
        path = tmp_path / "x.lock"
        script = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from repro import FileLock\n"
            f"lock = FileLock({str(path)!r})\n"
            "lock.acquire()\n"
            "print('locked', flush=True)\n"
            "time.sleep(1.0)\n"
            "lock.release()\n"
            "print('released', flush=True)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "locked"
            contender = FileLock(path, timeout_s=0.2, poll_s=0.01)
            with pytest.raises(LockTimeout):
                contender.acquire()
            # and once the subprocess lets go, acquisition succeeds
            patient = FileLock(path, timeout_s=10.0, poll_s=0.01)
            with patient:
                assert patient.held
        finally:
            proc.wait(timeout=30)


def _hammer_script(root: Path, worker: int, rounds: int) -> str:
    """One hammer process: plan shared + unique specs, saving each round."""
    return (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from repro import MoELayerSpec, Workspace, testbed_b\n"
        "from repro.systems.registry import get_system\n"
        f"ws = Workspace({str(root)!r})\n"
        "cluster = testbed_b()\n"
        f"for round in range({rounds}):\n"
        "    shared = MoELayerSpec(batch_size=1, seq_len=256,\n"
        "                          embed_dim=512, num_experts=8,\n"
        "                          num_heads=8)\n"
        "    unique = MoELayerSpec(batch_size=1,\n"
        f"                          seq_len=300 + 64 * {worker} + round,\n"
        "                          embed_dim=512, num_experts=8,\n"
        "                          num_heads=8)\n"
        "    for spec in (shared, unique):\n"
        "        plan = ws.plan((spec,), get_system('tutel'), cluster)\n"
        "        assert plan.num_layers == 1\n"
        "print('ok', flush=True)\n"
    )


class TestMultiProcessWorkspace:
    def test_concurrent_processes_never_interleave_writes(self, tmp_path):
        """N processes share one root; caches end up whole and complete.

        Every process plans one *shared* spec (cross-process single
        flight / duplicate suppression) and several *unique* specs
        (merge-on-save must union them: pre-locking, last-writer-wins
        dropped other processes' profiles).
        """
        root = tmp_path / "shared-ws"
        workers, rounds = 4, 2
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _hammer_script(root, w, rounds)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for w in range(workers)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"

        # every profile file is valid, versioned, and named by its key;
        # together they hold the union
        for path in (root / "profiles").glob("*.json"):
            data = json.loads(path.read_text())
            assert data["schema_version"] == WORKSPACE_SCHEMA_VERSION
            assert digest(data["key"]) == path.stem
        reopened = Workspace(root)
        # 1 shared + workers * rounds unique layer profiles, plus the
        # cluster profile entry
        assert len(reopened.store) >= 1 + workers * rounds + 1

        # every plan file parses and matches the schema
        plan_files = sorted((root / "plans").glob("*.json"))
        assert len(plan_files) == 1 + workers * rounds
        for path in plan_files:
            plan_doc = json.loads(path.read_text())
            assert plan_doc["schema_version"] == WORKSPACE_SCHEMA_VERSION
            assert "plan" in plan_doc and "key" in plan_doc
        # no quarantined, temporary or workspace-lock leftovers anywhere
        assert list(root.glob("**/*.corrupt")) == []
        assert [p for p in root.glob("**/*") if p.name.startswith(".")] == []

        # a warm reopen plans everything from cache
        spec = MoELayerSpec(
            batch_size=1, seq_len=256, embed_dim=512,
            num_experts=8, num_heads=8,
        )
        from repro import testbed_b
        from repro.systems.registry import get_system

        reopened.plan((spec,), get_system("tutel"), testbed_b())
        stats = reopened.stats
        assert stats.plan_misses == 0 and stats.plan_hits == 1
        assert stats.profiles.misses == 0

    def test_merge_save_preserves_foreign_entries(self, tmp_path):
        """save() unions with on-disk entries instead of overwriting."""
        root = tmp_path / "ws"
        first = Workspace(root)
        spec_a = MoELayerSpec(
            batch_size=1, seq_len=256, embed_dim=512,
            num_experts=8, num_heads=8,
        )
        from repro import testbed_b
        from repro.systems.registry import get_system

        first.plan((spec_a,), get_system("tutel"), testbed_b())
        entries_after_first = len(Workspace(root).store)

        # second session, opened BEFORE first's last save, fits another
        # spec and saves; both sessions' entries must survive
        second = Workspace(root)
        spec_b = MoELayerSpec(
            batch_size=1, seq_len=512, embed_dim=512,
            num_experts=8, num_heads=8,
        )
        second.plan((spec_b,), get_system("tutel"), testbed_b())
        first.save()  # re-save stale session: must not clobber spec_b

        final = Workspace(root)
        assert len(final.store) > entries_after_first
        warm = final.plan((spec_b,), get_system("tutel"), testbed_b())
        assert warm is not None
        assert final.stats.profiles.misses == 0
