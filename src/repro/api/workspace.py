"""Disk-rooted experiment sessions: profile + plan caches that survive.

A :class:`Workspace` is the library's front door.  It owns

* a **persistent** :class:`~repro.planner.store.ProfileStore` -- every
  cluster and layer profile fitted through the workspace is written
  once, to its own content-addressed file ``<root>/profiles/<digest>.json``
  (versioned, atomic writes, a corrupt file costs only its own entry)
  and preloaded on the next open, so a second process re-fits nothing;
* a **content-addressed plan cache** -- every compiled
  :class:`~repro.planner.plan.IterationPlan` lands in
  ``<root>/plans/<digest>.json``, keyed on the full plan identity
  (cluster, layout, stack, gates, system fingerprint, profiler knobs),
  so a warm re-run of any sweep compiles zero plans and replays each one
  bit-identically.

Both caches expose exact hit/miss counters (:attr:`Workspace.stats`):
"this re-run fitted zero new profiles and compiled zero new plans" is an
assertion, not a hope.

Lookups route through a tier stack (:mod:`repro.cache`): **L1**, a
per-process in-memory LRU bounded by entries and approximate bytes;
**L2**, the on-disk layout below; and optionally
**L3**, a shared remote cache server (``REPRO_CACHE_REMOTE=host:port``
or the ``remote=`` constructor argument), so a fleet of processes warms
each other.  Misses fall through tier by tier, hits fill the tiers
above (read-through), fresh compiles write through, and every movement
is counted per tier in :attr:`WorkspaceStats.cache`.

On-disk layout::

    <root>/
      profiles/
        <digest>.json        # schema_version + key + one fitted profile
      plans/
        <digest>.json        # schema_version + key + serialized plan

Plans and profiles are one kind of *document*, the same bytes in every
tier (the L3 entry under ``<digest>`` is the L2 file's text): one
builder writes them, one reader checks them, and each tier has one
failure policy.  At L2 a schema-version mismatch is *refused* (a newer
library must not silently misread an older cache -- run ``python -m
repro cache clear``) and any other defect -- unparsable JSON, a missing
header, a key that does not match the digest, an undecodable body --
is *recovered from*: the file is renamed to ``*.corrupt``, counted as an
L2 error, and only that entry is recomputed.  At L3 every defect counts
an error and a miss.  A legacy ``profiles.json`` is not read.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..bench.runner import ConfigResult
from ..cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    LRUCache,
    RemoteTier,
    TierStats,
)
from ..config import MoELayerSpec, ParallelSpec
from ..core.context import SolverStats
from ..core.pipeline_degree import DEFAULT_MAX_DEGREE
from ..errors import ConfigError, WorkspaceError
from ..locking import FileLock
from ..moe.gates import GateKind
from ..obs.metrics import CounterCell, Stats, nested
from ..obs.trace import Tracer
from ..parallel.topology import ClusterSpec
from ..planner.compiler import PlanCompiler
from ..planner.plan import IterationPlan
from ..planner.store import ProfileStore, StoreStats
from ..systems.base import TrainingSystem
from .codec import canonical_json, decode, digest, encode, text_digest
from .request import PlanRequest
from .spec import ExperimentSpec

if TYPE_CHECKING:  # imported lazily at runtime: serve sits above api
    from ..serve.stats import ServiceStats

#: current format of profiles/*.json and plans/*.json (and of L3 documents).
WORKSPACE_SCHEMA_VERSION = 1

#: bound on waiting for another process's lock on an in-flight compile.
LOCK_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class WorkspaceStats(Stats):
    """Cache counters for one workspace session.

    Attributes:
        profiles: the profile store's hit/miss counters.
        plan_hits: plan requests served from cache (disk or session).
        plan_misses: plans actually compiled this session.
        solver: this session's Algorithm-1 and Step-2 solver counters
            (solves, cache hits, batch calls/sizes, Step-2 objective
            passes) -- those of the profile store's solver context.
        service: counters of the :class:`~repro.serve.PlanService`
            bound to this workspace (None when no service is serving
            from it).
        cache: exact per-tier counters (L1 memory / L2 disk / L3
            remote, plus the profile store's remote traffic) behind the
            ``plan_hits``/``plan_misses`` totals above.

    The report runner snapshots :attr:`Workspace.stats` around each
    artifact and attributes the window (``later.since(earlier)``:
    profiles fitted, plans compiled, degree solves) to it.  ``service``
    is carried from the later snapshot: service counters are cumulative
    per service, not windowable here.  Exported under
    ``repro.workspace.*`` with the nested families under their own
    prefixes.
    """

    profiles: StoreStats = nested(prefix="repro.workspace.profile_")
    plan_hits: int = 0
    plan_misses: int = 0
    solver: SolverStats = nested(SolverStats(), prefix="repro.solver.")
    service: "ServiceStats | None" = nested(
        None, prefix="repro.serve.", carried=True
    )
    cache: CacheStats = nested(CacheStats(), prefix="repro.cache.")

    @property
    def warm(self) -> bool:
        """True when this session computed nothing new at all."""
        return self.profiles.misses == 0 and self.plan_misses == 0


@dataclass(frozen=True)
class PlanPoint:
    """One planned grid point: a stack under a system on a cluster.

    Attributes:
        cluster: the target cluster.
        parallel: the layout the plan was compiled for.
        stack: per-layer specs of the planned iteration.
        system_name: the training system's display name.
        gate_kind: routing function used for the timing profiles (the
            first layer's, for stacks with per-layer overrides).
        plan: the compiled, serializable iteration plan.
        makespan_ms: simulated iteration time of the plan.
        gate_kinds: per-layer routing functions, when they differ from a
            uniform ``gate_kind`` (None for homogeneous gating).
    """

    cluster: ClusterSpec
    parallel: ParallelSpec
    stack: tuple[MoELayerSpec, ...]
    system_name: str
    gate_kind: GateKind
    plan: IterationPlan
    makespan_ms: float
    gate_kinds: tuple[GateKind, ...] | None = None

    def row(self) -> dict[str, object]:
        """Flat dict view for tables / pandas post-processing."""
        first = self.stack[0]
        if self.gate_kinds is not None:
            gate = ",".join(kind.value for kind in self.gate_kinds)
        else:
            gate = self.gate_kind.value
        return {
            "cluster": self.cluster.name,
            "system": self.system_name,
            "num_layers": len(self.stack),
            "heterogeneous": len(set(self.stack)) > 1,
            "batch_size": first.batch_size,
            "seq_len": first.seq_len,
            "embed_dim": first.embed_dim,
            "num_experts": first.num_experts,
            "top_k": first.top_k,
            "gate_kind": gate,
            "makespan_ms": self.makespan_ms,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """All planned points of one :meth:`Workspace.sweep`, in grid order.

    Grid order is ``clusters`` (outer) x ``stacks`` x ``systems``
    (inner), independent of which worker finished first.
    """

    spec: ExperimentSpec
    points: tuple[PlanPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def rows(self) -> list[dict[str, object]]:
        """Tidy table: one flat dict per planned point."""
        return [point.row() for point in self.points]

    def config_results(self) -> list[ConfigResult]:
        """One :class:`~repro.bench.runner.ConfigResult` per
        (cluster, layout, stack, gates) case, in grid order.

        Bridges declarative sweeps into the reporting helpers
        (:func:`~repro.bench.runner.speedups_over`, ...).  Stacks that
        differ only in their routing functions stay separate cases.
        """
        cases: dict[tuple, ConfigResult] = {}
        order: list[tuple] = []
        for point in self.points:
            gates = point.gate_kinds or (point.gate_kind,) * len(point.stack)
            key = (point.cluster, point.parallel, point.stack, gates)
            if key not in cases:
                cases[key] = ConfigResult(
                    spec=point.stack[0],
                    parallel=point.parallel,
                    times_ms={},
                )
                order.append(key)
            cases[key].times_ms[point.system_name] = point.makespan_ms
        return [cases[key] for key in order]


def _resolve_tracer(
    trace: "Tracer | str | Path | bool | None", root: Path
) -> Tracer | None:
    """Resolve the ``Workspace(trace=...)`` argument to a tracer.

    ``None`` consults ``REPRO_TRACE`` (unset/empty = off, ``"1"`` = a
    trace file at ``<root>/trace.jsonl``, anything else = that trace
    file path); ``False`` forces tracing off regardless of the
    environment; ``True`` makes a buffer-only tracer; a string or path
    makes a tracer appending to that JSON-lines file; an existing
    :class:`~repro.obs.Tracer` is shared as-is (how the report runner
    shares one tracer across workspaces).
    """
    if isinstance(trace, Tracer):
        return trace
    if trace is None:
        trace = os.environ.get("REPRO_TRACE", "")
    if trace is False or trace == "":
        return None
    if trace is True:
        return Tracer()
    if trace == "1":
        return Tracer(root / "trace.jsonl")
    return Tracer(trace)


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The same-directory temp file is named per process and thread, so
    concurrent writers of one path never share one; a failed write
    removes it before re-raising.
    """
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _document(key: object, field: str, body: object) -> str:
    """The text of one document: ``body`` under ``field``, filed by ``key``."""
    return json.dumps(
        {"schema_version": WORKSPACE_SCHEMA_VERSION, "key": key, field: body}
    )


def _load_plan(data: dict) -> IterationPlan:
    """The body of a plan document."""
    return IterationPlan.from_dict(data["plan"])


def _load_profile(data: dict) -> tuple[tuple, object]:
    """The ``(full_key, value)`` of a profile document."""
    return decode(data["key"])[1], decode(data["value"])


def _read_document(
    text: str,
    load: Callable[[dict], object],
    dig: str,
    key_json: str | None = None,
) -> object:
    """``load`` of the document ``text`` filed under ``dig``.

    The stored key must equal ``key_json`` when the caller knows the
    canonical key, and must digest to ``dig`` otherwise.

    Raises:
        WorkspaceError: for a document of another schema version.
        ValueError: for any other defect -- unparsable JSON, a missing
            header, a key that does not match, a body that does not
            decode.
    """
    try:
        data = json.loads(text)
        version = data["schema_version"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"unparsable document: {exc}") from None
    if version != WORKSPACE_SCHEMA_VERSION:
        raise WorkspaceError(
            f"was written with schema version {version!r}; this build "
            f"reads version {WORKSPACE_SCHEMA_VERSION}."
        )
    try:
        key_text = canonical_json(data["key"])
        if key_json is None:  # only the address is known: check that
            valid = text_digest(key_text) == dig
        else:
            valid = key_text == key_json
        if not valid:
            raise ValueError("key does not match its address")
        return load(data)
    except Exception as exc:  # noqa: BLE001 - every decode failure
        raise ValueError(f"undecodable document: {exc}") from None


def _remote_get(
    remote: RemoteTier,
    counts: CounterCell,
    dig: str,
    load: Callable[[dict], object],
    key_json: str,
) -> tuple[str, object] | None:
    """One L3 get under the L3 policy: ``(text, load(document))`` or None.

    Counts one hit or miss in ``counts``; a failed get or a document
    the reader refuses also counts an error -- refused, never misread.
    """
    try:
        text = remote.get(dig)
        if text is None:
            if remote.last_get_failed():
                counts.inc("errors")
            counts.inc("misses")
            return None
        body = _read_document(text, load, dig, key_json)
    except Exception:  # noqa: BLE001 - the shared tier never fails a plan
        counts.inc("errors", "misses")
        return None
    counts.inc("hits")
    return text, body


def _remote_put(
    remote: RemoteTier, counts: CounterCell, dig: str, text: str
) -> None:
    """One L3 put, counted as a write or (refused, unreachable) an error."""
    try:
        stored = remote.put(dig, text)
    except Exception:  # noqa: BLE001 - the shared tier never fails a plan
        stored = False
    counts.inc("writes" if stored else "errors")


class _ProfileTier:
    """The profile store's lower tier: the shared L3 and the save journal.

    A :class:`~repro.planner.store.LowerTier`.  Each profile document is
    built once, when its entry settles; those bytes are published to L3
    and journaled for :meth:`Workspace.save`.  A profile fetched from L3
    is journaled as the fetched bytes.  Preloaded profiles never are.
    """

    def __init__(self, remote: RemoteTier | None, counts: CounterCell):
        self._remote = remote
        self._counts = counts
        self._lock = threading.Lock()
        # (digest, text) of each document settled since the last drain.
        self._journal: list[tuple[str, str]] = []

    def fetch(self, full_key: tuple) -> object | None:
        """The profile under ``full_key`` from L3, or None."""
        if self._remote is None:
            return None
        key_json = canonical_json(encode(("profile", full_key)))
        dig = text_digest(key_json)
        got = _remote_get(
            self._remote, self._counts, dig, _load_profile, key_json
        )
        if got is None:
            return None
        text, (_, value) = got
        with self._lock:
            self._journal.append((dig, text))
        return value

    def settle(self, full_key: tuple, value: object) -> None:
        """Build a fitted profile's document; publish and journal it."""
        key = encode(("profile", full_key))
        dig, text = digest(key), _document(key, "value", encode(value))
        if self._remote is not None:
            _remote_put(self._remote, self._counts, dig, text)
        with self._lock:
            self._journal.append((dig, text))

    def drain(self, write: Callable[[str, str], None]) -> None:
        """Hand each document journaled since the last drain to ``write``.

        ``write(digest, text)``; if it raises, that document and every
        later one stay journaled for the next drain.
        """
        with self._lock:
            pending, self._journal = self._journal, []
        for index, (dig, text) in enumerate(pending):
            try:
                write(dig, text)
            except BaseException:
                with self._lock:
                    self._journal[:0] = pending[index:]
                raise


def _cache_files(directory: Path, pattern: str) -> list[Path]:
    """The cache files in ``directory`` matching ``pattern``.

    Dotfiles are skipped: pathlib's glob matches them, and they are
    :func:`_atomic_write`'s in-flight temp files, which belong to the
    process writing them.
    """
    return [
        path for path in directory.glob(pattern)
        if not path.name.startswith(".")
    ]


def _quarantine(path: Path) -> None:
    """Move an unreadable cache file aside instead of deleting evidence."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - racing cleaners
        pass
    warnings.warn(
        f"workspace cache file {path} was unreadable; "
        f"moved to {target.name} and starting fresh",
        stacklevel=3,
    )


class Workspace:
    """A disk-rooted session over the planner: open, plan, re-run warm.

    Args:
        root: directory holding the caches (created if missing).
        autosave: persist new profiles after each cache-missing
            :meth:`plan` call (False: only on an explicit :meth:`save`).
        l1_entries: entry bound of the in-memory plan tier; ``0``
            disables L1 entirely (every lookup goes to disk), None
            means the default bound.
        l1_bytes: approximate byte bound of the in-memory plan tier
            (None means the default bound).
        remote: ``host:port`` of a shared L3
            :class:`~repro.cache.CacheServer`; None consults the
            ``REPRO_CACHE_REMOTE`` environment variable, and an empty
            string disables the tier explicitly.  The remote tier is
            best-effort -- an unreachable server degrades every lookup
            to a miss, it never fails a plan.
        trace: structured tracing (off by default, and zero-cost when
            off: the hot paths hold ``None`` and allocate nothing).
            None consults the ``REPRO_TRACE`` environment variable
            (unset/empty = off, ``"1"`` = a trace file at
            ``<root>/trace.jsonl``, anything else = a JSON-lines trace
            file path); ``True`` enables an in-memory tracer, a path
            enables a trace file, an existing
            :class:`~repro.obs.Tracer` is shared as-is, and ``False``
            forces tracing off.  See :attr:`tracer` and
            ``docs/OBSERVABILITY.md``.

    Concurrent processes may share one root: each profile is its own
    content-addressed file, written atomically and never rewritten, so
    processes union their profiles without a lock (two writers of one
    file write identical bytes), and plan compiles single-flight across
    processes through per-digest locks (``plans/<digest>.lock``) -- the
    second process blocks briefly and then loads the first one's plan
    from disk.

    Raises:
        WorkspaceError: when an existing cache was written by a
            different schema version (refused, never misread).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        autosave: bool = True,
        l1_entries: int | None = None,
        l1_bytes: int | None = None,
        remote: str | None = None,
        trace: "Tracer | str | Path | bool | None" = None,
    ) -> None:
        self.root = Path(root).expanduser()
        self.plans_dir = self.root / "plans"
        self.plans_dir.mkdir(parents=True, exist_ok=True)
        self.profiles_dir = self.root / "profiles"
        self.profiles_dir.mkdir(exist_ok=True)
        self._autosave = autosave
        self._io_lock = threading.Lock()
        # One reentrant lock guards the in-flight map and every counter
        # cell, so a stats snapshot is consistent across them.
        self._counter_lock = threading.RLock()
        self._plan_futures: dict[str, Future] = {}
        self._plan_counts = CounterCell(WorkspaceStats, self._counter_lock)
        self._service_stats: Callable[[], "ServiceStats"] | None = None
        if l1_entries is None:
            l1_entries = DEFAULT_MAX_ENTRIES
        if l1_bytes is None:
            l1_bytes = DEFAULT_MAX_BYTES
        self._l1: LRUCache | None = (
            LRUCache(l1_entries, l1_bytes) if l1_entries > 0 else None
        )
        if remote is None:
            remote = os.environ.get("REPRO_CACHE_REMOTE", "")
        self._remote: RemoteTier | None = (
            RemoteTier(remote) if remote else None
        )
        self._tracer: Tracer | None = _resolve_tracer(trace, self.root)
        # L1 counts only fills/writes here (the rest come from the LRU);
        # _prc is the profile store's remote traffic.
        self._l1c, self._l2c, self._l3c, self._prc = (
            CounterCell(TierStats, self._counter_lock) for _ in range(4)
        )
        self._open_store()
        self._load_profiles()

    # -- persistence ---------------------------------------------------------

    def _open_store(self) -> None:
        """A fresh profile store over a fresh profile tier."""
        self._profiles = _ProfileTier(self._remote, self._prc)
        self.store = ProfileStore(lower=self._profiles)

    def _read_disk(
        self,
        path: Path,
        load: Callable[[dict], object],
        key_json: str | None = None,
    ) -> tuple[str, object] | None:
        """One L2 read under the L2 policy: ``(text, load(document))``.

        The document is filed under its digest, ``path.stem``.  None for
        a missing file, and for any defect the reader finds: that file is
        quarantined and counted as one L2 error.  Hits, misses and fills
        are the caller's to count.

        Raises:
            WorkspaceError: for a document of another schema version
                (refused, never misread).
        """
        try:
            text = path.read_text()
            return text, _read_document(text, load, path.stem, key_json)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            _quarantine(path)
            self._l2c.inc("errors")
            return None
        except WorkspaceError as exc:
            raise WorkspaceError(
                f"cache file {path} {exc}  Run `python -m repro cache "
                f"clear --workspace {self.root}` to discard it."
            ) from None

    def _load_profiles(self) -> None:
        """Preload every profile file; quarantine the unreadable ones.

        Raises:
            WorkspaceError: for a schema-version mismatch.
        """
        entries: dict[tuple, object] = {}
        for path in sorted(self.profiles_dir.glob("*.json")):
            got = self._read_disk(path, _load_profile)
            if got is not None:
                full_key, value = got[1]
                entries[full_key] = value
        self.store.preload(entries)

    def save(self) -> None:
        """Write every profile settled since the last save.

        Each profile is its own content-addressed file, written once and
        atomically; nothing on disk is read, merged or rewritten.  The
        store's lower tier journals each profile document as it settles
        (built once, or as fetched from L3), so the cost is what changed
        since the last save -- not the size of the store, and no profile
        is re-encoded.  A write that fails leaves its document journaled,
        and the next save retries it.
        Processes sharing this root union their profiles by
        construction: concurrent writers of one file write identical
        bytes (profiling is deterministic in its key).
        """

        def write(dig: str, text: str) -> None:
            _atomic_write(self.profiles_dir / f"{dig}.json", text)

        with self._io_lock:
            self._profiles.drain(write)

    def close(self) -> None:
        """Release the open handles: the L3 connection and the trace file.

        Idempotent, and nothing is lost: both reopen on next use, and
        the caches stay as they are.  ``with Workspace(...) as ws:``
        closes on exit.
        """
        if self._remote is not None:
            self._remote.close()
        if self._tracer is not None:
            self._tracer.close()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- stats ---------------------------------------------------------------

    @property
    def tracer(self) -> "Tracer | None":
        """The session's :class:`~repro.obs.Tracer`, or None when off.

        When set, every :meth:`plan` call emits a ``plan`` span with
        its tier probes, compile and solver activity as child spans
        (span taxonomy in ``docs/OBSERVABILITY.md``).
        """
        return self._tracer

    @property
    def stats(self) -> WorkspaceStats:
        """Exact cache counters for this session.

        O(1) by construction -- counters and occupancy gauges are
        maintained incrementally, never by scanning a store or the disk
        -- so the serving and report layers can snapshot it per request
        without perturbing the paths it measures.  (Disk occupancy *is*
        a scan; it lives in :meth:`cache_info`, the CLI-only path.)
        """
        service = self._service_stats
        l1 = self._l1.stats if self._l1 is not None else TierStats()
        with self._counter_lock:
            l1_counts = self._l1c.counts()
            cache = CacheStats(
                l1=replace(
                    l1,
                    fills=l1_counts["fills"],
                    writes=l1_counts["writes"],
                ),
                l2=self._l2c.snapshot(),
                l3=self._l3c.snapshot(),
                profiles_remote=self._prc.snapshot(),
            )
            return self._plan_counts.snapshot(
                profiles=self.store.stats,
                solver=self.store.solver_context.stats,
                service=service() if service is not None else None,
                cache=cache,
            )

    def bind_service(
        self, stats_fn: Callable[[], "ServiceStats"] | None
    ) -> None:
        """Attach (or detach, with None) a serving layer's stats snapshot.

        Called by :class:`~repro.serve.PlanService` on construction so
        :attr:`stats` surfaces the service counters alongside the cache
        counters.  The last bound service wins.
        """
        self._service_stats = stats_fn

    def cache_info(self) -> dict[str, object]:
        """Inspectable summary of the on-disk caches (for ``repro cache``)."""
        plan_files = sorted(self.plans_dir.glob("*.json"))
        return {
            "root": str(self.root),
            "profile_dir": str(self.profiles_dir),
            "profile_files": len(list(self.profiles_dir.glob("*.json"))),
            "profile_entries": len(self.store),
            "plan_dir": str(self.plans_dir),
            "plan_entries": len(plan_files),
            "plan_bytes": sum(f.stat().st_size for f in plan_files),
            "l1_entries": len(self._l1) if self._l1 is not None else 0,
            "l1_bytes": self._l1.bytes if self._l1 is not None else 0,
            "remote": self._remote.address if self._remote else "",
            "schema_version": WORKSPACE_SCHEMA_VERSION,
        }

    def clear(self) -> None:
        """Discard every tier (memory, disk, session counters).

        The shared remote tier is *not* cleared: it is owned by the
        fleet, not this process, and its entries remain content-valid.
        """
        with self._io_lock:
            self.discard(self.root)
        if self._l1 is not None:
            self._l1.clear(reset_stats=True)
        with self._counter_lock:
            self._plan_futures = {}
            for cell in (
                self._plan_counts, self._l1c, self._l2c, self._l3c,
                self._prc,
            ):
                cell.reset()
        self._open_store()

    @staticmethod
    def discard(root: str | Path) -> dict[str, int]:
        """Delete a workspace's cache files without opening the workspace.

        Unlike ``Workspace(root).clear()`` this never reads the caches, so
        it also recovers workspaces a plain open would *refuse* (schema
        written by another library version) -- it is what ``python -m
        repro cache clear`` runs.  Quarantined ``*.corrupt`` files are
        removed as well, and so is a legacy ``profiles.json``; another
        process's in-flight temp files (dotfiles) are left alone.

        Returns:
            Count of profile and plan files removed.
        """
        root = Path(root).expanduser()
        removed = {"profiles": 0, "plans": 0}
        for directory, pattern in (
            (root / "profiles", "*.json*"), (root, "profiles.json*")
        ):
            for path in _cache_files(directory, pattern):
                path.unlink(missing_ok=True)
                removed["profiles"] += 1
        plans_dir = root / "plans"
        if plans_dir.is_dir():
            for path in _cache_files(plans_dir, "*.json*"):
                path.unlink(missing_ok=True)
                removed["plans"] += 1
            # Advisory per-digest lock files go too.  Racing a concurrent
            # compiler here at worst duplicates one compile (writes stay
            # atomic and content-identical); `clear` is destructive anyway.
            for path in plans_dir.glob("*.lock"):
                path.unlink(missing_ok=True)
        return removed

    @staticmethod
    def gc_plans(
        root: str | Path,
        *,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> dict[str, int]:
        """Evict plan-cache files by age and/or LRU order to fit bounds.

        Like :meth:`discard` this works at the file level -- it never
        reads the plans, so it also trims workspaces a plain open would
        refuse.  A plan file's mtime is refreshed on every cache *read*
        as well as on (re)writes, so mtime order approximates LRU order
        and ``max_age_days`` means "not used in N days".  Quarantined
        ``*.corrupt`` files age out the same way; in-flight temp files
        (dotfiles) are neither counted nor removed.

        At least one bound must be given; they compose (age first, then
        oldest-first eviction until both size bounds hold).

        Args:
            root: the workspace directory.
            max_age_days: age threshold in days; must be >= 0.
            max_bytes: total plan-cache byte budget; evicts least
                recently used files until under it.  Must be >= 0.
            max_entries: plan-file count budget, same LRU order.  Must
                be >= 0.

        Returns:
            ``{"removed": ..., "kept": ..., "removed_bytes": ...,
            "kept_bytes": ...}`` plan-file counts and byte totals.

        Raises:
            ConfigError: for a negative bound, or no bound at all.
        """
        if max_age_days is None and max_bytes is None and max_entries is None:
            raise ConfigError(
                "gc_plans needs at least one bound: max_age_days, "
                "max_bytes or max_entries"
            )
        if max_age_days is not None and max_age_days < 0:
            raise ConfigError(
                f"max_age_days must be >= 0, got {max_age_days}"
            )
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 0:
            raise ConfigError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        files: list[tuple[float, Path, int]] = []  # (mtime, path, size)
        plans_dir = Path(root).expanduser() / "plans"
        if plans_dir.is_dir():
            for path in sorted(_cache_files(plans_dir, "*.json*")):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - racing cleaners
                    continue
                files.append((stat.st_mtime, path, stat.st_size))
        files.sort()  # oldest (least recently used) first
        removed = removed_bytes = 0
        kept = len(files)
        kept_bytes = sum(size for _, _, size in files)

        def evict(index: int) -> None:
            nonlocal removed, removed_bytes, kept, kept_bytes
            _, path, size = files[index]
            path.unlink(missing_ok=True)
            removed += 1
            removed_bytes += size
            kept -= 1
            kept_bytes -= size

        survivor = 0  # files[:survivor] already evicted
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            while survivor < len(files) and files[survivor][0] < cutoff:
                evict(survivor)
                survivor += 1
        while survivor < len(files) and (
            (max_entries is not None and kept > max_entries)
            or (max_bytes is not None and kept_bytes > max_bytes)
        ):
            evict(survivor)
            survivor += 1
        return {
            "removed": removed,
            "kept": kept,
            "removed_bytes": removed_bytes,
            "kept_bytes": kept_bytes,
        }

    # -- planning ------------------------------------------------------------

    def compiler(
        self,
        cluster: ClusterSpec,
        parallel: ParallelSpec | None = None,
        *,
        noise: float = 0.0,
        seed: int = 0,
        r_max: int = DEFAULT_MAX_DEGREE,
    ) -> PlanCompiler:
        """A :class:`PlanCompiler` backed by this workspace's store.

        The low-level escape hatch: profiling runs through the persistent
        cache, but compiled plans bypass the plan cache.
        """
        return PlanCompiler(
            cluster,
            parallel,
            store=self.store,
            noise=noise,
            seed=seed,
            r_max=r_max,
        )

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh a plan file's mtime so mtime order approximates LRU."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - racing GC
            pass

    def _fill_l1(self, dig: str, plan: IterationPlan, size: int) -> None:
        """Read-through fill of the memory tier from a lower-tier hit."""
        if self._l1 is None:
            return
        self._l1.put(dig, plan, size=size)
        self._l1c.inc("fills")

    def _probe_disk(
        self, dig: str, path: Path, key_json: str, *, count_miss: bool = True
    ) -> IterationPlan | None:
        """One counted L2 lookup: load, touch, and fill L1 on a hit.

        The re-probe under the per-digest lock passes
        ``count_miss=False``: that probe only confirms (and counts) a
        cross-process fill, the fall-through to a compile was already
        counted by the first probe.
        """
        got = self._read_disk(path, _load_plan, key_json)
        if got is None:
            if count_miss:
                self._l2c.inc("misses")
            return None
        text, plan = got
        self._l2c.inc("hits")
        self._touch(path)
        self._fill_l1(dig, plan, len(text))
        return plan

    def _probe_remote(
        self, dig: str, path: Path, key_json: str
    ) -> IterationPlan | None:
        """One counted L3 lookup; hits fill the disk and memory tiers.

        The remote document is the exact on-disk file text, which lands
        on disk as fetched.
        """
        got = _remote_get(self._remote, self._l3c, dig, _load_plan, key_json)
        if got is None:
            return None
        text, plan = got
        _atomic_write(path, text)
        self._l2c.inc("fills")
        self._fill_l1(dig, plan, len(text))
        return plan

    def _lookup_plan(
        self, dig: str, path: Path, key_json: str
    ) -> IterationPlan | None:
        """Fall through the tier stack: L1 memory, L2 disk, L3 remote.

        When tracing is on, each tier probe becomes a child span of the
        enclosing ``plan`` span, named ``lN_probe`` while in flight and
        renamed ``lN_hit`` when the tier answers -- so a trace shows
        both the miss path walked and the tier that finally hit.  When
        off, the only cost per probe is one ``is None`` check.
        """
        tracer = self._tracer
        if self._l1 is not None:
            span = tracer.start("l1_probe") if tracer is not None else None
            plan = self._l1.get(dig)  # counts its own hit/miss
            if span is not None:
                if plan is not None:
                    span.name = "l1_hit"
                span.end()
            if plan is not None:
                return plan
        span = tracer.start("l2_probe") if tracer is not None else None
        plan = self._probe_disk(dig, path, key_json)
        if span is not None:
            if plan is not None:
                span.name = "l2_hit"
            span.end()
        if plan is None and self._remote is not None:
            span = tracer.start("l3_probe") if tracer is not None else None
            plan = self._probe_remote(dig, path, key_json)
            if span is not None:
                if plan is not None:
                    span.name = "l3_hit"
                span.end()
        return plan

    def recall(self, digest: str) -> IterationPlan | None:
        """The plan under ``digest`` if the memory tier holds it, else None.

        The serving layer's submit-time answer.  A hit counts one L1 hit
        and one plan hit, as the same probe inside :meth:`plan` would; a
        miss counts nothing, because the caller goes on to :meth:`plan`,
        whose own L1 probe counts it -- one counted lookup per request.
        """
        if self._l1 is None:
            return None
        plan = self._l1.get(digest, count_miss=False)
        if plan is not None:
            self._plan_counts.inc("plan_hits")
        return plan

    def plan(
        self,
        stack,
        system: TrainingSystem,
        cluster: ClusterSpec,
        *,
        parallel: ParallelSpec | None = None,
        gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD,
        routing_overhead: float = 1.0,
        include_gar: bool = True,
        noise: float = 0.0,
        seed: int = 0,
    ) -> IterationPlan:
        """Compile (or recall) the plan for one (stack, system, cluster).

        Same semantics as :meth:`PlanCompiler.compile`, plus the two
        persistent caches: profiling goes through the workspace store and
        the finished plan is content-addressed on
        ``(cluster, layout, stack, gates, system, knobs)`` -- the
        identity of one :class:`~repro.api.request.PlanRequest`.  A
        request whose plan is already on disk -- from this session or any
        earlier process -- touches neither the profiler nor the solvers.

        Raises:
            ConfigError: for an empty stack or malformed gate sequence.
            WorkspaceError: for a plan-cache schema-version mismatch.
        """
        request = PlanRequest(
            stack, system, cluster, parallel, gate_kind,
            routing_overhead, include_gar, noise, seed,
        )
        tracer = self._tracer
        if tracer is None:
            return self._plan_resolve(request)
        with tracer.start(
            "plan",
            {
                "digest": request.digest,
                "system": system.name,
                "layers": len(request.stack),
            },
        ):
            return self._plan_resolve(request)

    def _plan_resolve(self, request: PlanRequest) -> IterationPlan:
        """The single-flight tier walk + compile behind :meth:`plan`."""
        dig, key_json = request.digest, request.key_json
        tracer = self._tracer
        owner = False
        with self._counter_lock:
            future = self._plan_futures.get(dig)
            if future is None:
                future = Future()
                self._plan_futures[dig] = future
                owner = True
            else:
                self._plan_counts.inc("plan_hits")
        if not owner:
            # Joined onto another thread's in-flight resolution of the
            # same digest; the `join` span covers the wait.
            if tracer is None:
                return future.result()
            with tracer.start("join"):
                return future.result()

        path = self.plans_dir / f"{dig}.json"
        try:
            plan = self._lookup_plan(dig, path, key_json)
            if plan is not None:
                self._plan_counts.inc("plan_hits")
            else:
                # Cross-process single-flight: hold this digest's advisory
                # lock across the compile so a second process sharing the
                # root blocks briefly and then loads our plan instead of
                # recomputing it.
                plan_lock = FileLock(
                    self.plans_dir / f"{dig}.lock",
                    timeout_s=LOCK_TIMEOUT_S,
                )
                with plan_lock:
                    span = (
                        tracer.start("l2_probe")
                        if tracer is not None
                        else None
                    )
                    plan = self._probe_disk(
                        dig, path, key_json, count_miss=False
                    )
                    if span is not None:
                        if plan is not None:
                            span.name = "l2_hit"
                        span.end()
                    if plan is not None:
                        # Another process compiled it while we waited.
                        self._plan_counts.inc("plan_hits")
                    else:
                        compiler = self.compiler(
                            request.cluster, request.parallel,
                            noise=request.noise, seed=request.seed,
                            r_max=request.system.r_max,
                        )
                        plan = compiler.compile(
                            request.stack,
                            request.system,
                            gate_kind=request.gate_kind,
                            routing_overhead=request.routing_overhead,
                            include_gar=request.include_gar,
                        )
                        self._plan_counts.inc("plan_misses")
                        text = _document(
                            request.key, "plan", plan.to_dict()
                        )
                        # Write-through: disk, then memory, then (best
                        # effort) the shared tier.
                        _atomic_write(path, text)
                        self._l2c.inc("writes")
                        if self._l1 is not None:
                            self._l1.put(dig, plan, size=len(text))
                            self._l1c.inc("writes")
                        if self._remote is not None:
                            _remote_put(self._remote, self._l3c, dig, text)
                if self._autosave:
                    self.save()
        except BaseException as exc:
            with self._counter_lock:
                del self._plan_futures[dig]
            future.set_exception(exc)
            raise
        future.set_result(plan)
        # Completed futures are not kept: later requests in this session
        # are answered by the L1 tier (or disk), so the in-flight map
        # stays bounded by genuine concurrency, not by session length.
        with self._counter_lock:
            self._plan_futures.pop(dig, None)
        return plan

    # -- sweeps --------------------------------------------------------------

    def sweep(self, spec: ExperimentSpec) -> ExperimentResult:
        """Plan and simulate a declarative experiment grid.

        The grid's points are planned in order on the calling thread;
        all profiling deduplicates through the persistent store and
        every plan lands in (or comes from) the plan cache.  Re-running
        the same spec against the same workspace is fully warm: zero
        profiles fitted, zero plans compiled (assert via :attr:`stats`).

        Args:
            spec: the experiment description.
        """
        deployments, systems = spec.resolve()
        default_gate = spec.gate_kind
        grid: list[tuple] = []
        for cluster, parallel in deployments:
            for stack_spec in spec.stacks:
                stack = stack_spec.resolve(parallel)
                gates = stack_spec.resolve_gates(len(stack), default_gate)
                for system in systems:
                    grid.append((cluster, parallel, stack, gates, system))

        def plan_point(cluster, parallel, stack, gates, system) -> PlanPoint:
            plan = self.plan(
                stack,
                system,
                cluster,
                parallel=parallel,
                gate_kind=gates,
                routing_overhead=spec.routing_overhead,
                noise=spec.noise,
                seed=spec.seed,
            )
            return PlanPoint(
                cluster=cluster,
                parallel=parallel,
                stack=stack,
                system_name=system.name,
                gate_kind=gates[0],
                plan=plan,
                makespan_ms=plan.makespan_ms(),
                gate_kinds=gates if len(set(gates)) > 1 else None,
            )

        tracer = self._tracer
        if tracer is None:
            points = [plan_point(*point) for point in grid]
        else:
            points = []
            attrs = {"name": spec.name, "points": len(grid)}
            with tracer.start("sweep", attrs):
                for point in grid:
                    with tracer.start("point", {"system": point[-1].name}):
                        points.append(plan_point(*point))
        return ExperimentResult(spec=spec, points=tuple(points))
