"""Lossless JSON codec for the library's frozen spec dataclasses.

The :class:`~repro.api.workspace.Workspace` persists two caches whose
keys and values are the frozen dataclasses the planner already uses as
in-memory cache keys (``ClusterSpec``, ``MoELayerSpec``,
``PerfModelSet``, ``LayerProfile``, ...).  This module turns any such
object -- and tuples/dicts of them -- into plain JSON data and back:

* every registered dataclass encodes as ``{"__dc__": name, "f": {...}}``
  with its fields encoded recursively;
* enums encode as ``{"__enum__": name, "v": value}``;
* tuples encode as ``{"__t__": [...]}`` so they decode back to tuples
  (frozen dataclasses require tuple fields to stay hashable);
* numbers, strings, bools and None pass through (numpy scalars are
  coerced to their exact Python equivalents).

Floats round-trip bit-exactly because ``json`` serializes them with
``repr`` (shortest form that parses back to the same IEEE-754 value), so
a decoded key compares equal to a freshly computed one and a warm cache
genuinely hits.

:func:`digest` canonicalizes an encoded value (sorted keys, no
whitespace) and hashes it -- the content address used for on-disk plan
cache filenames.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import numbers

from ..config import MoELayerSpec, ParallelSpec
from ..core.constraints import PipelineContext
from ..core.perf_model import LinearPerfModel, PerfModelSet
from ..core.profiler import ProfileResult
from ..errors import WorkspaceError
from ..models.configs import ModelPreset
from ..models.transformer import LayerProfile
from ..moe.gates import GateKind
from ..parallel.collectives import A2AAlgorithm
from ..parallel.topology import ClusterSpec, GPUSpec, LinkSpec, NodeSpec
from ..parallel.volumes import LayerVolumes

#: every dataclass the workspace caches may contain, by codec name.
_DATACLASSES = {
    cls.__name__: cls
    for cls in (
        ClusterSpec,
        GPUSpec,
        LinkSpec,
        NodeSpec,
        ParallelSpec,
        MoELayerSpec,
        LinearPerfModel,
        PerfModelSet,
        ProfileResult,
        LayerProfile,
        LayerVolumes,
        PipelineContext,
        ModelPreset,
    )
}

#: every enum the cached objects may contain, by codec name.
_ENUMS = {cls.__name__: cls for cls in (GateKind, A2AAlgorithm)}


def encode(obj) -> object:
    """Encode a supported object as plain JSON data.

    Raises:
        WorkspaceError: for an unsupported type.
    """
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, enum.Enum):
        name = type(obj).__name__
        if name not in _ENUMS:
            raise WorkspaceError(f"cannot encode unregistered enum {name}")
        return {"__enum__": name, "v": obj.value}
    if isinstance(obj, (tuple, list)):
        return {"__t__": [encode(item) for item in obj]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _DATACLASSES:
            raise WorkspaceError(
                f"cannot encode unregistered dataclass {name}"
            )
        fields = {
            field.name: encode(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {"__dc__": name, "f": fields}
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return {"__d__": [[encode(k), encode(v)] for k, v in items]}
    raise WorkspaceError(f"cannot encode object of type {type(obj).__name__}")


def decode(data):
    """Inverse of :func:`encode`.

    Raises:
        WorkspaceError: for malformed data or an unknown type tag (e.g. a
            cache written by a newer library version).
    """
    if data is None or isinstance(data, (str, bool, int, float)):
        return data
    if not isinstance(data, dict):
        raise WorkspaceError(f"malformed codec payload: {data!r}")
    if "__t__" in data:
        return tuple(decode(item) for item in data["__t__"])
    if "__d__" in data:
        return {decode(k): decode(v) for k, v in data["__d__"]}
    if "__enum__" in data:
        cls = _ENUMS.get(data["__enum__"])
        if cls is None:
            raise WorkspaceError(f"unknown enum {data['__enum__']!r}")
        return cls(data["v"])
    if "__dc__" in data:
        cls = _DATACLASSES.get(data["__dc__"])
        if cls is None:
            raise WorkspaceError(f"unknown dataclass {data['__dc__']!r}")
        kwargs = {name: decode(value) for name, value in data["f"].items()}
        return cls(**kwargs)
    raise WorkspaceError(f"malformed codec payload: {data!r}")


def canonical_json(encoded: object) -> str:
    """Deterministic JSON text of an encoded value (content address input)."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def digest(encoded: object) -> str:
    """Content address of an encoded value (sha256 hex, truncated)."""
    return text_digest(canonical_json(encoded))


def text_digest(text: str) -> str:
    """Content address of an already canonical JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
