"""Output checks: every answer is compared with a reference of the same commit.

* A full plan document (``detail=plan``) must hash, as canonical JSON,
  to the hash of the reference document.
* A summary (``detail=summary``) must equal, field for field and bit for
  bit, the summary the reference plan gives.
* An in-process plan must survive a JSON round trip with an exactly
  equal makespan.
"""

from __future__ import annotations

import hashlib
import json


def plan_hash(plan_document: dict) -> str:
    """sha256 of a plan document's canonical JSON text."""
    text = json.dumps(plan_document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_full(response: dict, reference_hash: str) -> bool:
    """A ``detail=plan`` success envelope carrying the reference plan."""
    plan = response.get("plan") if response.get("ok") is True else None
    return isinstance(plan, dict) and plan_hash(plan) == reference_hash


def check_summary(response: dict, reference: dict) -> bool:
    """A ``detail=summary`` success envelope equal to the reference."""
    if response.get("ok") is not True:
        return False
    return response.get("result") == reference


def check_roundtrip(plan, makespan_ms: float) -> bool:
    """``plan`` replays to exactly ``makespan_ms`` after a JSON round trip."""
    replayed = type(plan).from_json(plan.to_json())
    return replayed.makespan_ms() == makespan_ms
