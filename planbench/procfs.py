"""Per-process CPU time and peak memory, read from ``/proc``."""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    # the command name (field 2) may hold spaces; fields resume after ")"
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's resident-set high-water mark (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"/proc/{pid}/status has no VmHWM line")
