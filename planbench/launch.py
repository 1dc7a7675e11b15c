"""Run one ``repro`` command with the layer wrappers installed.

    python3 planbench/launch.py REPORT -- serve --listen 127.0.0.1:0 ...

The traced twin of ``python3 -m repro ...``.  SIGUSR1 starts a measured
phase; SIGUSR2 ends it and writes the phase's layer counts, plus the
counters of every workspace the command opened, to the JSON file
REPORT.  Each mark is acknowledged by a ``planbench: ...`` line on
standard output.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from planbench.layers import LayerClock, workspace_counts  # noqa: E402


def main(argv: list[str]) -> int:
    report = Path(argv[0])
    command = argv[argv.index("--") + 1:]
    clock = LayerClock()
    clock.install()

    from repro.api import cli
    from repro.api.workspace import Workspace

    workspaces: list[Workspace] = []
    opened = Workspace.__init__

    def recording_init(self, *args, **kwargs) -> None:
        opened(self, *args, **kwargs)
        workspaces.append(self)

    Workspace.__init__ = recording_init
    earlier: list = []

    def on_start(signum, frame) -> None:
        earlier[:] = [workspace.stats for workspace in workspaces]
        clock.start()
        print("planbench: phase started", flush=True)

    def on_stop(signum, frame) -> None:
        phase = clock.stop()
        phase["workspaces"] = [
            workspace_counts(workspace.stats, before)
            for workspace, before in zip(workspaces, earlier)
        ]
        tmp = report.with_name(report.name + ".tmp")
        tmp.write_text(json.dumps(phase))
        os.replace(tmp, report)
        print("planbench: phase stopped", flush=True)

    signal.signal(signal.SIGUSR1, on_start)
    signal.signal(signal.SIGUSR2, on_stop)
    return cli.main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
