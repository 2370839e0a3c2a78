"""Run one `cellplan` command in this fresh process and time it at the reference speed.

    python3 perfbench/child.py build -m MAP --goal R,C -o DB

Prints one JSON object: the command's exit code, its stderr, and its seconds
at the reference speed (see `common.Stopwatch`), measured on the CPU that ran
the command. The `query` workload builds its database this way at set-up, so
the build's memory stays out of the workload process's peak RSS.
"""

from __future__ import annotations

import json
import sys

from common import Stopwatch, call_cli, require_package, tick


def main(argv: list[str]) -> int:
    require_package()
    import cellplan.cli

    for _ in range(50):   # the first ticks in a fresh process are slower
        tick()
    sw = Stopwatch()
    rc, _out, err = call_cli(cellplan.cli, argv)
    print(json.dumps({"rc": rc, "seconds": sw.stop(), "stderr": err}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
