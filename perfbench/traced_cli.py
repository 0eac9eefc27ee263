"""Run the ike-lab command line in this process with the tracer installed.

    python3 perfbench/traced_cli.py TRACE_JSON CLI_ARGS...

Writes the spans, counts and per-name stats to TRACE_JSON and exits with
the command's own exit code. Started by run.py with src/ on PYTHONPATH and
BLAS pinned; use --jobs 1 so that every traced call runs here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import install
from tracer import Tracer


def main(argv: list[str]) -> int:
    from ike_lab import cli

    trace_file, cli_args = Path(argv[0]), argv[1:]
    with install(Tracer()) as tracer:
        code = cli.main(cli_args)
    trace_file.write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
