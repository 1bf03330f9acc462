"""Run one wallman-lab CLI command with every package layer traced.

Usage: python bench/cli_entry.py TRACE_FILE COMMAND ARGS...

Behaves like `python -m wallman_lab COMMAND ARGS...` (same stdout, stderr
and exit code) and writes TRACE_FILE with the layer spans and four stage
times in ms: import of the CLI module, input loading, the command's own
work, and report output.
"""

import json
import sys
import time
from pathlib import Path

import tracing

LOADERS = ("cli.load_lattice", "cli.load_space", "cli.load_theory")


def main():
    trace_file, args = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    from wallman_lab import cli

    import_ms = (time.perf_counter() - start) * 1000
    tracer = tracing.install()
    sys.argv = [sys.argv[0], *args]  # the report echoes sys.argv[1:]
    code = cli.main(args)
    sys.stdout.flush()

    def total_ms(quals):
        return sum(tracer.calls.get(q, [0, 0.0])[1] for q in quals) * 1000

    commands = [q for q in tracer.calls if q.startswith("cli.cmd_")]
    load_ms, emit_ms = total_ms(LOADERS), total_ms(("cli._emit",))
    stages = {
        "import_ms": import_ms,
        "load_ms": load_ms,
        "command_ms": total_ms(commands) - load_ms - emit_ms,
        "emit_ms": emit_ms,
    }
    trace_file.write_text(json.dumps({"stages_ms": stages, "trace": tracer.snapshot()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
