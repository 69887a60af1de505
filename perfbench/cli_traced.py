"""Run one permod CLI command with the layer tracer installed.

    python3 perfbench/cli_traced.py STEM ROOT_ID <permod arguments...>

Writes the spans to STEM.spans.jsonl and the per-layer metrics to
STEM.metrics.json, then exits with the command's own exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    stem, root, *argv = sys.argv[1:]
    import permod.cli

    tracer = Tracer(root).install()
    try:
        code = permod.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(stem + ".spans.jsonl")
        with open(stem + ".metrics.json", "w") as fh:
            json.dump(tracer.metrics(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
