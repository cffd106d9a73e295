"""Run one tautilt CLI command under the span tracer.

    python3 perfbench/cli_child.py SPANS_OUT [tautilt arguments ...]

Exits with the CLI's own exit code after writing the spans to SPANS_OUT.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tautilt.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = tautilt.cli.run(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.end_job()
        tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
