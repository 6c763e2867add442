"""Traced CLI process: `python cli_shim.py SPANS_PATH OP ARGS...` behaves
like `python -m qbsim.cli ARGS...` and writes its spans to SPANS_PATH.

The import of `qbsim.cli` is the `cli.import` span and the command is
the `cli.main` span; the layer wrappers are applied in between.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, op, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    cli = tracer.span("cli.import", lambda: __import__("qbsim.cli").cli)()
    tracer.install()
    sys.argv = ["qbsim", *args]
    code = 0
    try:
        tracer.span("cli.main", cli.entrypoint)()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
