"""Run ``repro`` CLI commands with the layer entry points wrapped.

    python perfbench/serve_traced.py SPANS.json serve --spec ... [serve args]

Installs the tracer of :mod:`tracer` in this process, then calls the CLI's
``main`` with the remaining arguments; the recorded spans are written to
``SPANS.json`` when the command returns.
"""

import sys

import tracer


def main() -> int:
    recorder = tracer.SpanRecorder()
    tracer.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
