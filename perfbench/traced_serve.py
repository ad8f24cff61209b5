"""``repro-serve`` with every layer boundary wrapped in spans.

Usage: ``PYTHONPATH=src python3 perfbench/traced_serve.py SPANS_PATH [repro-serve flags...]``.
The wrappers are installed before ``repro.server.cli.main`` runs, spans stay
in memory, and SIGTERM writes them to ``SPANS_PATH`` as JSON before the
server shuts down the way an interrupt would.
"""

from __future__ import annotations

import signal
import sys

from tracing import Recorder, install_server_wrappers


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: traced_serve.py SPANS_PATH [repro-serve flags...]", file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[2:]
    # Server-side span ids start high so they never collide with the load
    # generator's client-side ids when both files are merged.
    recorder = Recorder(id_offset=1 << 40)
    install_server_wrappers(recorder)

    def stop(signum, frame):
        recorder.dump(spans_path)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    from repro.server.cli import main as serve

    return serve(argv)


if __name__ == "__main__":
    raise SystemExit(main())
