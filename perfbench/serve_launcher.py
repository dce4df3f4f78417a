"""Start ``repro serve`` with the layer wrappers installed.

    python3 perfbench/serve_launcher.py --spans PATH -- <repro serve arguments>

Run from the root of a checkout.  Installs the :mod:`tracing` wrappers,
then hands over to ``repro.cli.main(["serve", ...])`` exactly as the
``repro serve`` command would.  SIGTERM stops the server through its own
graceful drain; once ``main`` returns the spans are written to PATH and
their per-layer summary to ``PATH.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, metavar="PATH")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    import repro.cli
    import repro.serve.server  # noqa: F401  (wrapped classes must be loaded)
    import repro.serve.workers  # noqa: F401
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        status = repro.cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)
        with open(args.spans + ".json", "w", encoding="utf-8") as stream:
            json.dump({"layers": tracer.summary(), "tallies": tracer.tallies}, stream)
    return status


if __name__ == "__main__":
    sys.exit(main())
