"""Run ``repro-coherence serve`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/serve.py --root DIR [--span-dir DIR]``

Serves on an ephemeral port with two sweep workers, rooted at ``--root``,
until SIGTERM.  With ``--span-dir`` the benchmark's tracer wraps the same
public entry points as in the benchmark process before the server starts,
so the server and every job process it forks record their spans there.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--span-dir")
    args = parser.parse_args()

    from repro.cli import main as cli_main

    tracer = None
    if args.span_dir:
        from tracer import Tracer

        tracer = Tracer(Path(args.span_dir))
        tracer.install()
        tracer.active = True
    try:
        return cli_main(
            ["--cache-dir", args.root, "serve", "--port", "0", "--workers", "2"]
        )
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
