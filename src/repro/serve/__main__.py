"""``python -m repro.serve`` — run the compression service.

The minimal standalone entry point; the full-featured command (profiles,
backend choice, self-test mode) is ``lzss-estimator serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.serve.server import DEFAULT_SERVE_SHARD_SIZE, serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="zlib/gzip compression service (LZR1 protocol)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9123)
    parser.add_argument("--workers", type=int, default=None,
                        help="pool workers (default: CPU count)")
    parser.add_argument(
        "--shard-kb", type=int,
        default=DEFAULT_SERVE_SHARD_SIZE // 1024,
        help="shard size in KiB (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(serve(
            host=args.host, port=args.port, workers=args.workers,
            shard_size=args.shard_kb * 1024,
        ))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
