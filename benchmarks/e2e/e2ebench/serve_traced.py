"""``repro.cli serve`` with the backend wrapped, for the traced run only.

The untraced service workload runs the real ``python -m repro.cli
serve``.  The traced repetition needs the server's storage calls, which
are only visible inside the server process, so this launcher builds the
same ``DedupServer`` through its public constructor over a
:class:`~e2ebench.backend.CountingBackend` and writes the recorded spans
to ``--span-file`` when interrupted.  Started by
:class:`e2ebench.drivers.Server` with ``PYTHONPATH`` set to ``src/``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core import DedupConfig  # noqa: E402
from repro.service import DedupServer  # noqa: E402
from repro.storage import DirectoryBackend  # noqa: E402

from e2ebench.backend import CountingBackend  # noqa: E402
from e2ebench.settings import ALGORITHM, FSYNC  # noqa: E402
from e2ebench.spans import Tracer  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--span-file", type=Path, required=True)
    p.add_argument("--store-dir", required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--cache", type=int, required=True)
    p.add_argument("--ecs", type=int, required=True)
    p.add_argument("--sd", type=int, required=True)
    p.add_argument("--bloom-kb", type=int, required=True)
    args = p.parse_args()

    tracer = Tracer()
    backend = CountingBackend(DirectoryBackend(args.store_dir, fsync=FSYNC), tracer)
    server = DedupServer(
        backend,
        port=args.port,
        algorithm=ALGORITHM,
        config=DedupConfig(
            ecs=args.ecs,
            sd=args.sd,
            bloom_bytes=args.bloom_kb * 1024,
            cache_manifests=args.cache,
        ),
        workers=args.workers,
    )

    async def run() -> None:
        await server.start()
        print(f"serving on {server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        tracer.write(args.span_file)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
