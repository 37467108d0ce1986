"""Always-on clustering service: HTTP front-end over the session API.

The package splits into five layers:

* :mod:`repro.service.http` — a thin HTTP/1.1 request/response layer
  over asyncio streams (no framework dependency);
* :mod:`repro.service.registry` — the LRU graph registry with a memory
  budget;
* :mod:`repro.service.wal` — the per-service write-ahead log
  (checksummed JSONL + snapshot compaction) that makes acknowledged
  mutations durable;
* :mod:`repro.service.recovery` — crash recovery: replay snapshot + WAL
  tail into a bit-identical registry before serving;
* :mod:`repro.service.server` — :class:`ClusteringService`, which wires
  a :class:`repro.api.Session` to the HTTP layer with request
  coalescing, admission control, deadlines, graceful drain and
  observability.

Start one from the command line with ``repro-scan serve`` or embed it::

    import asyncio
    from repro.service import ClusteringService

    async def main():
        service = ClusteringService(wal_dir="service-state")
        await service.start(port=8321)
        ...
        await service.drain()
        await service.stop()

    asyncio.run(main())
"""

from .http import HTTPError, Request, read_request, response_bytes
from .recovery import RecoveryError, RecoveryReport, recover
from .registry import GraphRegistry
from .server import ClusteringService
from .wal import ServiceWAL

__all__ = [
    "ClusteringService",
    "GraphRegistry",
    "HTTPError",
    "RecoveryError",
    "RecoveryReport",
    "Request",
    "ServiceWAL",
    "read_request",
    "recover",
    "response_bytes",
]
