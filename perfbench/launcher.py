"""Start the clustering service with the layer wrappers installed.

Used for traced runs in place of ``python -m repro serve``::

    python perfbench/launcher.py SPANS.json --port 0 --graph g.txt ...

Everything after the span file is handed to ``repro serve`` unchanged.
Spans stay in memory while the service runs and are written to
``SPANS.json`` once it has drained and stopped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_program  # noqa: E402
from perfbench.spans import Recorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    require_program()
    from repro import cli

    rec = Recorder()
    install(rec)
    rec.enabled = True
    try:
        return cli.main(["serve", *argv[1:]])
    finally:
        rec.enabled = False
        dump = rec.dump()
        service = rec.objects.get("service")
        store = service.session.store if service is not None else None
        dump["extra"] = {
            "cache_entries": len(store.entries()) if store is not None else 0
        }
        out.write_text(json.dumps(dump))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
