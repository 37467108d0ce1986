"""Pinned work records: the counts Figs. 1, 4, 5 and 6 are computed from.

Every run below is reduced to its stage names, every per-task
:class:`~repro.metrics.records.TaskCost`, the CompSim invocation total,
the similarity-store hits and misses, and the clustering itself, and
compared against ``tests/data/work_records.json``.  A refactor of the
phase bodies, the phase runner or the similarity engine must leave all
of them unchanged, in both execution modes.

Regenerate the file (only when a change to the counted work is the
point) with::

    PYTHONPATH=src python tests/test_work_records.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cache import SimilarityStore
from repro.core import anyscan, ppscan, pscan, scanxp
from repro.graph.generators import (
    chung_lu,
    erdos_renyi,
    planted_partition,
    powerlaw_weights,
)
from repro.metrics.records import TaskCost
from repro.types import ScanParams

DATA = Path(__file__).parent / "data" / "work_records.json"

#: Field order of the per-task cost rows in the JSON file.
COST_FIELDS = tuple(TaskCost().as_dict())

GRAPHS = {
    "er": lambda: erdos_renyi(60, 240, seed=2),
    "chung-lu": lambda: chung_lu(powerlaw_weights(80, 2.5), 300, seed=5),
    "planted": lambda: planted_partition(4, 18, 0.5, 0.04, seed=9)[0],
}

POINTS = [ScanParams(0.3, 2), ScanParams(0.5, 4)]

_PPSCAN_VARIANTS = {
    "default": {},
    "no-prune": {"prune_phase": False},
    "one-phase": {"two_phase_clustering": False},
    "merge": {"kernel": "merge"},
    "lanes8": {"lanes": 8},
    "cold-store": {"store": True},
}

_SCANXP_VARIANTS = {"no-store": {}, "cold-store": {"store": True}}


def _runs():
    """``{run id: callable(graph, params, store) -> result}``."""
    runs = {}
    for mode in ("scalar", "batched"):
        for name, kwargs in _PPSCAN_VARIANTS.items():
            runs[f"ppscan/{mode}/{name}"] = (ppscan, mode, kwargs)
        for name, kwargs in _SCANXP_VARIANTS.items():
            runs[f"scanxp/{mode}/{name}"] = (scanxp, mode, kwargs)
    runs["anyscan"] = (anyscan, None, {})
    runs["pscan/ed-order"] = (pscan, None, {"use_ed_order": True})
    runs["pscan/static-order"] = (pscan, None, {"use_ed_order": False})
    return runs


RUNS = _runs()


def _record(fn, mode, kwargs, graph, params) -> dict:
    kwargs = dict(kwargs)
    store = None
    if kwargs.pop("store", False):
        store = SimilarityStore()
        kwargs["store"] = store
    if mode is not None:
        kwargs["exec_mode"] = mode
    result = fn(graph, params, **kwargs)
    stats = store.stats() if store is not None else None
    return {
        "stages": [
            {
                "name": stage.name,
                "tasks": [
                    [getattr(task, f) for f in COST_FIELDS]
                    for task in stage.tasks
                ],
            }
            for stage in result.record.stages
        ],
        "compsims": result.record.compsim_invocations,
        "store": None if stats is None else [stats.hits, stats.misses],
        "roles": result.roles.tolist(),
        "core_labels": result.core_labels.tolist(),
        "noncore_pairs": result.noncore_pairs.tolist(),
    }


def _key(graph_name: str, params: ScanParams, run_id: str) -> str:
    return f"{graph_name}|{params.eps}|{params.mu}|{run_id}"


def collect() -> dict:
    out = {"cost_fields": list(COST_FIELDS), "runs": {}}
    for graph_name, make in GRAPHS.items():
        graph = make()
        for params in POINTS:
            for run_id, (fn, mode, kwargs) in RUNS.items():
                out["runs"][_key(graph_name, params, run_id)] = _record(
                    fn, mode, kwargs, graph, params
                )
    return out


def dump(records: dict) -> str:
    """One run per line, so a drift diff names the run that moved."""
    lines = ['{"cost_fields": ' + json.dumps(records["cost_fields"]) + ","]
    lines.append(' "runs": {')
    items = sorted(records["runs"].items())
    for i, (key, value) in enumerate(items):
        sep = "," if i + 1 < len(items) else ""
        lines.append(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}{sep}"
        )
    lines.append(" }}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_work_records_pinned(pinned, graph_name, run_id):
    assert pinned["cost_fields"] == list(COST_FIELDS)
    graph = GRAPHS[graph_name]()
    fn, mode, kwargs = RUNS[run_id]
    for params in POINTS:
        got = _record(fn, mode, kwargs, graph, params)
        want = pinned["runs"][_key(graph_name, params, run_id)]
        assert got["stages"] == want["stages"], (params, "stages")
        assert got["compsims"] == want["compsims"], params
        assert got["store"] == want["store"], params
        for field in ("roles", "core_labels", "noncore_pairs"):
            assert got[field] == want[field], (params, field)


def test_pinned_file_covers_every_run(pinned):
    expected = {
        _key(g, p, r) for g in GRAPHS for p in POINTS for r in RUNS
    }
    assert set(pinned["runs"]) == expected


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_work_records.py --write")
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(dump(collect()))
    print(f"wrote {DATA}")
