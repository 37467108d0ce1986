"""Edit scripts: batched edge insert/delete sequences with a file format.

An :class:`EditScript` is an ordered list of :class:`EditBatch`\\ es, each
an ordered list of :class:`EditOp`\\ s — the unit the
:class:`~repro.streaming.engine.StreamingEngine` applies in one repair
pass.  The text format is line-oriented so scripts diff and version
well::

    #! {"seed": 7, "kind": "mixed", "num_vertices": 200}
    batch
    + 3 17
    - 41 9
    batch
    + 0 5

``+ u v`` inserts, ``- u v`` removes, ``batch`` starts a new batch, and
``#`` lines are comments (``#!`` carries optional JSON metadata).

:func:`random_edit_script` is the seeded generator behind the
differential corpus: it tracks a simulated copy of the graph so deletes
target existing edges and inserts target non-edges, with a small
deliberate no-op rate to exercise the skipped-edit paths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

from ..graph.csr import CSRGraph
from ..graph.dynamic import DynamicGraph, check_edge

__all__ = [
    "EditOp",
    "EditBatch",
    "EditScript",
    "random_edit_script",
]


class EditOp(NamedTuple):
    """One undirected edge edit: insert (``insert=True``) or remove."""

    insert: bool
    u: int
    v: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def inverse(self) -> "EditOp":
        return EditOp(not self.insert, self.u, self.v)

    def as_line(self) -> str:
        return f"{'+' if self.insert else '-'} {self.u} {self.v}"


_OP_KIND = {
    "+": True,
    "-": False,
    "insert": True,
    "remove": False,
    "delete": False,
    "i": True,
    "d": False,
    True: True,
    False: False,
}


def _coerce_op(op) -> EditOp:
    if isinstance(op, EditOp):
        return op
    kind, u, v = op
    if isinstance(kind, str):
        kind = kind.strip().lower()
    try:
        insert = _OP_KIND[kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown edit kind {kind!r}; expected one of "
            "+/-/insert/remove/delete or a bool"
        ) from None
    return EditOp(insert, int(u), int(v))


@dataclass
class EditBatch:
    """An ordered group of edits applied in one index-repair pass."""

    ops: list[EditOp] = field(default_factory=list)

    @classmethod
    def coerce(cls, edits) -> "EditBatch":
        """Accept an :class:`EditBatch`, an iterable of op triples, or a
        ``{"insert": [[u, v], ...], "remove": [[u, v], ...]}`` mapping
        (the service's JSON body shape; inserts apply first)."""
        if isinstance(edits, EditBatch):
            return edits
        if isinstance(edits, dict):
            ops = [
                EditOp(True, int(u), int(v))
                for u, v in edits.get("insert", ())
            ]
            ops += [
                EditOp(False, int(u), int(v))
                for u, v in edits.get("remove", ())
            ]
            extra = set(edits) - {"insert", "remove"}
            if extra:
                raise ValueError(
                    f"unknown edit-batch key(s): {sorted(extra)}"
                )
            return cls(ops)
        return cls([_coerce_op(op) for op in edits])

    def check(self, num_vertices: int) -> None:
        """Raise on the first edit a graph on ``num_vertices`` vertices
        cannot take (``IndexError`` out of range, ``ValueError`` for a
        self loop), before any edit is applied."""
        for op in self.ops:
            check_edge(op.u, op.v, num_vertices)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[EditOp]:
        return iter(self.ops)

    def as_triples(self) -> list[list]:
        """The ordered JSON-able ``[["+"/"-", u, v], ...]`` form.

        Round-trips exactly through :meth:`coerce` (order preserved),
        which is what lets the service WAL log an accepted batch and
        recovery re-apply it to a bit-identical result.
        """
        return [
            ["+" if op.insert else "-", op.u, op.v] for op in self.ops
        ]

    def inverse(self) -> "EditBatch":
        """The batch undoing this one (reversed order, flipped kinds)."""
        return EditBatch([op.inverse() for op in reversed(self.ops)])


@dataclass
class EditScript:
    """A whole edit workload: batches plus optional JSON-able metadata."""

    batches: list[EditBatch] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[EditBatch]:
        return iter(self.batches)

    @property
    def num_ops(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def inverse(self) -> "EditScript":
        """The script undoing this one batch-by-batch, in reverse."""
        return EditScript(
            [batch.inverse() for batch in reversed(self.batches)],
            meta={**self.meta, "inverse": True},
        )

    # -- text format -----------------------------------------------------

    def dumps(self) -> str:
        lines: list[str] = []
        if self.meta:
            lines.append("#! " + json.dumps(self.meta, sort_keys=True))
        for batch in self.batches:
            lines.append("batch")
            lines.extend(op.as_line() for op in batch)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "EditScript":
        meta: dict = {}
        batches: list[EditBatch] = []
        current: list[EditOp] | None = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#!"):
                meta.update(json.loads(line[2:]))
                continue
            if line.startswith("#"):
                continue
            if line == "batch":
                current = []
                batches.append(EditBatch(current))
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"line {lineno}: expected '+/- u v', got {raw!r}"
                )
            if current is None:
                # Ops before any explicit ``batch`` line form a first
                # implicit batch.
                current = []
                batches.append(EditBatch(current))
            current.append(_coerce_op(parts))
        return cls(batches, meta=meta)

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.dumps(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "EditScript":
        return cls.loads(Path(path).read_text(encoding="utf-8"))


def _sample_absent_pair(
    rng: random.Random, sim: DynamicGraph
) -> tuple[int, int] | None:
    n = sim.num_vertices
    if n < 2:
        return None
    for _ in range(64):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not sim.has_edge(u, v):
            return (u, v)
    return None


def random_edit_script(
    graph: CSRGraph | DynamicGraph,
    *,
    kind: str = "mixed",
    batches: int = 8,
    batch_size: int = 16,
    seed: int = 0,
    noop_rate: float = 0.05,
) -> EditScript:
    """A seeded random edit script valid against ``graph``'s start state.

    ``kind`` is ``"insert"`` (all insertions), ``"delete"`` (all
    removals of existing edges) or ``"mixed"``.  The generator tracks a
    simulated copy of the graph so removals target edges that exist and
    insertions target non-edges at apply time; ``noop_rate`` of the ops
    are deliberate duplicates/absent-removals so the skipped-edit path
    stays exercised.  Deterministic for a given ``(graph, kind, batches,
    batch_size, seed)``.
    """
    if kind not in ("insert", "delete", "mixed"):
        raise ValueError(f"unknown script kind {kind!r}")
    rng = random.Random(seed)
    sim = (
        DynamicGraph.from_csr(graph)
        if isinstance(graph, CSRGraph)
        else DynamicGraph.from_csr(graph.snapshot())
    )
    edges: list[tuple[int, int]] = [
        (u, v)
        for u in range(sim.num_vertices)
        for v in sim.neighbors(u)
        if u < v
    ]
    edge_pos = {pair: i for i, pair in enumerate(edges)}

    def pop_edge(pair: tuple[int, int]) -> None:
        i = edge_pos.pop(pair)
        last = edges.pop()
        if i < len(edges):
            edges[i] = last
            edge_pos[last] = i

    def push_edge(pair: tuple[int, int]) -> None:
        edge_pos[pair] = len(edges)
        edges.append(pair)

    script = EditScript(
        meta={
            "kind": kind,
            "seed": seed,
            "batches": batches,
            "batch_size": batch_size,
            "num_vertices": sim.num_vertices,
            "num_edges_start": sim.num_edges,
        }
    )
    for _ in range(batches):
        ops: list[EditOp] = []
        while len(ops) < batch_size:
            if kind == "insert":
                want_insert = True
            elif kind == "delete":
                want_insert = False
            else:
                want_insert = rng.random() < 0.5
            if rng.random() < noop_rate:
                # A deliberate no-op: duplicate insert or absent remove.
                if want_insert and edges:
                    u, v = edges[rng.randrange(len(edges))]
                    ops.append(EditOp(True, u, v))
                    continue
                if not want_insert:
                    pair = _sample_absent_pair(rng, sim)
                    if pair is not None:
                        ops.append(EditOp(False, *pair))
                        continue
            if want_insert:
                pair = _sample_absent_pair(rng, sim)
                if pair is None:
                    if not edges:
                        break
                    want_insert = False
            if not want_insert:
                if not edges:
                    if kind == "delete":
                        break
                    pair = _sample_absent_pair(rng, sim)
                    if pair is None:
                        break
                    want_insert = True
                else:
                    pair = edges[rng.randrange(len(edges))]
            u, v = pair
            if want_insert:
                sim.insert_edge(u, v)
                push_edge((min(u, v), max(u, v)))
                ops.append(EditOp(True, u, v))
            else:
                sim.remove_edge(u, v)
                pop_edge((min(u, v), max(u, v)))
                ops.append(EditOp(False, u, v))
        script.batches.append(EditBatch(ops))
    return script
