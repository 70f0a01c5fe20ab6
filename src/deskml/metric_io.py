"""JSON-lines metric records: one object per line, append-only."""

from __future__ import annotations

import json
from typing import IO


class MetricWriter:
    """Single-writer, append-only metric sink: one JSON line per record,
    flushed after each ``write``.

    A record's ``time`` is its ordinal in the file (1.0, 2.0, ...), so
    identical runs write identical bytes; ``start`` is the number of
    records the file already holds.
    """

    def __init__(self, sink: IO[str], start: int = 0):
        self._sink = sink
        self._count = start

    def write(self, step: int, metrics: dict[str, float]):
        if step < 0:
            raise ValueError(f"negative step {step}")
        for name, value in metrics.items():
            self._count += 1
            self._sink.write(json.dumps({"step": step, "name": name,
                                         "value": float(value),
                                         "time": float(self._count)}) + "\n")
        self._sink.flush()


def count_params(params: dict) -> int:
    """Total element count over a name->Tensor map."""
    return sum(int(t.size) for t in params.values())
