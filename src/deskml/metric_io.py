"""JSON-lines metric records: one object per line, append-only."""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass
from typing import IO, Callable


@dataclass(frozen=True)
class MetricRecord:
    step: int
    name: str
    value: float
    time: float


class MetricWriter:
    """Single-writer, append-only metric sink.

    ``clock`` defaults to wall time; pass a deterministic clock when
    byte-identical output across runs matters.
    """

    def __init__(self, sink: IO[str], clock: Callable[[], float] = _time.time):
        self._sink = sink
        self._clock = clock

    def write(self, step: int, metrics: dict[str, float]):
        records = [
            MetricRecord(step=step, name=name, value=float(value), time=float(self._clock()))
            for name, value in metrics.items()
        ]
        write_metrics(self._sink, records)


def write_metrics(sink: IO[str], records: list[MetricRecord]):
    """Append one JSON line per record and flush."""
    for r in records:
        if r.step < 0:
            raise ValueError(f"negative step {r.step}")
        sink.write(json.dumps(
            {"step": r.step, "name": r.name, "value": r.value, "time": r.time}
        ) + "\n")
    sink.flush()


def read_metrics(path: str) -> list[MetricRecord]:
    records = []
    with open(path) as f:
        for line in f:
            obj = json.loads(line)
            records.append(MetricRecord(
                step=obj["step"], name=obj["name"],
                value=obj["value"], time=obj["time"],
            ))
    return records


def count_params(params: dict) -> int:
    """Total element count over a name->Tensor map."""
    return sum(int(t.size) for t in params.values())
