import io
import json

import pytest

from deskml import metric_io as M
from deskml import tensor as T


def test_single_record_single_line():
    sink = io.StringIO()
    M.MetricWriter(sink, start=11).write(3, {"acc": 0.5})
    lines = sink.getvalue().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj == {"step": 3, "name": "acc", "value": 0.5, "time": 12.0}


def test_order_preserved():
    sink = io.StringIO()
    w = M.MetricWriter(sink)
    for i in range(100):
        w.write(i, {"loss": float(i)})
    lines = [json.loads(l) for l in sink.getvalue().splitlines()]
    assert len(lines) == 100
    assert [r["value"] for r in lines] == [float(i) for i in range(100)]
    assert [r["time"] for r in lines] == [float(i + 1) for i in range(100)]


def test_negative_step_rejected():
    sink = io.StringIO()
    with pytest.raises(ValueError, match="negative step -1"):
        M.MetricWriter(sink).write(-1, {"loss": 1.0})
    assert sink.getvalue() == ""


def test_writer_appends():
    sink = io.StringIO()
    w = M.MetricWriter(sink)
    w.write(0, {"loss": 2.0})
    w.write(1, {"loss": 1.0, "acc": 0.5})
    assert len(sink.getvalue().splitlines()) == 3


def test_each_write_flushes():
    class Sink(io.StringIO):
        flushes = 0

        def flush(self):
            self.flushes += 1

    sink = Sink()
    w = M.MetricWriter(sink)
    w.write(0, {"loss": 2.0, "acc": 0.5})
    w.write(1, {})
    assert sink.flushes == 2


def test_count_params():
    assert M.count_params({}) == 0
    params = {"W": T.zeros((3, 4)), "b": T.zeros((4,))}
    assert M.count_params(params) == 16
