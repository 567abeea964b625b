"""The benchmark tracer's pins on the package, checked in process.

``benchmark/tracing.py`` finds what it wraps by name: module functions, and
``__add__``, ``p_part`` and ``order`` in the own namespace of each class kind.
This imports the tracer by path, installs it, drives one CLI measure and one
``+``, ``p_part`` and ``order`` per class kind through it, and checks that
uninstalling puts every original back.
"""

import importlib.util
import json
from pathlib import Path

from titsmeasure import cli
from titsmeasure.brauer import AbstractGroup
from titsmeasure.rationals import quaternion_class

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"

MEASURE = json.dumps({
    "group": {"kind": "abstract", "orders": [6]},
    "variety": {"family": "severi-brauer", "alg": {"degree": 6, "class": {"coords": [1]}}},
})


def _tracing():
    spec = importlib.util.spec_from_file_location("titsmeasure_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_pins_count_and_come_off(capsys):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        replaced = list(tracer._restore)
        assert cli.main(["measure", MEASURE]) == 0
        before = dict(tracer.calls)
        a, q = AbstractGroup((6,)).element([1]), quaternion_class(-1, 3)
        for c in (a, q):
            c + c
            c.p_part(2)
            c.order()
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["cli.main.calls"] == 1
    for name in ("brauer.add.calls", "brauer.p_part.calls", "brauer.order.calls"):
        assert metrics[name] - before.get(name, 0) == 2, name
    assert {attr for _, attr, _ in replaced} >= {"main", "__add__", "p_part", "order"}
    for owner, attr, original in replaced:
        assert vars(owner)[attr] is original, (owner, attr)
