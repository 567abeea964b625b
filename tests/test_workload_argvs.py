"""Every command line the benchmark workloads run is a plain one.

``benchmark/workloads.py`` builds the operations of each workload; this
loads it by path (it imports its sibling ``checks``), generates seeds 1 to 10
of every workload and checks that each operation with an ``argv`` is read
by its command's ``read_exact``, so that no workload's CLI traffic reaches
argparse.  A workload that grows an argv shape only argparse reads fails
here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from titsmeasure import cli

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def workloads():
    name = "titsmeasure_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCHMARK))
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARK))
        sys.modules.pop(name)
        sys.modules.pop("checks", None)
    return module


def test_every_workload_argv_is_read_exactly(workloads):
    commands = cli.build_parser().commands
    read = dict.fromkeys(workloads.WORKLOADS, 0)
    for workload in workloads.WORKLOADS:
        for seed in range(1, 11):
            for op in workloads.generate(workload, seed):
                if op.argv is not None:
                    assert commands[op.argv[0]].read_exact(op.argv[1:]) is not None, (workload, seed, op.argv)
                    read[workload] += 1
    assert all(read.values()), read
