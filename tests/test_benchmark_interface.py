"""The library surface the benchmark in `perfbench/` reads, exercised on its
quick plans: every workload's references (per-event moments on `Channel.h`
and `Channel.g_bar`, the ABER bracket, `simulate_capacity(...,
with_stderr=True)`), its CLI operations with their output checks, and the
worker count the benchmark records. Removing or renaming a name the
benchmark uses fails here, not only under `python3 -m pytest perfbench`.

`perfbench/run.py` is not imported: it sets thread environment variables
on import.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from irs_sskrpm import simulate
from irs_sskrpm.cli import main

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_workload_prepares_and_its_operations_pass_their_checks(workloads, tmp_path):
    assert workloads.WORKLOADS
    for name, prepare in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        plan = prepare(7, work, True)
        assert plan.ops and plan.setup_config.is_file()
        for op in plan.ops:
            assert main(list(op.argv)) == 0, (name, op.argv)
            assert op.check(workloads.read_csv(op.out)) == [], (name, op.argv)


def test_worker_count_the_benchmark_records():
    assert simulate.resolve_workers(None) >= 1
