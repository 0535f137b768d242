"""Parallel experiment harness: fan-out must not change a single byte.

The contract of ``--jobs N`` is that workers render complete output
blocks and the parent prints them in request order, so parallel stdout
is byte-identical to sequential stdout. These tests exercise both the
generic ``fanout_map`` primitive and the CLI end-to-end on a small,
fast experiment subset.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.concurrency import finalize_concurrency
from repro.core import RunOptions, make_context, use_options
from repro.experiments import runner
from repro.experiments.common import (
    WorkerCrashError,
    _RemoteTraceback,
    fanout_map,
)
from repro.hw import v100_server
from repro.obs.procpool import ProcPoolStats


def _square(value):
    return value * value


def _raise_for_three(value):
    if value == 3:
        raise ValueError(f"worker rejected {value}")
    return value


def _exit_for_three(value):
    if value == 3:
        os._exit(3)  # die without raising: simulates a killed worker
    return value


def _tracked_run(item):
    label, delay_s = item
    ctx = make_context(v100_server, 1, seed=1, concurrency="hb")
    time.sleep(delay_s)
    finalize_concurrency(ctx, label=label)
    return label


def test_fanout_map_serial_matches_parallel():
    items = list(range(20))
    expected = [_square(item) for item in items]
    assert fanout_map(_square, items, jobs=1) == expected
    assert fanout_map(_square, items, jobs=3) == expected


def test_fanout_map_preserves_order():
    items = [5, 1, 4, 2, 3]
    assert fanout_map(_square, items, jobs=2) == [25, 1, 16, 4, 9]


def test_fanout_concurrency_reports_follow_item_order(tmp_path):
    # The first item finishes last, yet its report block comes first:
    # the parent writes the workers' blocks in input order.
    items = [("slow", 0.5), ("fast", 0.0)]
    with use_options(RunOptions(out=tmp_path, jobs=2)):
        assert fanout_map(_tracked_run, items) == ["slow", "fast"]
    text = (tmp_path / "concurrency.txt").read_text(encoding="utf-8")
    assert text.count("== concurrency: ") == 2
    assert text.index("concurrency: slow") < text.index("concurrency: fast")


def test_fanout_map_empty():
    assert fanout_map(_square, [], jobs=4) == []


def test_worker_exception_propagates_with_remote_traceback():
    # A worker's exception must surface in the parent as itself — not
    # be swallowed into a bare pool error — with the child's formatted
    # traceback attached as its __cause__.
    with pytest.raises(ValueError, match="worker rejected 3") as info:
        fanout_map(_raise_for_three, list(range(6)), jobs=2)
    cause = info.value.__cause__
    assert isinstance(cause, _RemoteTraceback)
    assert "worker traceback" in str(cause)
    assert "_raise_for_three" in str(cause)  # the real failing frame


def test_worker_exception_propagates_serially_too():
    with pytest.raises(ValueError, match="worker rejected 3"):
        fanout_map(_raise_for_three, list(range(6)), jobs=1)


def test_dead_worker_surfaces_as_worker_crash_error():
    # A child that dies without raising (os._exit, segfault, OOM kill)
    # must become a WorkerCrashError, not a hang or a silent result.
    with pytest.raises(WorkerCrashError, match="died mid-experiment"):
        fanout_map(_exit_for_three, list(range(6)), jobs=2)


def _pid_and_width(_item):
    from repro.core import current_options
    return os.getpid(), current_options().jobs


def test_run_options_jobs_sets_the_fanout_width():
    items = list(range(6))
    # Default options: one worker, so every item runs in this process.
    assert {pid for pid, _ in fanout_map(_pid_and_width, items)} == \
        {os.getpid()}
    with use_options(RunOptions(jobs=3)):
        seen = fanout_map(_pid_and_width, items)
        # An explicit width wins over the options.
        assert fanout_map(_pid_and_width, items, jobs=1) == \
            [(os.getpid(), 3)] * len(items)
    pids = {pid for pid, _ in seen}
    assert os.getpid() not in pids and 1 <= len(pids) <= 3
    # Workers run with jobs=1, so they never fan out again.
    assert {width for _, width in seen} == {1}


def _run_cli(capsys, argv):
    status = runner.main(argv)
    captured = capsys.readouterr()
    return status, captured.out


@pytest.mark.parametrize("experiments", [
    ["table1", "motivation"],
    ["fig3"],                      # internal per-config fan-out path
])
def test_parallel_output_byte_identical(capsys, experiments):
    status_seq, out_seq = _run_cli(capsys, experiments + ["--quick"])
    status_par, out_par = _run_cli(
        capsys, experiments + ["--quick", "--jobs", "2"])
    assert status_seq == status_par == 0
    assert out_par == out_seq
    assert out_seq  # a real rendering, not two empty strings


def test_stats_go_to_stderr_not_stdout(capsys):
    status, out = _run_cli(capsys, ["table1", "--quick", "--jobs", "2",
                                    "--stats"])
    assert status == 0
    assert "procpool" not in out  # stats must never pollute stdout


def test_procpool_stats_accounting():
    stats = ProcPoolStats(jobs=4)
    stats.record("a", 2.0)
    stats.record("b", 6.0)
    assert stats.busy_s == 8.0
    # 8s of work over 4 workers in 4s of wall time: 50% utilization.
    assert stats.utilization(4.0) == pytest.approx(0.5)
    rendered = stats.render(4.0)
    assert "a" in rendered and "b" in rendered
