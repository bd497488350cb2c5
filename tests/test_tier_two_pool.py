"""Tier two's detections on worker processes: the same bundle, a bounded
worker count, and failures that reach the caller."""

import gc
import multiprocessing
import os
import sys
import threading
import warnings

import pytest

from twotier import cli, community, report
from twotier.report import PipelineConfig, pool_workers, run_pipeline

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the worker pool needs the fork start method"
)


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def _force_pool(monkeypatch):
    """Run tier two on a pool of 2 whatever the input size and CPU count,
    and record the worker counts the pipeline chose."""
    monkeypatch.setattr(report, "_POOL_MIN_EDGES", 0)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    chosen = []

    def recorded(*args):
        chosen.append(pool_workers(*args))
        return chosen[-1]

    monkeypatch.setattr(report, "pool_workers", recorded)
    return chosen


@needs_fork
def test_pooled_run_writes_the_in_process_bundle(tmp_path, monkeypatch):
    here, pooled = tmp_path / "here", tmp_path / "pooled"
    run_pipeline(PipelineConfig(preset="small", out_dir=str(here)))
    chosen = _force_pool(monkeypatch)
    # a pool left unclosed warns from its finalizer, which no caller sees
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_pipeline(PipelineConfig(preset="small", out_dir=str(pooled)))
        gc.collect()
    assert chosen == [2]
    assert [u.exc_value for u in unraisable] == []
    assert multiprocessing.active_children() == []
    assert _files(pooled) == _files(here)


def test_pool_workers_never_exceed_cpus_or_tasks():
    cut = report._POOL_MIN_EDGES
    for cpus in range(1, 9):
        for tasks in (0, 1, 2, 5, 414):
            for edges in (0, cut - 1, cut, 10**6):
                workers = pool_workers(cpus, True, tasks, edges)
                assert 0 <= workers <= min(cpus, tasks)
                in_process = cpus == 1 or edges < cut or tasks == 0
                assert (workers == 0) == in_process
    assert pool_workers(2, True, 414, 72_859) == 2
    assert pool_workers(16, True, 3, 72_859) == 3
    # in-process: one CPU, no fork, or too few edges to pay for a pool
    assert pool_workers(1, True, 414, 72_859) == 0
    assert pool_workers(8, False, 414, 72_859) == 0
    assert pool_workers(8, True, 414, cut - 1) == 0


def test_small_preset_stays_in_process(tmp_path):
    """Its traced run then charges restrict and detect as before."""
    result = run_pipeline(PipelineConfig(preset="small", x_values=(10,),
                                         curve_x=(10,), out_dir=str(tmp_path)))
    assert sum(f.edge_count for f in result.network.frames) < report._POOL_MIN_EDGES


@needs_fork
def test_worker_failure_is_raised_and_pool_reaped(tmp_path, monkeypatch):
    chosen = _force_pool(monkeypatch)

    def broken(*args):
        raise ZeroDivisionError(os.getpid())

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(community, "_move_nodes", broken)
    with pytest.raises(ZeroDivisionError) as raised:
        run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == [2]
    assert raised.value.args[0] != os.getpid()
    assert multiprocessing.active_children() == []


def _kill_workers(monkeypatch):
    """Make every worker exit hard in its first detection, as if the kernel
    had killed it; patched before the pool forks."""
    parent = os.getpid()

    def killed(*args):
        if os.getpid() == parent:
            raise AssertionError("ran in the parent")
        os._exit(1)

    monkeypatch.setattr(community, "_move_nodes", killed)


@needs_fork
def test_dead_worker_fails_the_run(tmp_path, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    chosen = _force_pool(monkeypatch)
    _kill_workers(monkeypatch)
    with pytest.raises(BrokenProcessPool):
        run_pipeline(PipelineConfig(preset="small", out_dir=str(tmp_path)))
    assert chosen == [2]
    assert multiprocessing.active_children() == []


@needs_fork
def test_dead_worker_is_a_command_error(tmp_path, monkeypatch, capsys):
    chosen = _force_pool(monkeypatch)
    _kill_workers(monkeypatch)
    code = cli.main(["analyze", "--preset", "small", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a tier-two worker process died")
    assert "Traceback" not in err
    assert chosen == [2]
    assert multiprocessing.active_children() == []


@needs_fork
def test_one_work_item_per_x_filter_and_side(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    config = dict(preset="small", x_values=(5, 10))
    here, pooled = tmp_path / "here", tmp_path / "pooled"
    run_pipeline(PipelineConfig(out_dir=str(here), **config))
    chosen = _force_pool(monkeypatch)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def counted(self, *args, **kwargs):
        submitted.append(args)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)
    result = run_pipeline(PipelineConfig(out_dir=str(pooled), **config))
    assert chosen == [2]
    assert result.network.frame_count > 1
    assert len(submitted) == 2 * 3 * 2  # X values, filters, sides
    assert _files(pooled) == _files(here)


@needs_fork
def test_workers_start_before_the_rest_of_tier_one(tmp_path, monkeypatch):
    _force_pool(monkeypatch)
    children = []
    closeness_all = report.closeness_all

    def watched(*args):
        children.append(len(multiprocessing.active_children()))
        return closeness_all(*args)

    monkeypatch.setattr(report, "closeness_all", watched)
    run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                out_dir=str(tmp_path)))
    assert len(children) == 1 and children[0] > 0
    assert multiprocessing.active_children() == []


def test_threaded_caller_stays_in_process(tmp_path, monkeypatch):
    chosen = _force_pool(monkeypatch)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        run_pipeline(PipelineConfig(preset="small", x_values=(10,), curve_x=(10,),
                                    type_filter="A", out_dir=str(tmp_path)))
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()
    assert chosen == [0]
