"""One thread pool for the whole process, shared by the trial runners and the
exact triplet sweeps.

run_jobs(fn, jobs) computes [fn(*job) for job in jobs] on the calling thread
together with up to available_cpus() - 1 helper threads of one lazily built
pool of that many threads. The caller and every helper that starts in time
take the jobs in order from one shared counter; once every job has been
taken, the caller cancels the helpers that have not started and waits only
for the jobs already taken. A run nested in a job (a sweep inside a trial)
therefore never waits for a pool thread that is busy elsewhere: with every
pool thread taken it runs its jobs on its own thread, so the threads doing
work never outnumber the CPUs, and it spreads out again as pool threads come
free; that is why the pool belongs to the process and not to a call. The
results come back in job order, so they do not depend on which
thread ran a job or on how many threads there were. If jobs fail, the first
failing one in job order raises, as in a serial run, and the jobs not yet
taken are skipped.
"""
from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_lock = threading.Lock()
_pool = (0, None)  # (helper threads, executor), rebuilt when the CPU count changes


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _help(box: list) -> None:
    """Run the work a run_jobs call put in box, unless the call has emptied it."""
    for work in list(box):
        work()


def _submit_helpers(box: list, count: int, size: int):
    """count futures of _help(box) on the shared pool of size helper threads."""
    global _pool
    with _lock:
        if _pool[0] != size:
            if _pool[1] is not None:
                _pool[1].shutdown(wait=False)
            _pool = (size, ThreadPoolExecutor(size, thread_name_prefix="tripletlab"))
        return [_pool[1].submit(_help, box) for _ in range(count)]


def run_jobs(fn, jobs):
    """([fn(*job) for job in jobs], worker count), the jobs shared between the
    calling thread and the pool (see the module docstring); the worker count
    is the number of threads that may run them, one per available CPU and at
    most one per job."""
    jobs = list(jobs)
    cpus = available_cpus()
    workers = min(cpus, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs], workers
    results = [None] * len(jobs)
    failures = {}
    stop = threading.Event()
    # count's __next__ is one C call under the interpreter lock, so no two
    # threads take the same job
    taken = itertools.count()

    def work():
        while not stop.is_set():
            index = next(taken)
            if index >= len(jobs):
                return
            try:
                results[index] = fn(*jobs[index])
            except Exception as exc:  # raised on the calling thread below
                failures[index] = exc
                stop.set()

    # a cancelled helper stays in the pool's queue until a pool thread is
    # free; emptying the box then keeps it from holding the jobs and all
    # they reference (a sweep's block arrays) that long
    box = [work]
    helpers = _submit_helpers(box, workers - 1, cpus - 1)
    try:
        work()
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    finally:
        stop.set()  # an interrupted caller stops its helpers too
        box.clear()
    if failures:
        raise failures[min(failures)]
    return results, workers
