"""One thread pool for the whole process, shared by the trial runners and the
exact triplet sweeps.

run_jobs(fn, jobs) computes [fn(*job) for job in jobs] on the calling thread
together with up to available_cpus() - 1 helper threads of one lazily built
pool of that many threads. The caller and every helper that starts in time
take the jobs in order from the run's own counter; once every job has been
taken, the caller cancels the helpers that have not started and waits only
for the jobs already taken. A run started inside a job of a run that uses
the pool (a sweep inside a trial) runs its jobs in order on that job's
thread and never touches the pool, so a pool thread never waits for the
pool and the threads doing work never outnumber the CPUs. The results
come back in job order, so they do not depend on which thread ran a job or
on how many threads there were. If jobs fail, the first failing one in job
order raises, as in a serial run, and the jobs not yet taken are skipped.

A job may wait for other jobs of its run only if they come before it in job
order: when a thread takes a job, every earlier job has been taken by a
thread that runs it (on one thread, has finished), so the wait ends. A job
that waits for a later one can wait forever.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_lock = threading.Lock()
_pool = (0, None)  # (helper threads, executor), rebuilt when the CPU count changes
_in_job = threading.local()  # .active: this thread runs a job of a run that uses the pool


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
    is the number of threads that may run them: one per available CPU and at
    most one per job, or one in a run started inside a job of such a run."""
    jobs = list(jobs)
    cpus = available_cpus()
    workers = min(1 if getattr(_in_job, "active", False) else cpus, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs], workers
    results, failures = [None] * len(jobs), {}
    taking = threading.Lock()
    taken = 0  # jobs taken so far; len(jobs) once the run stops

    def work():
        nonlocal taken
        _in_job.active = True
        try:
            while True:
                with taking:
                    if taken == len(jobs):
                        return
                    index, taken = taken, taken + 1
                try:
                    results[index] = fn(*jobs[index])
                except Exception as exc:  # raised on the calling thread by run_jobs
                    with taking:
                        failures[index] = exc
                        taken = len(jobs)
        finally:
            _in_job.active = False

    # a cancelled helper stays in the pool's queue until a pool thread is
    # free; emptying the box then keeps it from holding the jobs and all
    # they reference (a sweep's block arrays) that long
    box = [work]
    helpers = _submit_helpers(box, workers - 1, cpus - 1)
    try:
        work()
        for helper in helpers:
            if not helper.cancel():
                helper.result()  # out of work() once its job finishes: none is left to take
    finally:
        with taking:
            taken = len(jobs)  # an interrupted caller stops its helpers too
        box.clear()
    if failures:
        raise failures[min(failures)]
    return results, workers
