"""One thread pool for the whole process, shared by the trial runners and the
exact triplet sweeps.

run_jobs(fn, jobs) computes [fn(*job) for job in jobs] on the calling thread
together with up to available_cpus() - 1 helper threads of one lazily built
pool of that many threads. The caller and every helper that starts in time
take the jobs in order from the run's own counter; once every job has been
taken, the caller cancels the helpers that have not started and waits only
for the jobs already taken. A run nested in a job (a sweep inside a trial)
therefore never waits for a pool thread that is busy elsewhere: with every
pool thread taken it runs its jobs on its own thread, so the threads doing
work never outnumber the CPUs, and it spreads out again as pool threads come
free; that is why the pool belongs to the process and not to a call. While
a caller waits for jobs that other threads took, it takes the jobs of the
runs nested in those jobs, at any depth, so a nested run whose pool helpers
cannot start still spreads over the waiting caller's CPU. The results come
back in job order, so they do not depend on which thread ran a job or on
how many threads there were. If jobs fail, the first failing one in job
order raises, as in a serial run, and the jobs not yet taken are skipped.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_lock = threading.Lock()
_pool = (0, None)  # (helper threads, executor), rebuilt when the CPU count changes
# guards every run's counters and nested runs; notified when a job finishes
# and when a nested run starts
_changed = threading.Condition()
_current = threading.local()  # .run: the run whose job this thread is running


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


class _Run:
    """One run_jobs call with more than one worker: its jobs, results and
    failures, and the runs started by its jobs that are still going. Every
    field but the results is read and written under _changed."""

    def __init__(self, fn, jobs):
        self.fn = fn
        self.jobs = jobs
        self.results = [None] * len(jobs)
        self.failures = {}
        self.next = 0  # the next job to take
        self.running = 0  # jobs taken and not yet finished
        self.stopped = False
        self.nested = []

    def has_jobs(self) -> bool:
        return not self.stopped and self.next < len(self.jobs)

    def work(self) -> None:
        """Take and run jobs until none is left to take."""
        outer = getattr(_current, "run", None)
        _current.run = self
        try:
            while True:
                with _changed:
                    if not self.has_jobs():
                        return
                    index = self.next
                    self.next += 1
                    self.running += 1
                try:
                    self.results[index] = self.fn(*self.jobs[index])
                except Exception as exc:  # raised on the calling thread by run_jobs
                    with _changed:
                        self.failures[index] = exc
                        self.stopped = True
                finally:
                    with _changed:
                        self.running -= 1
                        _changed.notify_all()
        finally:
            _current.run = outer

    def _nested_with_jobs(self):
        """A run nested at any depth in this run's jobs with a job left to take, or None."""
        for run in self.nested:
            found = run if run.has_jobs() else run._nested_with_jobs()
            if found is not None:
                return found
        return None

    def wait(self) -> None:
        """Return once every job taken has finished, running meanwhile the
        jobs of the runs nested in them."""
        while True:
            with _changed:
                while True:
                    if not self.has_jobs() and self.running == 0:
                        return
                    nested = self._nested_with_jobs()
                    if nested is not None:
                        break
                    _changed.wait()
            nested.work()


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
    run = _Run(fn, jobs)
    parent = getattr(_current, "run", None)
    if parent is not None:
        with _changed:
            parent.nested.append(run)
            _changed.notify_all()
    # a cancelled helper stays in the pool's queue until a pool thread is
    # free; emptying the box then keeps it from holding the jobs and all
    # they reference (a sweep's block arrays) that long
    box = [run.work]
    helpers = _submit_helpers(box, workers - 1, cpus - 1)
    try:
        run.work()
        for helper in helpers:
            helper.cancel()
        run.wait()
        for helper in helpers:
            if not helper.cancelled():
                helper.result()  # out of run.work by now: no job was left to take
    finally:
        with _changed:
            run.stopped = True  # an interrupted caller stops its helpers too
            if parent is not None:
                parent.nested.remove(run)
        box.clear()
    if run.failures:
        raise run.failures[min(run.failures)]
    return run.results, workers
