"""The shared thread pool (parallel.run_jobs) and the exact triplet sweep split
on it (loss.triplet_sweep): the same bits for any worker count and any BLAS
thread count, on the factored path and on the margin form, the serial failure
order, and runs nested in pool jobs, which stay on their job's thread."""
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import tripletlab
from tripletlab import loss as loss_module
from tripletlab import parallel
from tripletlab.core import TripletDataset
from tripletlab.loss import LossConfig, MetricParams, pair_scores, triplet_sweep
from tripletlab import risk as risk_module
from tripletlab.optim import RrmConfig, _risk_parts, rrm_train, sample_minimizer
from tripletlab.risk import draw_evaluation_sample, exact_mean_loss
from tripletlab.stability import RrmTrainer, estimate_uniform_stability, probe_max_loss_diff
from tripletlab.synth import TaskConfig, gen_task

N_PLUS, N_MINUS, D = 13, 5, 3
# 70 doubles a block: one anchor a block, 13 blocks, a count neither 2 nor 8 divides
BLOCK = 70
# a metric 400 times larger, or for the solver (which starts at w = 0) a
# margin above 700, puts the largest margin past MAX_FACTORED_MARGIN
FORMS = ["factored", "margin"]


@pytest.fixture
def fine_grained(monkeypatch):
    """Small anchor blocks and frequent thread switches."""
    monkeypatch.setattr(loss_module, "BLOCK", BLOCK)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
    yield
    sys.setswitchinterval(interval)


def _on_each_worker_count(monkeypatch, compute):
    """{cpus: repr(compute())} for 1, 2 and 8 (more threads than cores) CPUs."""
    out = {}
    for cpus in (1, 2, 8):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        out[cpus] = repr(compute())
    return out


def _data(scale):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (N_PLUS, D))
    Y = rng.uniform(-1, 1, (N_MINUS, D))
    w_a, w_b = (
        MetricParams(scale * (raw + raw.T) / 2) for raw in rng.standard_normal((2, D, D))
    )
    fresh = tuple(rng.uniform(-1, 1, (40, D)) for _ in range(3))
    return X, Y, w_a, w_b, fresh


def _largest_margin(w, X, Y, zeta):
    S_pp, S_pn = pair_scores(w.w, X, X), pair_scores(w.w, X, Y)
    off = ~np.eye(len(X), dtype=bool)
    return float((S_pp.max(axis=1, initial=-np.inf, where=off) - S_pn.min(axis=1)).max()) + zeta


def _bits(value):
    """A repr-comparable image of nested results holding arrays bit for bit."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


@pytest.mark.parametrize("scale", [1.0, 400.0], ids=FORMS)
def test_sweeps_are_bit_identical_on_any_worker_count(monkeypatch, fine_grained, scale):
    X, Y, w_a, w_b, fresh = _data(scale)
    zeta = 0.2
    assert (_largest_margin(w_a, X, Y, zeta) > 700.0) == (scale > 1.0)
    assert len(loss_module.anchor_blocks(N_PLUS, N_MINUS)) == 13
    ds = TripletDataset(X, Y)
    results = _on_each_worker_count(
        monkeypatch,
        lambda: _bits(
            (
                exact_mean_loss(w_a.w, X, Y, zeta),
                _risk_parts(w_a.w, X, Y, zeta),
                probe_max_loss_diff(w_a, w_b, ds, fresh, LossConfig(zeta)),
            )
        ),
    )
    assert results[2] == results[1]
    assert results[8] == results[1]


@pytest.mark.parametrize("zeta", [0.2, 701.0], ids=FORMS)
def test_solver_and_stability_report_are_identical_on_any_worker_count(
    monkeypatch, fine_grained, zeta
):
    X, Y, *_ = _data(1.0)
    ds = TripletDataset(X, Y)
    cfg = RrmConfig(lam=0.05, zeta=zeta)
    assert (_largest_margin(MetricParams.zeros(D), X, Y, zeta) > 700.0) == (zeta > 1.0)
    fits = _on_each_worker_count(monkeypatch, lambda: _bits(rrm_train(ds, cfg)[0].w))
    assert fits[2] == fits[1] and fits[8] == fits[1]

    def report():
        _, sampler = gen_task(TaskConfig(d=D, n_plus=N_PLUS, n_minus=N_MINUS, seed=3))
        return estimate_uniform_stability(
            RrmTrainer(cfg), sampler, N_PLUS, N_MINUS, trials=2, probe_size=40,
            cfg=LossConfig(zeta),
        )

    reports = _on_each_worker_count(monkeypatch, report)
    assert reports[2] == reports[1]
    assert reports[8] == reports[1]


def test_sample_minimizer_is_identical_on_any_worker_count(monkeypatch, fine_grained):
    # 13 chunks of 23 rows (and 3 row blocks each at BLOCK = 70, p = 6)
    monkeypatch.setattr(risk_module, "SAMPLE_CHUNK", 23)
    _, sampler = gen_task(TaskConfig(d=D, n_plus=4, n_minus=4, seed=9))
    sample = draw_evaluation_sample(sampler, 13 * 23)
    assert len(risk_module.sample_chunks(13 * 23)) == 13

    def fit():
        w, iterations = sample_minimizer(sample, 0.2)
        return _bits(w.w), iterations

    fits = _on_each_worker_count(monkeypatch, fit)
    assert fits[2] == fits[1] and fits[8] == fits[1]


# a cold and a warm solve at n+ = n- = 64, whose sweeps have 4 anchor blocks
BLAS_SOLVES = """
from tripletlab.optim import RrmConfig, rrm_train
from tripletlab.synth import TaskConfig, gen_task
train, _ = gen_task(TaskConfig(d=3, n_plus=64, n_minus=64, seed=8))
w, iterations = rrm_train(train, RrmConfig(lam=0.05))
warm, warm_iterations = rrm_train(train, RrmConfig(lam=0.5), w0=w)
print(w.w.tobytes().hex(), iterations, warm.w.tobytes().hex(), warm_iterations)
"""


def test_solves_are_bit_identical_on_any_blas_thread_count():
    # BLAS reads its thread count at load time, so each count gets its own
    # interpreter: one thread, then the library's default
    assert len(loss_module.anchor_blocks(64, 64)) == 4
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tripletlab.__file__))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", BLAS_SOLVES], env=run_env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        for run_env in (dict(env, OPENBLAS_NUM_THREADS="1"), env)
    ]
    assert len(outputs[0].split()) == 4
    assert outputs[1] == outputs[0]


def test_sweeps_nested_in_pool_jobs_match_a_serial_run(monkeypatch, fine_grained):
    # each job's sweeps run on that job's thread
    X, Y, *_ = _data(1.0)
    metrics = [MetricParams(np.eye(D) * s) for s in (0.1, 0.5, 1.0, 2.0, 3.0)]
    jobs = [(m.w, X, Y, 0.2) for m in metrics]
    runs = _on_each_worker_count(
        monkeypatch, lambda: _bits(parallel.run_jobs(_risk_parts, jobs)[0])
    )
    assert runs[2] == runs[1]
    assert runs[8] == runs[1]


def test_a_failing_sweep_raises_its_first_failing_block_and_the_pool_goes_on(
    monkeypatch, fine_grained
):
    X, Y, w_a, *_ = _data(1.0)
    scores = [(pair_scores(w_a.w, X, X), pair_scores(w_a.w, X, Y))]
    serial = exact_mean_loss(w_a.w, X, Y, 0.2)
    failed = []

    def reduce(start, terms):
        if start in (1, 11):
            if start == 1:
                time.sleep(0.2)  # on two or more workers block 11 fails first
            failed.append(start)
            raise FloatingPointError(f"block {start}")
        return float(terms[0].sum())

    for cpus in (1, 2, 8):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        failed.clear()
        with pytest.raises(FloatingPointError, match="^block 1$"):
            triplet_sweep(scores, 0.2, reduce)
        assert failed == ([1] if cpus == 1 else [11, 1])
        # later sweeps on the same pool still complete, with the same bits
        assert exact_mean_loss(w_a.w, X, Y, 0.2) == serial


def test_nested_runs_take_every_job_once_and_finish(monkeypatch, fine_grained):
    # more threads than cores, each outer job running an inner run of its own:
    # a job taken twice or lost shows in the calls, a deadlock in the timeout
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    calls = []

    def inner(outer, index):
        calls.append((outer, index))
        return outer * 100 + index

    def outer(outer):
        return parallel.run_jobs(inner, [(outer, i) for i in range(50)])[0]

    box = []
    jobs = [(o,) for o in range(40)]
    runner = threading.Thread(target=lambda: box.append(parallel.run_jobs(outer, jobs)))
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    results, workers = box[0]
    assert workers == 8
    assert results == [[o * 100 + i for i in range(50)] for o in range(40)]
    assert sorted(calls) == [(o, i) for o in range(40) for i in range(50)]


def test_a_run_keeps_nothing_alive_behind_a_helper_still_queued(monkeypatch):
    # the pool thread is busy, so the run's helper stays queued after the run
    # returns; it must not hold the run's jobs (a sweep's arrays) meanwhile
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    taken, release = threading.Event(), threading.Event()

    def occupy(job):
        if job == 0:
            taken.wait(60)  # until the pool thread has taken job 1
        else:
            taken.set()
            release.wait(60)

    busy = threading.Thread(target=parallel.run_jobs, args=(occupy, [(0,), (1,)]))
    busy.start()
    try:
        assert taken.wait(60)
        payload = np.zeros(4)
        alive = weakref.ref(payload)
        assert parallel.run_jobs(len, [(payload,), (payload,)]) == ([4, 4], 2)
        del payload
        assert alive() is None
    finally:
        release.set()
        busy.join(timeout=60)
    assert not busy.is_alive()


def test_every_job_of_a_run_started_inside_a_job_runs_on_that_jobs_thread(monkeypatch):
    # eight CPUs and two outer jobs leave pool threads idle, yet no job of a
    # nested run goes to them: each runs on the thread of the job that started it
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    threads = []

    def inner(outer):
        time.sleep(0.001)  # long enough for an idle pool thread to take a job
        threads.append((outer, threading.get_ident()))
        return outer

    def outer(outer):
        results, workers = parallel.run_jobs(inner, [(outer,)] * 20)
        return threading.get_ident(), results, workers

    runs, workers = parallel.run_jobs(outer, [(0,), (1,)])
    assert workers == 2
    assert [(results, workers) for _, results, workers in runs] == [([0] * 20, 1), ([1] * 20, 1)]
    assert sorted(threads) == sorted((o, runs[o][0]) for o in (0, 1) for _ in range(20))
