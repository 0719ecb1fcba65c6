"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest benches -q
"""

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from xnadhm import linalg, quiver, sampling, xn
from xnadhm.linalg import RATIONAL, Matrix


def traced_round(workload, k):
    tracer = tracing.Tracer()
    with tracer:
        rnd = workload.round(k, run.HostClock(tracer.sample))
    return rnd, tracer


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED])
def test_tracing_does_not_change_outcomes(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    traced, tracer = traced_round(workload, 1)
    plain = workload.round(1)
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted > 0
    # verdicts, campaign tallies and max residuals, bit for bit
    assert plain.outcomes == traced.outcomes
    assert tracer.metrics()["sample_count"][0] == traced.attempted


def test_tracer_restores_every_binding():
    originals = (linalg.Matrix.__init__, linalg.Matrix.__matmul__,
                 xn.inverse, quiver.rank, quiver.subspace_bases)
    with tracing.Tracer():
        assert xn.inverse is not originals[2]
        assert quiver.rank is not originals[3]
    assert (linalg.Matrix.__init__, linalg.Matrix.__matmul__, xn.inverse,
            quiver.rank, quiver.subspace_bases) == originals


def test_transitions_leave_pencil_idle():
    _, tracer = traced_round(workloads.Transitions(run.DEFAULT_SEED), 1)
    m = tracer.metrics()
    assert m["pencil.analyze_pencil.calls"][0] == 0
    assert m["xn.transition_phi.calls"][0] > 0
    assert m["monad.gauge_normalize.calls"][0] == workloads.MONAD_SAMPLES
    assert 0 < m["transitions.pairs_tested_ratio"][0] <= 1
    assert m["sample_count"][0] == (workloads.COCYCLE_SAMPLES
                                    + workloads.MONAD_SAMPLES)


def test_enumeration_stays_exact():
    rnd, tracer = traced_round(workloads.Oracle(run.DEFAULT_SEED), 1)
    m = tracer.metrics()
    assert m["quiver.brute_force_semistable.calls"][0] == rnd.attempted
    assert m["quiver.enum_float_calls"][0] == 0
    assert m["linalg.exact_elim.calls"][0] > 0
    assert m["quiver.subspaces.count"][0] > 0
    assert 0 < m["quiver.closed_pair_ratio"][0] < 1


@pytest.mark.xfail(strict=True, reason="the float pencil path misses a "
                   "double pencil root, so (P3) passes with e = 0")
def test_double_pencil_root_e_zero_violator():
    d = xn.from_xn_points(2, 0, [(-2, 3), (-2, 4)], RATIONAL)
    d = xn.XnADHM(d.n, d.c, d.A1, d.A2, d.C, Matrix.zeros(1, 2, RATIONAL))
    r = quiver.embed_xn_as_rep(d)
    assert not quiver.brute_force_semistable(r.cast(linalg.GF(5)))
    assert not quiver.check_semistable_spectral(r).to_bool()


class _TinyBasisRng:
    """A generator whose first two draws (the real and imaginary parts of a
    1x1 basis) are tiny, and whose later draws are ordinary."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._draws = 0

    def standard_normal(self, size=None):
        self._draws += 1
        out = self._rng.standard_normal(size)
        return out * 1e-4 if self._draws <= 2 else out


def _timeout(signum, frame):
    raise TimeoutError


@pytest.mark.xfail(strict=True, raises=TimeoutError, reason="a 1x1 basis "
                   "always passes the condition-number test, so the frame "
                   "loop may never reach |e V| > 0.05")
def test_costable_triple_with_tiny_1x1_basis_terminates():
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(2)
    try:
        sampling.random_costable_triple(_TinyBasisRng(), 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_refuses_to_run_without_library(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / here.name / "run.py"), "--workload",
         "oracle", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
