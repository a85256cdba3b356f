"""The benchmark's traced call surface re-implements several public wrappers
(residual_sweep, simulate, the attractor probe) from the functions beneath
them, and wraps the specs measure_transport_check takes. Its traced run is
only correct while those copies give the public wrappers' outputs, so each is
checked here on small inputs against the direct call."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import suslovkit as sk

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def surfaces():
    if not TRACING.exists():
        pytest.skip("benchmarks/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # read the benchmark's source without leaving a __pycache__ beside it
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = dont_write
    return tracing.Direct(sk), tracing.Traced(sk, tracing.Tracer())


def test_residual_sweep(surfaces, pstar):
    direct, traced = (s.residual_sweep(pstar, 300, 2, 1e-6) for s in surfaces)
    assert traced["max_residual"] == direct["max_residual"]
    assert traced["pass"] is direct["pass"]


def test_simulate(surfaces, pstar_full):
    direct, traced = (s.simulate(pstar_full, np.array([0.3, -0.4, 0.5]), 20.0, 1e-10)
                      for s in surfaces)
    np.testing.assert_array_equal(traced.states[-1], direct.states[-1])
    assert traced.integrator_stats["nfev"] == direct.integrator_stats["nfev"]


def test_probe(surfaces, pstar_full):
    direct, traced = (s.probe(pstar_full, 1.0, 30, 50.0, 4) for s in surfaces)
    assert traced.labels == direct.labels
    np.testing.assert_array_equal(traced.assignments, direct.assignments)


def test_measure_transport_check(surfaces, pstar):
    field = sk.vector_field(pstar)
    density = sk.density_spec(pstar, sk.density_params(pstar))
    box = np.array([[0.8, 1.2]] * 3)
    direct, traced = (s.measure_transport_check(field, density, box, 1.0, 500, 3)
                      for s in surfaces)
    assert (traced.mu_A, traced.mu_phi_t_A) == (direct.mu_A, direct.mu_phi_t_A)
