"""Traced memory peaks of the two benchmark-sized runs, pinned.

On the seed-1 inputs of `test_work_counts.py`, tracemalloc, started before
the run, gives the peak of all that the run holds while a phase of it
runs.  The peak is counted in state vectors of the phase's dim: real ones
(8 bytes an entry) for a sector solve, which runs in real arithmetic,
complex ones (16 bytes) for a Theorem-1 rung.  Whatever the operator, the
bases and the sweep hold besides comes to less than one vector at these
dims.  A change that keeps more states alive through a phase fails these
tests.
"""

import tracemalloc

import pytest
from test_work_counts import T1_LADDER, T2_SECTORS, run

from nelson_lab import ground_state, limit_harness


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def peak_in_states(dim, itemsize):
    return tracemalloc.get_traced_memory()[1] / (itemsize * dim)


def test_t2_sectors_cap_shift_solve_holds_its_own_vectors(
        tmp_path, monkeypatch, traced):
    # the solve at the raised meson cap, the largest: LOBPCG's x, p, r and
    # their images, the meson-major copy and the sum of a product, and the
    # real start make 9.  Neither the complex start nor an earlier
    # sector's start is held.
    peaks, original = [], ground_state._lobpcg

    def solve(matrix, x0, *args):
        tracemalloc.reset_peak()
        result = original(matrix, x0, *args)
        peaks.append((x0.size, peak_in_states(x0.size, 8)))
        return result

    monkeypatch.setattr(ground_state, "_lobpcg", solve)
    run(tmp_path, T2_SECTORS)
    dim, peak = peaks[-1]
    assert dim == 113256
    assert peak <= 10.5


def test_t1_ladder_top_rung_holds_its_own_states(tmp_path, monkeypatch,
                                                 traced):
    # at dim 65520 the propagation holds the start, the Chebyshev planes,
    # the recurrence's three real vectors and the workspace of the
    # products with 2X (5.5 states), and the readout, the moments and Weyl
    # values, the two snapshots and the Weyl workspace (6).  No earlier
    # rung's operator or states are held, nor the start in the readout,
    # nor a complex copy of the result for its norms.
    rungs = []
    propagate = limit_harness.propagate
    weyl_matrix_elements = limit_harness.weyl_matrix_elements

    def traced_propagate(ham, psi0, times):
        tracemalloc.reset_peak()
        snapshots = propagate(ham, psi0, times)
        rungs.append({"dim": ham.dim,
                      "propagation": peak_in_states(ham.dim, 16)})
        tracemalloc.reset_peak()
        return snapshots

    def traced_weyl(ham, *args):
        values = weyl_matrix_elements(ham, *args)
        rungs[-1]["readout"] = peak_in_states(ham.dim, 16)
        return values

    monkeypatch.setattr(limit_harness, "propagate", traced_propagate)
    monkeypatch.setattr(limit_harness, "weyl_matrix_elements", traced_weyl)
    run(tmp_path, T1_LADDER)
    top = rungs[-1]
    assert top["dim"] == 65520
    assert top["propagation"] <= 7.25
    assert top["readout"] <= 7.25
