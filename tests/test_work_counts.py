"""Work counts of the two benchmark-sized runs, pinned.

The inputs are those of the benchmark workloads at seed 1, copied here so
that the tests do not depend on the benchmark harness.  A change that adds
products to either run fails these tests; one that removes some updates the
pinned counts, and says so.
"""

import json
import math

import pytest
from scipy.sparse import _base as sparse_base

from nelson_lab import ground_state, limit_harness
from nelson_lab.config import load_config
from nelson_lab.fock_space import ProductOperator
from nelson_lab.scenarios import run_scenario

T1_LADDER = {
    "grid": {"n_sites": 4, "half_length": math.pi},
    "model": {"mass": 1.0, "meson_mass": 1.0, "charge": 1.0,
              "potential": {"kind": "harmonic", "strength": 1.0},
              "chi": {"kind": "sharp-band", "amplitude": 0.25, "k_lo": 1.0,
                      "k_hi": 1.0}},
    "initial": {
        "z1": {"kind": "explicit", "values": [
            [0.01780311924720405, 0.06384330606974421],
            [-0.008044535788694043, 0.1083251268394672],
            [0.0928439938208802, 0.06426985774552574],
            [-0.04271371592366761, 0.10527559177256147]]},
        "z2": {"kind": "modes", "entries": [
            [1, 0.011872526217886259, 0.11999973610770195],
            [3, -0.05159323025215171, 0.01404439558813232]]}},
    "scenario": {"name": "theorem1",
                 "eps_values": [0.4, 0.2, 0.1, 0.05, 0.025],
                 "t_values": [0.25, 0.5], "track_eps": 0.1},
}

T2_SECTORS = {
    "grid": {"n_sites": 8, "half_length": math.pi},
    "model": {"mass": 1.0, "meson_mass": 1.0, "charge": 1.0,
              "potential": {"kind": "harmonic", "strength": 1.0},
              "chi": {"kind": "sharp-band", "amplitude": 0.5, "k_lo": 1.0,
                      "k_hi": 1.0}},
    "scenario": {"name": "theorem2", "n_values": [1, 2, 3, 4, 5, 6],
                 "meson_cap": 7},
}


def run(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return run_scenario(load_config(path), 1)


@pytest.fixture
def products(monkeypatch):
    """Products with each operator shape, in order of first use."""
    counts, original = {}, ProductOperator._matmat

    def counted(self, x, out=None):
        counts[self.dims] = counts.get(self.dims, 0) + 1
        return original(self, x, out)

    monkeypatch.setattr(ProductOperator, "_matmat", counted)
    return counts


def test_t1_ladder_products_per_rung_and_weyl_calls(tmp_path, products,
                                                    monkeypatch):
    # each rung takes 2(K - 1) products for the K Chebyshev terms of its
    # later time (45, 49, 53, 61, 73); every Weyl value reads the lowering
    # tables and builds no scipy sparse matrix
    inside, weyl_calls = [], []
    original_weyl = limit_harness.weyl_matrix_elements
    original_init = sparse_base._spbase.__init__

    def no_sparse_inside_weyl(self, *args, **kwargs):
        if inside:
            raise AssertionError("a Weyl value built a sparse matrix")
        original_init(self, *args, **kwargs)

    def watched(*args):
        weyl_calls.append(args[0].dim)
        inside.append(True)
        try:
            return original_weyl(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(sparse_base._spbase, "__init__",
                        no_sparse_inside_weyl)
    monkeypatch.setattr(limit_harness, "weyl_matrix_elements", watched)
    summary, _ = run(tmp_path, T1_LADDER)
    assert summary["dims"] == [1890, 4410, 6930, 20020, 65520]
    assert list(products.values()) == [88, 96, 104, 120, 144]
    assert sum(products.values()) == 552
    assert weyl_calls == [dim for dim in summary["dims"]
                          for _ in range(12)]


def test_t2_sectors_products_per_sector_solve(tmp_path, monkeypatch):
    # n = 1..6, then n = 6 at the raised meson cap; products outside the
    # solves (the coherent bounds) are not counted
    solves, inside = [], []
    original_solve = ground_state._lobpcg
    original_product = ProductOperator._matmat

    def counted_solve(*args, **kwargs):
        solves.append(0)
        inside.append(True)
        try:
            return original_solve(*args, **kwargs)
        finally:
            inside.pop()

    def counted(self, x, out=None):
        if inside:
            solves[-1] += 1
        return original_product(self, x, out)

    monkeypatch.setattr(ground_state, "_lobpcg", counted_solve)
    monkeypatch.setattr(ProductOperator, "_matmat", counted)
    summary, _ = run(tmp_path, T2_SECTORS)
    assert summary["cap_shift"] <= 1e-4
    assert solves == [34, 39, 44, 46, 48, 50, 51]
