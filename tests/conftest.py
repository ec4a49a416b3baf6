"""Shared test fixtures."""

from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sp

from nelson_lab.discretization import ModelParams
from nelson_lab.fock_space import FockBasis, ProductOperator
from nelson_lab.quantum_dynamics import FactoredHamiltonian


@pytest.fixture
def free_ham():
    """A function making a coupling-free (chi = 0) `FactoredHamiltonian`
    on the given bases: the owner of the product space for purely
    kinematic Weyl values, which do not depend on the model."""
    def build(grid, eps, nucleon_basis, meson_basis):
        params = ModelParams(mass=1.0, meson_mass=1.0, charge=1.0,
                             potential=np.zeros(grid.n_sites),
                             chi=np.zeros(grid.n_sites))
        return FactoredHamiltonian(grid, params, eps, nucleon_basis,
                                   meson_basis)
    return build


@pytest.fixture
def one_pair():
    """A function wrapping a square matrix h as the one-pair
    `ProductOperator` [(csr(h), None)] over dims (n, 1), with eps = 1 so
    that `propagate` reads it as H/eps = h.  Its products are those of the
    CSR h, and its Gershgorin interval is that of h, to the bit."""
    def wrap(h):
        op = ProductOperator([(sp.csr_matrix(h), None)], (h.shape[0], 1))
        op.eps = 1.0
        return op
    return wrap


@pytest.fixture
def lowering_builds(monkeypatch):
    """The basis of each `FockBasis.lowering` table built, or asked for
    on a sector, in the test."""
    built, original = [], FockBasis.lowering.func

    def counted(basis):
        built.append(basis)
        return original(basis)

    table = cached_property(counted)
    table.__set_name__(FockBasis, "lowering")
    monkeypatch.setattr(FockBasis, "lowering", table)
    return built
