"""Acceptance suite: one test per headline property, at its stated tolerance.

Each criterion is a single test function so the verbose run shows one
pass/fail line per property.  Criteria:

 1. coherent-energy identity pinning every scaling convention
 2. conservation of charge/energy (classical) and norm/energy (quantum)
 3. interaction-picture integral identity and the operator expansion
 4. operator-inequality suite (relative bounds, resolvent bound, growth)
 5. displacement/conjugation operator identities on leakage-safe cores
 6. sector ground-state energies converge to the classical minimum
 7. characteristic functions converge to the classical flow's targets
 8. constrained minimizer: gradient, lower bound, brute-force agreement
 9. numerical oracles: propagator vs dense, LOBPCG vs dense, splitting
    order
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from nelson_lab.classical_dynamics import (FieldState, classical_energy_along,
                                           flow)
from nelson_lab.classical_energy import (binding_lower_bound, evaluate_h,
                                         minimize_constrained,
                                         reduced_functional)
from nelson_lab.discretization import (Grid, ModelParams, chi_gaussian,
                                       chi_sharp_band, coupling_weight,
                                       dispersion, one_body_hamiltonian,
                                       potential_preset)
from nelson_lab.fock_space import (coherent_state, occupation_cap,
                                   resolvent_bound_ratio, sector_basis,
                                   truncated_basis,
                                   weyl_conjugation_identities)
from nelson_lab.ground_state import lowest_eigenpair, theorem2_sweep
from nelson_lab.limit_harness import theorem1_sweep
from nelson_lab.quantum_dynamics import (FactoredHamiltonian,
                                         b_expansion_residual,
                                         check_relative_bounds, duhamel_check,
                                         gronwall_bound_check, propagate)


def harmonic_model(grid, chi):
    return ModelParams(mass=1.0, meson_mass=1.0, charge=1.0,
                       potential=potential_preset(grid, "harmonic", 1.0),
                       chi=chi)


def band_model(grid, amplitude, k_lo, k_hi):
    return harmonic_model(grid, chi_sharp_band(grid, amplitude, k_lo, k_hi))


def tiny_coupled_system(eps=0.5, caps=(8, 10)):
    """Two sites, one coupled meson mode: the smallest honest instance."""
    grid = Grid(2, np.pi / 2)
    params = band_model(grid, 0.3, 2.0, 2.0)
    modes = np.nonzero(coupling_weight(grid, params) != 0)[0]
    nb = truncated_basis(grid.n_sites, caps[0])
    mb = truncated_basis(modes.size, caps[1], modes=modes)
    ham = FactoredHamiltonian(grid, params, eps, nb, mb)
    return grid, params, nb, mb, ham


def tiny_fields(grid):
    z1 = np.array([0.05 + 0.02j, -0.03 + 0.01j])
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1] = 0.08 - 0.03j
    return z1, z2


def coherent_product(grid, nb, mb, eps, z1, z2):
    v1, d1 = coherent_state(grid, nb, z1, eps)
    v2, d2 = coherent_state(grid, mb, z2, eps)
    return np.kron(v1, v2), max(d1, d2)


def test_criterion_01_coherent_energy_identity():
    grid = Grid(8, np.pi)
    params = band_model(grid, 0.5, 1.0, 2.0)
    modes = np.nonzero(coupling_weight(grid, params) != 0)[0]
    assert modes.size == 4
    rng = np.random.default_rng(42)
    worst_dev, worst_deficit = 0.0, 0.0
    for trial in range(20):
        n = trial % 3 + 1
        z1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        z1 *= 0.9 / grid.norm_x(z1)
        z2 = np.zeros(8, dtype=complex)
        z2[modes] = 0.25 * (rng.standard_normal(modes.size)
                            + 1j * rng.standard_normal(modes.size))
        eps = grid.norm_x(z1) ** 2 / n      # fixed-number sector scaling
        cap = occupation_cap(grid.norm_k(z2) ** 2 / eps, 1e-8) + 2
        nb = sector_basis(grid.n_sites, n)
        mb = truncated_basis(modes.size, cap, modes=modes)
        ham = FactoredHamiltonian(grid, params, eps, nb, mb)
        state, deficit = coherent_product(grid, nb, mb, eps, z1, z2)
        e_quantum = float(np.real(np.vdot(state, ham @ state)))
        h_classical = evaluate_h(grid, params, FieldState(z1, z2)).total
        dev = abs(e_quantum - h_classical) / (1.0 + abs(h_classical))
        worst_dev = max(worst_dev, dev)
        worst_deficit = max(worst_deficit, deficit)
    assert worst_deficit <= 1e-6
    assert worst_dev <= 1e-5
    print(f"criterion 1 PASS: coherent-energy identity, max relative "
          f"deviation {worst_dev:.2e} (tol 1e-05), "
          f"max deficit {worst_deficit:.2e}")


def test_criterion_02_conservation_suite():
    # classical side: charge and energy along a long trajectory
    grid = Grid(8, np.pi)
    params = harmonic_model(grid, chi_gaussian(grid, 0.5, 2.0))
    x = grid.x
    z1 = np.exp(-x ** 2) * np.exp(0.5j * x)
    z1 /= grid.norm_x(z1)
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1] = 0.2 - 0.1j
    times = np.linspace(0.0, 5.0, 11)
    traj = flow(grid, params, FieldState(z1, z2), times, dt=1e-3)
    charges = np.array([grid.norm_x(traj.z1[i]) for i in range(len(times))])
    charge_drift = float(np.max(np.abs(charges - charges[0])))
    energies = np.array([b.total
                         for b in classical_energy_along(grid, params, traj)])
    energy_drift = float(np.max(np.abs(energies - energies[0]))
                         / (1.0 + abs(energies[0])))
    assert charge_drift <= 1e-8
    assert energy_drift <= 1e-6

    # quantum side: norm and energy under propagation
    grid_q, _, nb, mb, ham = tiny_coupled_system()
    z1q, z2q = tiny_fields(grid_q)
    state, _ = coherent_product(grid_q, nb, mb, ham.eps, z1q, z2q)
    e0 = float(np.real(np.vdot(state, ham @ state)))
    norm_drift, q_energy_drift = 0.0, 0.0
    for snap in propagate(ham, state, [0.25, 0.5, 1.0]):
        norm_drift = max(norm_drift, abs(np.linalg.norm(snap) - 1.0))
        e_t = float(np.real(np.vdot(snap, ham @ snap)))
        q_energy_drift = max(q_energy_drift,
                             abs(e_t - e0) / (1.0 + abs(e0)))
    assert norm_drift <= 1e-10
    assert q_energy_drift <= 1e-9
    print(f"criterion 2 PASS: classical charge drift {charge_drift:.2e} "
          f"(tol 1e-08), energy drift {energy_drift:.2e} (tol 1e-06); "
          f"quantum norm drift {norm_drift:.2e} (tol 1e-10), "
          f"energy drift {q_energy_drift:.2e} (tol 1e-09)")


def test_criterion_03_integral_identity_and_expansion():
    grid, params, nb, mb, ham = tiny_coupled_system()
    assert ham.dim <= 500
    z1, z2 = tiny_fields(grid)
    state, _ = coherent_product(grid, nb, mb, ham.eps, z1, z2)
    xi1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    xi2 = np.zeros(grid.n_sites, dtype=complex)
    xi2[1] = 0.25 - 0.2j
    report = duhamel_check(ham, state, xi1, xi2, t=0.5, n_nodes=65)
    assert report.residual <= 1e-6

    nb_x = truncated_basis(grid.n_sites, 12)
    mb_x = truncated_basis(mb.n_modes, 16, modes=mb.modes)
    expansion = b_expansion_residual(
        FactoredHamiltonian(grid, params, ham.eps, nb_x, mb_x), xi1, xi2,
        core_margin=(8, 10))
    assert expansion <= 1e-8
    print(f"criterion 3 PASS: integral-identity residual "
          f"{report.residual:.2e} at dim {ham.dim} (tol 1e-06), "
          f"expansion residual {expansion:.2e} (tol 1e-08)")


def test_criterion_04_operator_inequality_suite():
    grid = Grid(4, np.pi)
    params = band_model(grid, 0.5, 1.0, 1.0)
    modes = np.nonzero(coupling_weight(grid, params) != 0)[0]
    nb = truncated_basis(grid.n_sites, 3)
    mb = truncated_basis(modes.size, 3, modes=modes)
    ratios = check_relative_bounds(
        FactoredHamiltonian(grid, params, 0.5, nb, mb), n_samples=500, seed=0)
    for name, ratio in ratios.items():
        assert ratio <= 1.0 + 1e-9, f"{name}: {ratio}"

    rng = np.random.default_rng(5)
    resolvent_worst = 0.0
    for _ in range(5):
        y1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        root = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ratio = resolvent_bound_ratio(y1, root.conj().T @ root,
                                      cap=10, eps=0.5)
        resolvent_worst = max(resolvent_worst, ratio)
    assert resolvent_worst <= 1.0 + 1e-9

    _, _, _, _, ham = tiny_coupled_system(caps=(6, 8))
    growth = gronwall_bound_check(ham, delta=1.0, t=1.0,
                                  n_samples=500, seed=0)
    assert growth["operator_ratio"] <= 1.01
    assert growth["max_vector_ratio"] <= growth["operator_ratio"] + 1e-12
    exact_worst = max(max(ratios.values()), resolvent_worst)
    print(f"criterion 4 PASS: exact-bound ratios <= {exact_worst:.6f} "
          f"(tol 1+1e-09), growth-bound ratio "
          f"{growth['operator_ratio']:.4f} (tol 1.01)")


def test_criterion_05_conjugation_identities():
    grid = Grid(4, np.pi)
    params = band_model(grid, 0.5, 1.0, 1.0)
    modes = np.nonzero(coupling_weight(grid, params) != 0)[0]
    basis = truncated_basis(modes.size, 20, modes=modes)
    omega = dispersion(grid.k, params.meson_mass)
    rng = np.random.default_rng(17)
    worst = 0.0
    for choice in range(5):
        xi = np.zeros(grid.n_sites, dtype=complex)
        eta = np.zeros(grid.n_sites, dtype=complex)
        xi[modes] = 0.2 * (rng.standard_normal(modes.size)
                           + 1j * rng.standard_normal(modes.size))
        eta[modes] = 0.2 * (rng.standard_normal(modes.size)
                            + 1j * rng.standard_normal(modes.size))
        if choice == 0:
            y = np.diag(omega[modes])
        else:
            raw = rng.standard_normal((modes.size,) * 2) \
                + 1j * rng.standard_normal((modes.size,) * 2)
            y = 0.5 * (raw + raw.conj().T)
        residuals = weyl_conjugation_identities(grid, basis, xi, eta, y,
                                                eps=0.5, core_margin=10)
        worst = max(worst, max(residuals.values()))
        for name, value in residuals.items():
            assert value <= 1e-8, f"choice {choice}, {name}: {value}"
    print(f"criterion 5 PASS: conjugation/composition identity residuals "
          f"<= {worst:.2e} over 5 (xi, y) choices (tol 1e-08)")


def test_criterion_06_ground_state_convergence():
    grid = Grid(4, np.pi)
    params = band_model(grid, 0.5, 1.0, 1.0)
    n_values = [1, 2, 3, 4, 5]
    report = theorem2_sweep(grid, params, n_values, meson_cap=7)
    gaps = [r.gap for r in report.records]
    for a, b in zip(gaps[1:], gaps[2:]):
        assert b <= a * (1.0 + 1e-9)        # nonincreasing from n = 2 on
    for r in report.records:
        assert r.eps * r.n == 1.0           # lambda = 1: eps = 1/n exactly
        assert r.e_quantum <= r.e_coherent + 1e-6
    # decoupled control: the sector energy equals n eps e0 = e0 exactly
    free = harmonic_model(grid, np.zeros(grid.n_sites))
    free_report = theorem2_sweep(grid, free, n_values, meson_cap=0)
    free_gap = max(r.gap for r in free_report.records)
    assert free_gap <= 1e-9
    print(f"criterion 6 PASS: gaps {['%.2e' % g for g in gaps]} "
          f"nonincreasing, sandwich holds (tol 1e-06); decoupled control "
          f"gap {free_gap:.2e} (tol 1e-09)")


def test_criterion_07_characteristic_function_convergence():
    grid = Grid(4, np.pi)
    params = band_model(grid, 0.25, 1.0, 1.0)
    z1 = 0.15 * np.array([1.0, 0.6 + 0.4j, -0.5, 0.3j])
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1], z2[3] = 0.1 - 0.05j, 0.07j
    z0 = FieldState(z1, z2)
    eps_values = [0.4, 0.2, 0.1, 0.05]
    t_values = [0.25, 0.5]
    report = theorem1_sweep(grid, params, z0, eps_values, t_values)
    diffs = np.diff(report.errors, axis=0)
    assert np.all(diffs < 0.0)              # strict decrease per (t, xi)
    terminal = float(np.max(report.errors[-1]))
    assert terminal <= 0.1
    # decoupled control: the error is independent of time
    free = harmonic_model(grid, np.zeros(grid.n_sites))
    free_report = theorem1_sweep(grid, free, z0, [0.4, 0.2], t_values)
    spread = float(np.max(np.abs(free_report.errors[:, 1, :]
                                 - free_report.errors[:, 0, :])))
    assert spread <= 1e-10
    print(f"criterion 7 PASS: errors decrease strictly along eps for all "
          f"(t, xi); terminal max {terminal:.2e} (tol 0.1); decoupled "
          f"control time-spread {spread:.2e} (tol 1e-10)")


def test_criterion_08_constrained_minimizer():
    grid = Grid(4, np.pi)
    params = band_model(grid, 0.5, 1.0, 1.0)

    # gradient against central finite differences
    rng = np.random.default_rng(3)
    z1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z1 /= grid.norm_x(z1)
    value, grad = reduced_functional(grid, params, z1)
    h = 1e-5
    worst_fd = 0.0
    for _ in range(5):
        direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direction /= grid.norm_x(direction)
        plus, _ = reduced_functional(grid, params, z1 + h * direction)
        minus, _ = reduced_functional(grid, params, z1 - h * direction)
        fd = (plus - minus) / (2.0 * h)
        analytic = 2.0 * np.real(grid.inner_x(direction, grad))
        worst_fd = max(worst_fd, abs(fd - analytic) / (1.0 + abs(analytic)))
    assert worst_fd <= 1e-6

    # every recorded iterate sits above the coupling lower bound
    result = minimize_constrained(grid, params, seed=0, n_starts=3)
    floor = binding_lower_bound(grid, params)
    lowest_seen = float(np.min(result.history))
    assert lowest_seen >= floor - 1e-12

    # brute force on the real slice: the minimizer is real after a global
    # phase rotation (checked), so a dense mesh over the real charge
    # sphere must reproduce the minimum
    z_opt = result.z1
    z_opt = z_opt * np.exp(-1j * np.angle(z_opt[np.argmax(np.abs(z_opt))]))
    assert np.linalg.norm(z_opt.imag) <= 1e-6
    lam = params.charge

    h1 = one_body_hamiltonian(grid, params).real
    omega = dispersion(grid.k, params.meson_mass)
    weight = coupling_weight(grid, params)
    c2 = weight ** 2 / omega

    def batch_reduced(z_batch):
        kinetic = grid.dx * np.einsum("bi,ij,bj->b", z_batch,
                                      h1, z_batch, optimize=True)
        rho = (grid.dx * z_batch ** 2) @ grid.phases.T
        return kinetic - grid.dk * np.abs(rho) ** 2 @ c2

    def sphere_points(theta1, theta2, theta3):
        t1, t2, t3 = np.meshgrid(theta1, theta2, theta3, indexing="ij")
        pts = np.stack([
            np.cos(t1),
            np.sin(t1) * np.cos(t2),
            np.sin(t1) * np.sin(t2) * np.cos(t3),
            np.sin(t1) * np.sin(t2) * np.sin(t3),
        ], axis=-1).reshape(-1, 4)
        # Euclidean radius giving quadrature norm lam: dx sum z^2 = lam^2
        return (lam / np.sqrt(grid.dx)) * pts

    n_coarse = 96
    theta1 = np.linspace(0.0, np.pi, n_coarse)
    theta2 = np.linspace(0.0, np.pi, n_coarse)
    theta3 = np.linspace(0.0, 2.0 * np.pi, 2 * n_coarse, endpoint=False)
    best_value, best_angles = np.inf, None
    for block in np.array_split(np.arange(theta1.size), 8):
        pts = sphere_points(theta1[block], theta2, theta3)
        values = batch_reduced(pts)
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            per = theta3.size
            row = j // (theta2.size * per)
            rest = j % (theta2.size * per)
            best_angles = (theta1[block][row], theta2[rest // per],
                           theta3[rest % per])
    spacing = np.pi / (n_coarse - 1)
    fine = 41
    pts = sphere_points(
        np.linspace(best_angles[0] - spacing, best_angles[0] + spacing, fine),
        np.linspace(best_angles[1] - spacing, best_angles[1] + spacing, fine),
        np.linspace(best_angles[2] - spacing, best_angles[2] + spacing, fine))
    best_value = min(best_value, float(np.min(batch_reduced(pts))))
    mesh_gap = abs(best_value - result.energy)
    assert best_value >= result.energy - 1e-9   # the mesh cannot do better
    assert mesh_gap <= 1e-4
    print(f"criterion 8 PASS: gradient-FD deviation {worst_fd:.2e} "
          f"(tol 1e-06); iterates >= lower bound; brute-force mesh gap "
          f"{mesh_gap:.2e} (tol 1e-04)")


def test_criterion_09_numerical_oracles(one_pair):
    # propagation (eps = 1, so H/eps = h) against the dense exponential
    rng = np.random.default_rng(9)
    dim = 400
    raw = sp.random(dim, dim, density=0.02, random_state=11,
                    data_rvs=rng.standard_normal)
    h = (raw + raw.T) * 0.5
    h = (h + sp.identity(dim) * 0.1).tocsr()
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    t = 0.8
    dense = scipy.linalg.expm(-1j * t * h.toarray()) @ v
    (evolved,) = propagate(one_pair(h), v, [t])
    propagator_err = float(np.linalg.norm(evolved - dense))
    assert propagator_err <= 1e-9

    # LOBPCG lowest eigenpair against dense diagonalization
    value_l, _ = lowest_eigenpair(h, tol=1e-12)
    value_d = scipy.linalg.eigvalsh(h.toarray())[0]
    eig_err = abs(value_l - value_d)
    assert eig_err <= 1e-9

    # splitting order: dt-halving against a dt/16 reference
    grid = Grid(8, np.pi)
    params = harmonic_model(grid, chi_gaussian(grid, 0.5, 2.0))
    z1 = np.exp(-grid.x ** 2) * np.exp(0.3j * grid.x)
    z1 /= grid.norm_x(z1)
    z2 = np.zeros(grid.n_sites, dtype=complex)
    z2[1] = 0.2 - 0.1j
    z0 = FieldState(z1, z2)
    times = [0.0, 1.0]
    dt = 0.02

    def final_state(step):
        traj = flow(grid, params, z0, times, dt=step)
        return traj.z1[-1], traj.z2[-1]

    ref1, ref2 = final_state(dt / 16.0)

    def distance(step):
        f1, f2 = final_state(step)
        return np.sqrt(grid.norm_x(f1 - ref1) ** 2
                       + grid.norm_k(f2 - ref2) ** 2)

    ratio = distance(dt) / distance(dt / 2.0)
    assert 3.5 <= ratio <= 4.5
    print(f"criterion 9 PASS: propagator-vs-dense {propagator_err:.2e} "
          f"(tol 1e-09), eigenpair gap {eig_err:.2e} (tol 1e-09), "
          f"splitting-order ratio {ratio:.2f} (window [3.5, 4.5])")
