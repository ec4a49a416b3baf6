"""Named end-to-end runs over a validated configuration.

Every scenario maps (RunConfig, seed) to a plain-python summary dict plus
named tables of rows; file writing lives in the command-line layer.  All
randomness is derived from the seed, so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .classical_dynamics import classical_energy_along, flow
from .classical_energy import binding_lower_bound, minimize_constrained
from .config import RunConfig
from .discretization import dispersion
from .fock_space import (resolvent_bound_ratio, truncated_basis,
                         weyl_conjugation_identities)
from .ground_state import theorem2_sweep
from .limit_harness import theorem1_sweep
from .quantum_dynamics import (FactoredHamiltonian, active_meson_basis,
                               b_expansion_residual, check_relative_bounds,
                               coherent_product_state, duhamel_check,
                               gronwall_bound_check)


def _field_rows(grid, prefix, values, coords, coord_name):
    return [{"index": i, coord_name: float(coords[i]),
             f"{prefix}_re": float(np.real(values[i])),
             f"{prefix}_im": float(np.imag(values[i]))}
            for i in range(len(values))]


def run_classical_flow(cfg: RunConfig, seed: int):
    t_final, n_samples, dt = (cfg.options[key]
                              for key in ("t_final", "n_samples", "dt"))
    grid, params, state0 = cfg.grid, cfg.params, cfg.initial
    times = np.linspace(0.0, t_final, n_samples)
    traj = flow(grid, params, state0, times, dt)
    energies = classical_energy_along(grid, params, traj)
    charge = np.array([grid.norm_x(traj.z1[i]) for i in range(n_samples)])
    totals = np.array([e.total for e in energies])
    rows = [{"t": float(times[i]), "charge": float(charge[i]),
             "one_body": float(energies[i].one_body),
             "field": float(energies[i].field),
             "interaction": float(energies[i].interaction),
             "total": float(totals[i])} for i in range(n_samples)]
    summary = {
        "scenario": "classical-flow",
        "t_final": t_final, "n_samples": n_samples, "dt": dt,
        "charge_initial": float(charge[0]),
        "charge_drift_max": float(np.max(np.abs(charge - charge[0]))),
        "energy_initial": float(totals[0]),
        "energy_drift_max": float(np.max(np.abs(totals - totals[0]))),
    }
    tables = {
        "trajectory": (["t", "charge", "one_body", "field", "interaction",
                        "total"], rows),
        "final_z1": (["index", "x", "z1_re", "z1_im"],
                     _field_rows(grid, "z1", traj.z1[-1], grid.x, "x")),
        "final_z2": (["index", "k", "z2_re", "z2_im"],
                     _field_rows(grid, "z2", traj.z2[-1], grid.k, "k")),
    }
    return summary, tables


def run_minimize(cfg: RunConfig, seed: int):
    grid, params, n_starts = cfg.grid, cfg.params, cfg.options["n_starts"]
    result = minimize_constrained(grid, params, seed=seed, n_starts=n_starts,
                                  max_iter=cfg.options["max_iter"],
                                  grad_tol=cfg.options["grad_tol"])
    bound = binding_lower_bound(grid, params)
    summary = {
        "scenario": "minimize",
        "energy": float(result.energy),
        "gradient_norm": float(result.gradient_norm),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "lower_bound": float(bound),
        "above_lower_bound": bool(result.energy >= bound - 1e-12),
        "n_starts": n_starts,
        "charge": float(params.charge),
    }
    tables = {
        "minimizer_z1": (["index", "x", "z1_re", "z1_im"],
                         _field_rows(grid, "z1", result.z1, grid.x, "x")),
        "minimizer_z2": (["index", "k", "z2_re", "z2_im"],
                         _field_rows(grid, "z2", result.z2, grid.k, "k")),
        "start_energies": (["start", "energy"],
                           [{"start": i, "energy": float(e)}
                            for i, e in enumerate(result.start_energies)]),
    }
    return summary, tables


def run_duhamel(cfg: RunConfig, seed: int):
    eps, t, n_nodes, nucleon_cap, meson_cap = (
        cfg.options[key]
        for key in ("eps", "t", "n_nodes", "nucleon_cap", "meson_cap"))
    grid, params, state0 = cfg.grid, cfg.params, cfg.initial
    xi1, xi2 = cfg.options["xi1"], cfg.options["xi2"]
    nb = truncated_basis(grid.n_sites, nucleon_cap)
    mb = active_meson_basis(grid, params, meson_cap, state0.z2, xi2)
    ham = FactoredHamiltonian(grid, params, eps, nb, mb)
    psi0, deficit = coherent_product_state(ham, state0.z1, state0.z2)
    report = duhamel_check(ham, psi0, xi1, xi2, t, n_nodes=n_nodes)
    summary = {
        "scenario": "duhamel",
        "eps": eps, "t": t, "n_nodes": n_nodes, "dim": int(ham.dim),
        "coherent_deficit": float(deficit),
        "char_initial_re": report.char_initial.real,
        "char_initial_im": report.char_initial.imag,
        "lhs_re": report.lhs.real, "lhs_im": report.lhs.imag,
        "rhs_re": report.rhs.real, "rhs_im": report.rhs.imag,
        "residual": report.residual,
        "quadrature_estimate": report.quadrature_estimate,
    }
    rows = [{"order": j, "re": c.real, "im": c.imag, "abs": abs(c)}
            for j, c in enumerate(report.contributions)]
    tables = {"contributions": (["order", "re", "im", "abs"], rows)}
    if cfg.options["expansion_check"]:
        # the conjugation expansion is an operator identity; check it on
        # dedicated bases deep enough that the core sits far below the caps,
        # independent of the propagation truncation above
        nb_x = truncated_basis(grid.n_sites, max(nucleon_cap, 12))
        mb_x = active_meson_basis(grid, params, max(meson_cap, 16),
                                  state0.z2, xi2)
        res = b_expansion_residual(
            FactoredHamiltonian(grid, params, eps, nb_x, mb_x), xi1, xi2,
            core_margin=(nb_x.cap - 4, mb_x.cap - 6))
        summary["expansion_residual"] = float(res)
    return summary, tables


def run_theorem1(cfg: RunConfig, seed: int):
    eps_values, track_eps = cfg.options["eps_values"], cfg.options["track_eps"]
    report = theorem1_sweep(cfg.grid, cfg.params, cfg.initial, eps_values,
                            cfg.options["t_values"],
                            tail_budget=cfg.options["tail_budget"],
                            classical_dt=cfg.options["classical_dt"])
    # True for a single eps: there is no step to compare
    monotone = bool(np.all(np.diff(report.errors, axis=0) < 0))
    summary = {
        "scenario": "theorem1",
        "eps_values": list(report.eps_values),
        "t_values": list(report.t_values),
        "n_xi": int(report.n_xi),
        "dims": [int(d) for d in report.dims],
        "caps": [[int(c) for c in pair] for pair in report.caps],
        "deficits": [float(d) for d in report.deficits],
        "max_error": float(report.errors.max()),
        "terminal_max_error": float(report.errors[-1].max()),
        "monotone_in_eps": monotone,
    }
    rows = [{"eps": s.eps, "t": s.t, "xi_index": s.xi_index,
             "error": s.error, "value_re": s.value.real,
             "value_im": s.value.imag, "target_re": s.target.real,
             "target_im": s.target.imag} for s in report.samples]
    tables = {"char_errors": (["eps", "t", "xi_index", "error", "value_re",
                               "value_im", "target_re", "target_im"], rows)}
    if track_eps is not None:
        moments = report.moment_errors[eps_values.index(track_eps)]
        summary["ehrenfest_eps"] = track_eps
        summary["ehrenfest_max_error"] = float(moments.max())
        tables["ehrenfest"] = (
            ["t", "error"],
            [{"t": t, "error": float(err)}
             for t, err in zip([0.0, *report.t_values], moments)])
    return summary, tables


def run_theorem2(cfg: RunConfig, seed: int):
    meson_cap = cfg.options["meson_cap"]
    report = theorem2_sweep(cfg.grid, cfg.params, cfg.options["n_values"],
                            meson_cap, method=cfg.options["method"],
                            cap_check_shift=cfg.options["cap_check_shift"],
                            seed=seed)
    gaps = [r.gap for r in report.records]
    summary = {
        "scenario": "theorem2",
        "lambda": float(report.lambda_coupling),
        "e_classical": float(report.e_classical),
        "meson_cap": meson_cap,
        "cap_shift": float(report.cap_shift),
        "monotone_gaps": bool(all(b <= a * (1 + 1e-9)
                                  for a, b in zip(gaps, gaps[1:]))),
        "variational_ok": bool(all(r.e_quantum <= r.e_coherent + 1e-6
                                   for r in report.records)),
        "final_gap": float(gaps[-1]),
    }
    rows = [{"n": r.n, "eps": r.eps, "dim": r.dim,
             "e_quantum": r.e_quantum, "e_coherent": r.e_coherent,
             "gap": r.gap} for r in report.records]
    tables = {"sector_energies": (["n", "eps", "dim", "e_quantum",
                                   "e_coherent", "gap"], rows)}
    return summary, tables


def run_property_suite(cfg: RunConfig, seed: int):
    opts, grid, params = cfg.options, cfg.grid, cfg.params
    eps, meson_cap = opts["eps"], opts["meson_cap"]
    n_samples = opts["n_samples"]
    nb = truncated_basis(grid.n_sites, opts["nucleon_cap"])
    mb = active_meson_basis(grid, params, meson_cap)
    modes = mb.modes
    ham = FactoredHamiltonian(grid, params, eps, nb, mb)

    checks = []

    def record(name, value, threshold, ok):
        checks.append({"name": name, "value": float(value),
                       "threshold": float(threshold), "ok": bool(ok)})

    bounds = check_relative_bounds(ham, n_samples=n_samples, seed=seed)
    for name, ratio in bounds.items():
        record(f"bound_{name}", ratio, 1.0 + 1e-9, ratio <= 1.0 + 1e-9)

    rng = np.random.default_rng(seed)
    idb = active_meson_basis(grid, params, opts["identity_cap"])
    xi = np.zeros(grid.n_sites, dtype=complex)
    eta = np.zeros(grid.n_sites, dtype=complex)
    xi[modes] = opts["xi_scale"] * (rng.standard_normal(modes.size)
                                    + 1j * rng.standard_normal(modes.size))
    eta[modes] = opts["xi_scale"] * (rng.standard_normal(modes.size)
                                     + 1j * rng.standard_normal(modes.size))
    y = np.diag(dispersion(grid.k, params.meson_mass)[modes])
    identities = weyl_conjugation_identities(
        grid, idb, xi, eta, y, eps, core_margin=opts["identity_margin"])
    for name, resid in identities.items():
        thr = 1e-12 if name == "unitarity" else 1e-8
        record(f"identity_{name}", resid, thr, resid <= thr)

    for trial in range(3):
        y1 = rng.standard_normal((modes.size,) * 2) \
            + 1j * rng.standard_normal((modes.size,) * 2)
        root = rng.standard_normal((modes.size,) * 2) \
            + 1j * rng.standard_normal((modes.size,) * 2)
        ratio = resolvent_bound_ratio(y1, root.conj().T @ root,
                                      cap=meson_cap, eps=eps)
        record(f"bound_resolvent_{trial}", ratio, 1.0 + 1e-9,
               ratio <= 1.0 + 1e-9)

    delta, t = opts["delta"], opts["t"]
    gronwall = gronwall_bound_check(ham, delta, t, n_samples=n_samples,
                                    seed=seed)
    record("gronwall_operator_ratio", gronwall["operator_ratio"], 1.01,
           gronwall["operator_ratio"] <= 1.01)
    record("gronwall_vector_ratio", gronwall["max_vector_ratio"], 1.01,
           gronwall["max_vector_ratio"] <= 1.01)

    summary = {
        "scenario": "property-suite",
        "eps": eps, "dim": int(ham.dim), "n_samples": n_samples,
        "delta": delta, "t": t,
        "gronwall_bound": float(gronwall["bound"]),
        "all_ok": bool(all(c["ok"] for c in checks)),
        "n_checks": len(checks),
    }
    tables = {"properties": (["name", "value", "threshold", "ok"], checks)}
    return summary, tables


RUNNERS = {
    "classical-flow": run_classical_flow,
    "minimize": run_minimize,
    "duhamel": run_duhamel,
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "property-suite": run_property_suite,
}


def run_scenario(cfg: RunConfig, seed: int):
    """Dispatch a validated config to its scenario runner."""
    return RUNNERS[cfg.scenario](cfg, seed)
