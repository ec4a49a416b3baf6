"""Scenario runners: each produces a summary and tables from a parsed config."""

import math

import pytest

from nelson_lab.config import OPTIONS, parse_config
from nelson_lab.errors import ConfigInvalid
from nelson_lab.scenarios import RUNNERS, run_scenario

HALF_PI = math.pi / 2
PI = math.pi


def band_model(amplitude, k_lo, k_hi, strength=1.0):
    return {
        "mass": 1.0,
        "meson_mass": 1.0,
        "charge": 1.0,
        "potential": {"kind": "harmonic", "strength": strength},
        "chi": {"kind": "sharp-band", "amplitude": amplitude,
                "k_lo": k_lo, "k_hi": k_hi},
    }


def check_tables(tables):
    for name, (fieldnames, rows) in tables.items():
        assert isinstance(name, str) and name
        assert list(fieldnames)
        for row in rows:
            assert set(row) == set(fieldnames)
            for value in row.values():
                assert isinstance(value, (int, float, str, bool))


def check_summary(summary):
    for key, value in summary.items():
        assert isinstance(key, str)
        assert isinstance(value, (int, float, str, bool, list, type(None)))


def test_classical_flow_runner():
    cfg = parse_config({
        "grid": {"n_sites": 8, "half_length": PI},
        "model": band_model(0.5, 1.0, 1.0),
        "initial": {
            "z1": {"kind": "gaussian-bump", "amplitude": 1.0, "width": 1.0,
                   "wavenumber": 0.0, "normalize_charge": True},
            "z2": {"kind": "eliminated"},
        },
        "scenario": {"name": "classical-flow", "t_final": 0.5,
                     "n_samples": 6, "dt": 0.001},
    })
    summary, tables = run_scenario(cfg, seed=0)
    check_summary(summary)
    check_tables(tables)
    assert summary["charge_drift_max"] < 1e-10
    assert summary["energy_drift_max"] < 1e-7
    assert set(tables) == {"trajectory", "final_z1", "final_z2"}
    fieldnames, rows = tables["trajectory"]
    assert len(rows) == 6
    assert rows[0]["t"] == 0.0


def test_classical_flow_needs_initial():
    with pytest.raises(ConfigInvalid) as err:
        parse_config({
            "grid": {"n_sites": 8, "half_length": PI},
            "model": band_model(0.5, 1.0, 1.0),
            "scenario": {"name": "classical-flow"},
        })
    assert err.value.path == ".initial"


def test_minimize_runner():
    cfg = parse_config({
        "grid": {"n_sites": 8, "half_length": PI},
        "model": band_model(0.5, 1.0, 1.0, strength=0.5),
        "scenario": {"name": "minimize", "n_starts": 2},
    })
    summary, tables = run_scenario(cfg, seed=0)
    check_summary(summary)
    check_tables(tables)
    assert summary["converged"] is True
    assert summary["above_lower_bound"] is True
    assert summary["energy"] >= summary["lower_bound"]
    assert set(tables) == {"minimizer_z1", "minimizer_z2", "start_energies"}
    assert len(tables["start_energies"][1]) == 2


def test_minimize_seed_changes_starts_not_minimum():
    cfg = parse_config({
        "grid": {"n_sites": 8, "half_length": PI},
        "model": band_model(0.5, 1.0, 1.0, strength=0.5),
        "scenario": {"name": "minimize", "n_starts": 2},
    })
    s0, t0 = run_scenario(cfg, seed=0)
    s1, t1 = run_scenario(cfg, seed=12345)
    assert t0["start_energies"][1] != t1["start_energies"][1]
    assert s0["energy"] == pytest.approx(s1["energy"], abs=1e-6)


def test_duhamel_runner():
    cfg = parse_config({
        "grid": {"n_sites": 2, "half_length": HALF_PI},
        "model": band_model(0.3, 2.0, 2.0),
        "initial": {
            "z1": {"kind": "explicit",
                   "values": [[0.05, 0.02], [-0.03, 0.01]]},
            "z2": {"kind": "modes", "entries": [[1, 0.08, -0.03]]},
        },
        "scenario": {"name": "duhamel", "eps": 0.5, "t": 0.25,
                     "n_nodes": 17, "nucleon_cap": 6, "meson_cap": 8,
                     "xi1": [[0.3, 0.1], [-0.2, 0.05]],
                     "xi2": [[0.0, 0.0], [0.25, -0.2]],
                     "expansion_check": True},
    })
    summary, tables = run_scenario(cfg, seed=0)
    check_summary(summary)
    check_tables(tables)
    assert summary["residual"] < 1e-6
    assert summary["expansion_residual"] < 1e-6
    assert summary["coherent_deficit"] < 1e-8
    names, rows = tables["contributions"]
    assert len(rows) == 3
    assert rows[0]["order"] == 0


@pytest.mark.parametrize("xis, path", [
    ({"xi2": [[0.0, 0.0], [0.25, -0.2]]}, ".scenario.xi1"),
    ({"xi1": [[0.3, 0.1], [-0.2, 0.05]], "xi2": [[0.0, 0.0], [0.25]]},
     ".scenario.xi2[1]"),
], ids=["missing-xi1", "malformed-xi2-pair"])
def test_duhamel_xi_errors_name_their_path(xis, path):
    with pytest.raises(ConfigInvalid) as err:
        parse_config({
            "grid": {"n_sites": 2, "half_length": HALF_PI},
            "model": band_model(0.3, 2.0, 2.0),
            "initial": {
                "z1": {"kind": "explicit",
                       "values": [[0.05, 0.02], [-0.03, 0.01]]},
                "z2": {"kind": "modes", "entries": [[1, 0.08, -0.03]]},
            },
            "scenario": {"name": "duhamel", **xis},
        })
    assert err.value.path == path


def test_theorem1_runner():
    cfg = parse_config({
        "grid": {"n_sites": 4, "half_length": PI},
        "model": band_model(0.25, 1.0, 1.0),
        "initial": {
            "z1": {"kind": "explicit",
                   "values": [[0.15, 0.0], [0.09, 0.06],
                              [-0.075, 0.0], [0.0, 0.045]]},
            "z2": {"kind": "modes", "entries": [[1, 0.1, -0.05]]},
        },
        "scenario": {"name": "theorem1", "eps_values": [0.4, 0.2],
                     "t_values": [0.25]},
    })
    summary, tables = run_scenario(cfg, seed=0)
    check_summary(summary)
    check_tables(tables)
    assert summary["monotone_in_eps"] is True
    assert summary["max_error"] < 0.1
    names, rows = tables["char_errors"]
    assert len(rows) == 2 * 1 * 6
    assert {"eps", "t", "xi_index", "error"} <= set(names)


def test_theorem2_runner():
    cfg = parse_config({
        "grid": {"n_sites": 4, "half_length": PI},
        "model": band_model(0.5, 1.0, 1.0),
        "scenario": {"name": "theorem2", "n_values": [1, 2, 3],
                     "meson_cap": 6},
    })
    summary, tables = run_scenario(cfg, seed=0)
    check_summary(summary)
    check_tables(tables)
    assert summary["monotone_gaps"] is True
    assert summary["variational_ok"] is True
    names, rows = tables["sector_energies"]
    assert len(rows) == 3
    assert rows[0]["n"] == 1
    assert rows[-1]["gap"] < rows[0]["gap"]


def test_property_suite_runner():
    cfg = parse_config({
        "grid": {"n_sites": 2, "half_length": HALF_PI},
        "model": band_model(0.3, 2.0, 2.0),
        "scenario": {"name": "property-suite", "eps": 0.5,
                     "nucleon_cap": 5, "meson_cap": 6, "n_samples": 40,
                     "delta": 1.0, "t": 0.5, "identity_cap": 18,
                     "identity_margin": 9},
    })
    summary, tables = run_scenario(cfg, seed=0)
    check_summary(summary)
    check_tables(tables)
    assert summary["all_ok"] is True
    names, rows = tables["properties"]
    assert all(row["ok"] for row in rows)
    assert {"name", "value", "threshold", "ok"} <= set(names)


def test_unknown_option_rejected():
    with pytest.raises(ConfigInvalid) as err:
        parse_config({
            "grid": {"n_sites": 8, "half_length": PI},
            "model": band_model(0.5, 1.0, 1.0),
            "scenario": {"name": "minimize", "n_startz": 2},
        })
    assert "n_startz" in err.value.path


def test_bad_option_value_rejected():
    with pytest.raises(ConfigInvalid):
        parse_config({
            "grid": {"n_sites": 8, "half_length": PI},
            "model": band_model(0.5, 1.0, 1.0),
            "scenario": {"name": "theorem2", "n_values": [0, 1]},
        })


@pytest.mark.parametrize("entry", [2.5, float("nan"), float("inf")],
                         ids=["fraction", "nan", "infinity"])
def test_n_values_entries_must_be_finite_integers(entry):
    with pytest.raises(ConfigInvalid) as err:
        parse_config({
            "grid": {"n_sites": 4, "half_length": PI},
            "model": band_model(0.5, 1.0, 1.0),
            "scenario": {"name": "theorem2", "n_values": [1, entry]},
        })
    assert err.value.path == ".scenario.n_values[1]"


def test_every_scenario_has_options_and_a_runner():
    assert set(OPTIONS) == set(RUNNERS)
