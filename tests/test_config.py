"""Config parsing: accepted shapes, rejected shapes, error paths."""

import json

import numpy as np
import pytest

from nelson_lab.config import SCENARIOS, load_config, parse_config
from nelson_lab.errors import ConfigInvalid


def minimal_config(scenario="minimize", **scenario_opts):
    cfg = {
        "grid": {"n_sites": 4, "half_length": 3.141592653589793},
        "model": {
            "mass": 1.0,
            "meson_mass": 1.0,
            "charge": 1.0,
            "potential": {"kind": "harmonic", "strength": 1.0},
            "chi": {"kind": "sharp-band", "amplitude": 0.3,
                    "k_lo": 1.0, "k_hi": 1.0},
        },
        "scenario": {"name": scenario, **scenario_opts},
    }
    return cfg


def test_minimal_config_parses():
    cfg = parse_config(minimal_config())
    assert cfg.scenario == "minimize"
    assert cfg.grid.n_sites == 4
    assert cfg.params.charge == 1.0
    assert cfg.initial is None
    assert cfg.options == {"n_starts": 3, "max_iter": 5000, "grad_tol": 1e-7}


def test_all_scenario_names_accepted():
    for name in SCENARIOS:
        data = initial_config([[0.1, 0.0]] * 4, {"kind": "zero"})
        data["scenario"] = {"name": name}
        if name == "duhamel":
            data["scenario"].update(xi1=[[0.1, 0.0]] * 4,
                                    xi2=[[0.0, 0.0]] * 4)
        cfg = parse_config(data)
        assert cfg.scenario == name


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigInvalid) as err:
        parse_config(minimal_config("not-a-scenario"))
    assert err.value.path == ".scenario.name"


def test_scenario_options_passed_through():
    cfg = parse_config(minimal_config("minimize", n_starts=5, max_iter=100))
    assert cfg.options == {"n_starts": 5, "max_iter": 100, "grad_tol": 1e-7}


def test_unknown_top_level_key_rejected():
    data = minimal_config()
    data["extra"] = 1
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path == "$.extra"


def test_missing_block_rejected():
    data = minimal_config()
    del data["model"]
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path == "$.model"


@pytest.mark.parametrize("field,value,path", [
    ("n_sites", 3, ".grid"),
    ("n_sites", 0, ".grid"),
    ("n_sites", 2.5, ".grid.n_sites"),
    ("half_length", -1.0, ".grid"),
    ("half_length", 0.0, ".grid"),
])
def test_bad_grid_rejected(field, value, path):
    data = minimal_config()
    data["grid"][field] = value
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path.startswith(path)


@pytest.mark.parametrize("field,value", [
    ("mass", 0.0),
    ("mass", -1.0),
    ("meson_mass", -0.5),
    ("charge", 0.0),
    ("mass", "heavy"),
    ("mass", True),
])
def test_bad_model_numbers_rejected(field, value):
    data = minimal_config()
    data["model"][field] = value
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path.startswith(".model")


def test_nonfinite_number_rejected():
    data = minimal_config()
    data["model"]["mass"] = float("inf")
    with pytest.raises(ConfigInvalid):
        # json round-trip would also fail; parse_config must reject directly
        parse_config(data)


def test_potential_presets():
    for kind, extra in [("zero", {}), ("harmonic", {"strength": 2.0}),
                        ("quartic", {"strength": 0.3})]:
        data = minimal_config()
        data["model"]["potential"] = {"kind": kind, **extra}
        cfg = parse_config(data)
        assert cfg.params.potential.shape == (4,)


def test_explicit_potential_length_checked():
    data = minimal_config()
    data["model"]["potential"] = {"kind": "explicit", "values": [1.0, 2.0]}
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path == ".model.potential.values"


def test_explicit_potential_accepted():
    data = minimal_config()
    data["model"]["potential"] = {"kind": "explicit",
                                  "values": [0.0, 1.0, 4.0, 1.0]}
    cfg = parse_config(data)
    assert np.allclose(cfg.params.potential, [0.0, 1.0, 4.0, 1.0])


def test_chi_presets():
    data = minimal_config()
    data["model"]["chi"] = {"kind": "gaussian", "amplitude": 1.0, "width": 2.0}
    cfg = parse_config(data)
    assert cfg.params.chi.shape == (4,)
    data["model"]["chi"] = {"kind": "zero"}
    assert np.all(parse_config(data).params.chi == 0.0)


def test_band_limits_checked():
    data = minimal_config()
    data["model"]["chi"] = {"kind": "sharp-band", "amplitude": 0.3,
                            "k_lo": 2.0, "k_hi": 1.0}
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path == ".model.chi.k_hi"


def test_initial_explicit_fields():
    data = minimal_config("classical-flow")
    data["initial"] = {
        "z1": {"kind": "explicit",
               "values": [[0.1, 0.0], [0.0, 0.1], [0.1, 0.1], [-0.1, 0.0]]},
        "z2": {"kind": "modes", "entries": [[1, 0.2, -0.1]]},
    }
    cfg = parse_config(data)
    assert cfg.initial is not None
    assert cfg.initial.z1[1] == pytest.approx(0.1j)
    assert cfg.initial.z2[1] == pytest.approx(0.2 - 0.1j)
    assert cfg.initial.z2[0] == 0.0


def test_initial_normalize_charge():
    data = minimal_config("classical-flow")
    data["initial"] = {
        "z1": {"kind": "gaussian-bump", "amplitude": 3.0, "width": 1.0,
               "wavenumber": 0.0, "normalize_charge": True},
        "z2": {"kind": "zero"},
    }
    cfg = parse_config(data)
    dx = 2 * 3.141592653589793 / 4
    norm = np.sqrt(dx * np.sum(np.abs(cfg.initial.z1) ** 2))
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_z2_mode_out_of_range():
    data = minimal_config("classical-flow")
    data["initial"] = {
        "z1": {"kind": "explicit",
               "values": [[0.1, 0.0]] * 4},
        "z2": {"kind": "modes", "entries": [[7, 0.2, -0.1]]},
    }
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert ".initial.z2" in err.value.path


def test_z1_length_checked():
    data = minimal_config("classical-flow")
    data["initial"] = {
        "z1": {"kind": "explicit", "values": [[0.1, 0.0]] * 3},
        "z2": {"kind": "zero"},
    }
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert ".initial.z1" in err.value.path


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid) as err:
        load_config(tmp_path / "nope.json")
    assert err.value.path == "$"


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    with pytest.raises(ConfigInvalid) as err:
        load_config(p)
    assert "JSON" in err.value.message


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(minimal_config()))
    cfg = load_config(p)
    assert cfg.scenario == "minimize"
    # canonical form is stable under re-serialisation of the same data
    again = load_config(p)
    assert cfg.canonical_json() == again.canonical_json()


def test_example_configs_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    found = sorted(root.glob("*.json"))
    assert len(found) == 6
    names = set()
    for path in found:
        cfg = load_config(path)
        names.add(cfg.scenario)
    assert names == set(SCENARIOS)


def initial_config(z1_values, z2):
    data = minimal_config("classical-flow")
    data["initial"] = {"z1": {"kind": "explicit", "values": z1_values},
                       "z2": z2}
    return data


def nonfinite_case(path, bad):
    """A config whose explicit list at `path` holds `bad` in entry 1."""
    finite_z1 = [[0.1, 0.0]] * 4
    if path == ".model.potential.values":
        data = minimal_config()
        data["model"]["potential"] = {"kind": "explicit",
                                      "values": [0.0, bad, 1.0, 0.0]}
    elif path == ".model.chi.values":
        data = minimal_config()
        data["model"]["chi"] = {"kind": "explicit",
                                "values": [0.0, bad, 0.0, 0.3]}
    elif path == ".initial.z1.values":
        data = initial_config([[0.1, 0.0], [0.0, bad], [0.1, 0.1],
                               [0.0, 0.0]], {"kind": "zero"})
    elif path == ".initial.z2.values":
        data = initial_config(finite_z1, {
            "kind": "explicit",
            "values": [[0.0, 0.0], [bad, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    else:  # .initial.z2.entries, with the bad value as the mode
        data = initial_config(finite_z1, {
            "kind": "modes", "entries": [[1, 0.2, 0.0], [bad, 0.1, 0.0]]})
    return data


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("path", [
    ".model.potential.values", ".model.chi.values", ".initial.z1.values",
    ".initial.z2.values", ".initial.z2.entries"])
def test_nonfinite_list_entry_rejected_at_its_path(path, bad):
    # json reads NaN and Infinity as floats, and integers of any size;
    # each explicit list rejects them at the entry that holds them
    with pytest.raises(ConfigInvalid) as err:
        parse_config(nonfinite_case(path, bad))
    assert err.value.path == f"{path}[1]"


@pytest.mark.parametrize("key", ["xi1", "xi2"])
def test_nonfinite_weyl_argument_rejected_at_its_path(key):
    data = initial_config([[0.1, 0.0]] * 4, {"kind": "zero"})
    data["scenario"] = {"name": "duhamel",
                        "xi1": [[0.1, 0.0]] * 4, "xi2": [[0.0, 0.0]] * 4}
    data["scenario"][key][2] = [0.0, float("nan")]
    with pytest.raises(ConfigInvalid) as err:
        parse_config(data)
    assert err.value.path == f".scenario.{key}[2]"
