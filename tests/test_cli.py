"""Command line interface: exit codes, output files, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nelson_lab
from nelson_lab import config
from nelson_lab.cli import main

MINIMIZE_CFG = {
    "grid": {"n_sites": 8, "half_length": 3.141592653589793},
    "model": {
        "mass": 1.0, "meson_mass": 1.0, "charge": 1.0,
        "potential": {"kind": "harmonic", "strength": 0.5},
        "chi": {"kind": "sharp-band", "amplitude": 0.5,
                "k_lo": 1.0, "k_hi": 1.0},
    },
    "scenario": {"name": "minimize", "n_starts": 2},
}

DUHAMEL_CFG = {
    "grid": {"n_sites": 2, "half_length": 1.5707963267948966},
    "model": {
        "mass": 1.0, "meson_mass": 1.0, "charge": 1.0,
        "potential": {"kind": "harmonic", "strength": 1.0},
        "chi": {"kind": "sharp-band", "amplitude": 0.3,
                "k_lo": 2.0, "k_hi": 2.0},
    },
    "initial": {
        "z1": {"kind": "explicit", "values": [[0.05, 0.02], [-0.03, 0.01]]},
        "z2": {"kind": "modes", "entries": [[1, 0.08, -0.03]]},
    },
    "scenario": {"name": "duhamel", "eps": 0.5, "t": 0.25, "n_nodes": 17,
                 "nucleon_cap": 6, "meson_cap": 8,
                 "xi1": [[0.3, 0.1], [-0.2, 0.05]],
                 "xi2": [[0.0, 0.0], [0.25, -0.2]]},
}


THEOREM1_CFG = {
    "grid": DUHAMEL_CFG["grid"],
    "model": DUHAMEL_CFG["model"],
    "initial": DUHAMEL_CFG["initial"],
    "scenario": {"name": "theorem1", "eps_values": [0.4, 0.2],
                 "t_values": [0.25, 0.5], "track_eps": 0.2},
}

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.json"))


THEOREM2_CFG = {
    "grid": {"n_sites": 4, "half_length": 3.141592653589793},
    "model": MINIMIZE_CFG["model"],
    "scenario": {"name": "theorem2", "n_values": [1, 2, 3], "meson_cap": 5},
}


# scipy subpackages that take most of scipy's import time and that no
# scenario needs
UNUSED_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
                "scipy.interpolate", "scipy.sparse.linalg")


def child_env():
    """Environment for a child python process that imports the same
    nelson_lab as the tests, also when only pytest's own path finds it."""
    src = str(Path(nelson_lab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_validate_ok(tmp_path, capsys):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    assert main(["validate", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "minimize" in out


def test_validate_bad_config(tmp_path, capsys):
    data = json.loads(json.dumps(MINIMIZE_CFG))
    data["grid"]["n_sites"] = 3
    p = write_cfg(tmp_path, data)
    assert main(["validate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "config error at .grid" in err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    out = tmp_path / "out"
    assert main(["run", "minimize", "--config", str(p),
                 "--out", str(out), "--seed", "0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "minimize"
    assert summary["seed"] == 0
    assert summary["converged"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "minimize"
    assert manifest["seed"] == 0
    assert "wall_time_s" in manifest
    for name, digest in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    assert (out / "minimizer_z1.csv").exists()
    assert (out / "start_energies.csv").exists()


def test_run_scenario_mismatch(tmp_path, capsys):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    assert main(["run", "theorem2", "--config", str(p),
                 "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_runtime_failure(tmp_path, capsys):
    data = json.loads(json.dumps(MINIMIZE_CFG))
    data["scenario"]["max_iter"] = 2
    p = write_cfg(tmp_path, data)
    assert main(["run", "minimize", "--config", str(p),
                 "--out", str(tmp_path / "x")]) == 3
    assert "run failed" in capsys.readouterr().err


def test_run_with_no_fitting_cap_fails_typed(tmp_path, capsys):
    # at eps 1e-6 the coherent nucleon occupation of the shipped theorem1
    # start is about 6.6e4, past every cap occupation_cap tries
    shipped = json.loads((CONFIGS[0].parent / "theorem1.json").read_text())
    p = write_cfg(tmp_path, edited(shipped, eps_values=[1e-6],
                                   track_eps=1e-6))
    assert main(["run", "theorem1", "--config", str(p),
                 "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: no occupation cap up to 10000 ")
    assert not (tmp_path / "x").exists()


def run_child(argv, churn=False, timeout=60):
    """`cli.main(argv)` in a fresh python process; with `churn`, the
    process first allocates and frees about 65 MB of NaN-filled arrays of
    several sizes, so that its heap holds other free memory than a plain
    process's."""
    script = ("import sys\n"
              "import numpy as np\n"
              "if sys.argv[1] == 'churn':\n"
              "    junk = [np.full(1 << b, np.nan) for _ in range(3)\n"
              "            for b in (10, 13, 16, 19, 21)]\n"
              "    del junk\n"
              "from nelson_lab import cli\n"
              "sys.exit(cli.main(sys.argv[2:]))\n")
    return subprocess.run(
        [sys.executable, "-c", script, "churn" if churn else "plain",
         *argv], capture_output=True, text=True, env=child_env(),
        timeout=timeout)


@pytest.mark.parametrize("cfg, table", [
    (DUHAMEL_CFG, "contributions.csv"),
    (THEOREM1_CFG, "char_errors.csv"),
    (THEOREM2_CFG, "sector_energies.csv"),
], ids=["duhamel", "theorem1", "theorem2"])
def test_outputs_do_not_depend_on_the_process(tmp_path, cfg, table):
    # two fresh processes, one with a churned heap: the same bytes, so no
    # output reads memory it did not write or state left by earlier calls
    p = write_cfg(tmp_path, cfg)
    scenario = cfg["scenario"]["name"]
    outs = [tmp_path / "plain", tmp_path / "churn"]
    for out in outs:
        proc = run_child(["run", scenario, "--config", str(p),
                          "--out", str(out), "--seed", "7"],
                         churn=out.name == "churn")
        assert proc.returncode == 0, proc.stderr
    names = sorted(f.name for f in outs[0].iterdir()
                   if f.name != "manifest.json")
    assert "summary.json" in names and table in names
    assert names == sorted(f.name for f in outs[1].iterdir()
                           if f.name != "manifest.json")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("scenario, changes", [
    ("theorem1", {"scenario": {"eps_values": [1e-3], "track_eps": 1e-3}}),
    ("theorem1", {"scenario": {"eps_values": [2e-3], "track_eps": 2e-3}}),
    ("theorem2", {"grid": {"n_sites": 64},
                  "scenario": {"n_values": [1], "meson_cap": 1}})],
    ids=["nucleon-cap-100", "product-space", "64-sites"])
def test_basis_too_large_fails_fast(tmp_path, scenario, changes):
    # eps = 1e-3 asks for a nucleon cap of 100 on 4 sites, 4598126 rows;
    # eps = 2e-3 for 557845 nucleon and 325 meson rows, each under the row
    # guard, but 1.8e8 product states, 2.9 GB a complex vector; 64 sites
    # give occupation keys beyond int64 already at one nucleon
    data = json.loads((CONFIGS[0].parent / f"{scenario}.json").read_text())
    for block, entries in changes.items():
        data[block].update(entries)
    p = write_cfg(tmp_path, data)
    proc = run_child(["run", scenario, "--config", str(p),
                      "--out", str(tmp_path / "x")], timeout=20)
    assert proc.returncode == 3
    assert proc.stderr.startswith("run failed: ")
    assert not (tmp_path / "x").exists()


def test_bad_seed_rejected(tmp_path):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["run", "minimize", "--config", str(p), "--seed", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "minimize", "--config", str(p),
              "--seed", str(2 ** 64)])
    assert exc.value.code == 2


def test_seed_accepts_u64_extremes(tmp_path):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    out = tmp_path / "big"
    assert main(["run", "minimize", "--config", str(p), "--out", str(out),
                 "--seed", str(2 ** 64 - 1)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("cfg, table", [
    (DUHAMEL_CFG, "contributions.csv"),
    (THEOREM1_CFG, "char_errors.csv"),
    (THEOREM2_CFG, "sector_energies.csv"),
], ids=["duhamel", "theorem1", "theorem2"])
def test_reruns_are_byte_identical(tmp_path, cfg, table):
    p = write_cfg(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", cfg["scenario"]["name"], "--config", str(p),
                     "--out", str(out), "--seed", "42"]) == 0
    names = sorted(p.name for p in out_a.iterdir()
                   if p.name != "manifest.json")
    assert table in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb


@pytest.mark.parametrize("entry", ["2.5", "NaN", "Infinity"])
def test_bad_n_values_entry_exits_2(tmp_path, capsys, entry):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(THEOREM2_CFG).replace(
        '"n_values": [1, 2, 3]', f'"n_values": [1, {entry}]'))
    assert main(["run", "theorem2", "--config", str(p),
                 "--out", str(tmp_path / "out")]) == 2
    assert ".scenario.n_values[1]" in capsys.readouterr().err


@pytest.mark.parametrize("t_values", [[0.25, 0.25], [0.5, 0.25]])
def test_unordered_t_values_exit_2(tmp_path, capsys, t_values):
    data = json.loads(json.dumps(THEOREM1_CFG))
    data["scenario"]["t_values"] = t_values
    p = write_cfg(tmp_path, data)
    assert main(["run", "theorem1", "--config", str(p),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error at .scenario.t_values[1]" in capsys.readouterr().err


@pytest.mark.parametrize("n_nodes", [6, 10])
def test_duhamel_nodes_off_4k_plus_1_exit_2(tmp_path, capsys, n_nodes):
    data = json.loads(json.dumps(DUHAMEL_CFG))
    data["scenario"]["n_nodes"] = n_nodes
    p = write_cfg(tmp_path, data)
    assert main(["run", "duhamel", "--config", str(p),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error at .scenario.n_nodes" in capsys.readouterr().err


def test_off_ladder_track_eps_exits_2(tmp_path, capsys):
    data = json.loads(json.dumps(THEOREM1_CFG))
    data["scenario"]["track_eps"] = 0.3
    p = write_cfg(tmp_path, data)
    assert main(["run", "theorem1", "--config", str(p),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error at .scenario.track_eps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def edited(base, drop=(), z1=None, z2=None, chi=None, **options):
    """A copy of `base` without the top-level blocks in `drop`, with the
    entries of `z1` and `z2` set in its initial z1 and z2 blocks, those of
    `chi` in its model chi block, and `options` set in its scenario block;
    an option set to None is removed."""
    data = json.loads(json.dumps(base))
    for block in drop:
        del data[block]
    if z1:
        data["initial"]["z1"].update(z1)
    if z2:
        data["initial"]["z2"].update(z2)
    if chi:
        data["model"]["chi"].update(chi)
    for key, value in options.items():
        if value is None:
            del data["scenario"][key]
        else:
            data["scenario"][key] = value
    return data


REJECTED_AT_LOAD = {
    "theorem1-unknown-option": (edited(THEOREM1_CFG, eps_valuez=[0.4]),
                                ".scenario.eps_valuez"),
    "theorem1-negative-eps": (edited(THEOREM1_CFG, eps_values=[-1]),
                              ".scenario.eps_values[0]"),
    "theorem1-decreasing-t": (edited(THEOREM1_CFG, t_values=[0.5, 0.25]),
                              ".scenario.t_values[1]"),
    "theorem1-off-ladder-track-eps": (edited(THEOREM1_CFG, track_eps=0.3),
                                      ".scenario.track_eps"),
    "duhamel-no-initial": (edited(DUHAMEL_CFG, drop=["initial"]),
                           ".initial"),
    "duhamel-no-xi1": (edited(DUHAMEL_CFG, xi1=None), ".scenario.xi1"),
    "duhamel-expansion-check-no": (edited(DUHAMEL_CFG, expansion_check="no"),
                                   ".scenario.expansion_check"),
    "duhamel-expansion-check-1": (edited(DUHAMEL_CFG, expansion_check=1),
                                  ".scenario.expansion_check"),
    "theorem2-method-qr": (edited(THEOREM2_CFG, method="qr"),
                           ".scenario.method"),
    "duhamel-normalize-charge-no": (
        edited(DUHAMEL_CFG, z1={"normalize_charge": "no"}),
        ".initial.z1.normalize_charge"),
    "duhamel-normalize-charge-1": (
        edited(DUHAMEL_CFG, z1={"normalize_charge": 1}),
        ".initial.z1.normalize_charge"),
    "theorem1-rising-eps": (edited(THEOREM1_CFG, eps_values=[0.2, 0.4]),
                            ".scenario.eps_values[1]"),
    "theorem2-falling-n": (edited(THEOREM2_CFG, n_values=[3, 2]),
                           ".scenario.n_values[1]"),
    "sharp-band-chi-width": (edited(MINIMIZE_CFG, chi={"width": 1.0}),
                             ".model.chi.width"),
    "theorem1-repeated-z2-mode": (
        edited(THEOREM1_CFG,
               z2={"entries": [[1, 0.1, -0.05], [1, 0.0, 0.07]]}),
        ".initial.z2.entries[1]"),
}


@pytest.mark.parametrize("data, path", REJECTED_AT_LOAD.values(),
                         ids=list(REJECTED_AT_LOAD))
def test_validate_rejects_what_run_rejects(tmp_path, capsys, data, path):
    p = write_cfg(tmp_path, data)
    assert main(["validate", "--config", str(p)]) == 2
    validate_err = capsys.readouterr().err
    assert validate_err.startswith(f"config error at {path}: ")
    assert main(["run", data["scenario"]["name"], "--config", str(p),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == validate_err
    assert not (tmp_path / "out").exists()


class ReadKeys(dict):
    """A dict that records in `.read` the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_configs_run(tmp_path, capsys, monkeypatch, path):
    scenario = json.loads(path.read_text())["scenario"]["name"]
    parse, parsed = config.parse_config, []

    def recording_parse(data):
        cfg = parse(data)
        cfg.options = ReadKeys(cfg.options)
        parsed.append(cfg)
        return cfg

    monkeypatch.setattr(config, "parse_config", recording_parse)
    assert main(["run", scenario, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    # the run reads every option the scenario declares: none is dead
    (cfg,) = parsed
    assert cfg.options.read == set(config.OPTIONS[scenario])
    written = capsys.readouterr().out.split()
    assert written[0].endswith("summary.json")
    assert written[-1].endswith("manifest.json")
    manifest = json.loads(Path(written[-1]).read_text())
    assert sorted(Path(w).name for w in written[:-1]) \
        == sorted(manifest["files"])
    for name in written:
        assert Path(name).stat().st_size > 0


def test_manifest_records_config_hash(tmp_path):
    p = write_cfg(tmp_path, DUHAMEL_CFG)
    out = tmp_path / "out"
    assert main(["run", "duhamel", "--config", str(p),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # reordering keys in the file must not change the recorded hash
    shuffled = {k: DUHAMEL_CFG[k] for k in reversed(list(DUHAMEL_CFG))}
    p2 = write_cfg(tmp_path, shuffled, "cfg2.json")
    out2 = tmp_path / "out2"
    assert main(["run", "duhamel", "--config", str(p2),
                 "--out", str(out2)]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config_sha256"] == manifest2["config_sha256"]


def test_summary_json_is_sorted_and_plain(tmp_path):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    out = tmp_path / "out"
    assert main(["run", "minimize", "--config", str(p),
                 "--out", str(out)]) == 0
    text = (out / "summary.json").read_text()
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


def test_console_entry_point(tmp_path):
    p = write_cfg(tmp_path, MINIMIZE_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "nelson_lab.cli", "validate",
         "--config", str(p)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_run_leaves_unused_scipy_unimported(tmp_path):
    p = write_cfg(tmp_path, THEOREM1_CFG)
    script = ("import sys\n"
              "from nelson_lab import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(code, *sorted(sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "theorem1", "--config", str(p),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "scipy.sparse" in modules
    loaded = [m for m in modules
              if any(m == name or m.startswith(name + ".")
                     for name in UNUSED_SCIPY)]
    assert loaded == []


def test_help_lists_scenarios(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("classical-flow", "minimize", "duhamel", "theorem1",
                 "theorem2", "property-suite"):
        assert name in out
