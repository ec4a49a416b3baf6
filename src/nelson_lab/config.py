"""Run configuration: strict JSON validation with dotted-path errors.

A config file has four blocks: "grid", "model", "initial" (optional), and
"scenario".  Field presets keep configs small; explicit per-entry values
are always possible.  Anything unknown, missing, or out of range raises
ConfigInvalid carrying the dotted path of the offending entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .classical_dynamics import FieldState
from .classical_energy import eliminate_meson
from .discretization import (Grid, ModelParams, chi_gaussian, chi_sharp_band,
                             potential_preset)
from .errors import ConfigInvalid

SCENARIOS = ("classical-flow", "minimize", "duhamel", "theorem1", "theorem2",
             "property-suite")


@dataclass
class RunConfig:
    """Validated configuration ready to run."""

    grid: Grid
    params: ModelParams
    initial: FieldState | None
    scenario: str
    options: dict
    raw: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def load_config(path):
    """Read and parse a config file into a RunConfig."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigInvalid("$", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("$", f"not valid JSON: {exc}")
    return parse_config(data)


def _expect_object(data, path, allowed):
    if not isinstance(data, dict):
        raise ConfigInvalid(path, "must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ConfigInvalid(f"{path}.{key}",
                                f"unknown key (allowed: {sorted(allowed)})")


def _get(data, key, path, required=True, default=None):
    if key not in data:
        if required:
            raise ConfigInvalid(f"{path}.{key}", "missing")
        return default
    return data[key]


def _finite(value):
    """A JSON number that is a finite float: not NaN or +-Infinity, which
    json accepts, nor an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, path, lo=None, hi=None, integer=False, many=False):
    """A finite number in [lo, hi], an integer if asked; with `many`, a
    nonempty list of them, each entry checked at its own path."""
    if many:
        if not isinstance(value, list) or not value:
            raise ConfigInvalid(path, "must be a nonempty list of numbers")
        return [_number(v, f"{path}[{i}]", lo, hi, integer)
                for i, v in enumerate(value)]
    if not _finite(value):
        raise ConfigInvalid(path, "must be a finite number")
    if integer and int(value) != value:
        raise ConfigInvalid(path, "must be an integer")
    if lo is not None and value < lo:
        raise ConfigInvalid(path, f"must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigInvalid(path, f"must be <= {hi}")
    return int(value) if integer else float(value)


def scenario_option(options, key, default, **checks):
    """Scenario option `key` (`default` when absent), checked by
    `_number` under the path .scenario.<key>."""
    return _number(options.get(key, default), f".scenario.{key}", **checks)


def _real_list(value, n, path):
    """n finite numbers, each entry checked at its own path."""
    if not isinstance(value, list) or len(value) != n:
        raise ConfigInvalid(path, f"must be {n} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _complex_list(value, n, path):
    """n complex numbers from [re, im] pairs of finite numbers, each entry
    checked at its own path."""
    if not isinstance(value, list) or len(value) != n:
        raise ConfigInvalid(path, f"must be a list of {n} [re, im] pairs")
    out = np.zeros(n, dtype=complex)
    for i, pair in enumerate(value):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_finite(v) for v in pair)):
            raise ConfigInvalid(f"{path}[{i}]",
                                "must be an [re, im] pair of finite numbers")
        out[i] = pair[0] + 1j * pair[1]
    return out


def _parse_grid(data):
    _expect_object(data, ".grid", {"n_sites", "half_length"})
    n = _number(_get(data, "n_sites", ".grid"), ".grid.n_sites",
                lo=2, integer=True)
    half = _number(_get(data, "half_length", ".grid"), ".grid.half_length")
    try:
        return Grid(n, half)
    except ValueError as exc:
        raise ConfigInvalid(".grid", str(exc))


def _parse_potential(grid, data):
    _expect_object(data, ".model.potential", {"kind", "strength", "values"})
    kind = _get(data, "kind", ".model.potential")
    if kind == "explicit":
        return _real_list(_get(data, "values", ".model.potential"),
                          grid.n_sites, ".model.potential.values")
    strength = _number(_get(data, "strength", ".model.potential",
                            required=False, default=1.0),
                       ".model.potential.strength")
    try:
        return potential_preset(grid, kind, strength)
    except ValueError as exc:
        raise ConfigInvalid(".model.potential.kind", str(exc))


def _parse_chi(grid, data):
    _expect_object(data, ".model.chi",
                   {"kind", "amplitude", "k_lo", "k_hi", "width", "values"})
    kind = _get(data, "kind", ".model.chi")
    if kind == "zero":
        return np.zeros(grid.n_sites)
    if kind == "explicit":
        return _real_list(_get(data, "values", ".model.chi"),
                          grid.n_sites, ".model.chi.values")
    amp = _number(_get(data, "amplitude", ".model.chi"),
                  ".model.chi.amplitude")
    if kind == "sharp-band":
        k_lo = _number(_get(data, "k_lo", ".model.chi"), ".model.chi.k_lo",
                       lo=0.0)
        k_hi = _number(_get(data, "k_hi", ".model.chi"), ".model.chi.k_hi",
                       lo=k_lo)
        return chi_sharp_band(grid, amp, k_lo, k_hi)
    if kind == "gaussian":
        width = _number(_get(data, "width", ".model.chi"),
                        ".model.chi.width")
        if width <= 0:
            raise ConfigInvalid(".model.chi.width", "must be positive")
        return chi_gaussian(grid, amp, width)
    raise ConfigInvalid(".model.chi.kind",
                        "must be one of zero, explicit, sharp-band, gaussian")


def _parse_model(grid, data):
    _expect_object(data, ".model",
                   {"mass", "meson_mass", "charge", "potential", "chi"})
    mass = _number(_get(data, "mass", ".model"), ".model.mass")
    meson_mass = _number(_get(data, "meson_mass", ".model"),
                         ".model.meson_mass", lo=0.0)
    charge = _number(_get(data, "charge", ".model"), ".model.charge")
    potential = _parse_potential(grid, _get(data, "potential", ".model"))
    chi = _parse_chi(grid, _get(data, "chi", ".model"))
    try:
        return ModelParams(mass=mass, meson_mass=meson_mass, charge=charge,
                           potential=potential, chi=chi)
    except ValueError as exc:
        raise ConfigInvalid(".model", str(exc))


def _parse_z1(grid, params, data):
    _expect_object(data, ".initial.z1",
                   {"kind", "amplitude", "width", "wavenumber", "values",
                    "normalize_charge"})
    kind = _get(data, "kind", ".initial.z1")
    if kind == "explicit":
        z1 = _complex_list(_get(data, "values", ".initial.z1"),
                           grid.n_sites, ".initial.z1.values")
    elif kind == "gaussian-bump":
        amp = _number(_get(data, "amplitude", ".initial.z1"),
                      ".initial.z1.amplitude")
        width = _number(_get(data, "width", ".initial.z1", required=False,
                             default=1.0), ".initial.z1.width")
        if width <= 0:
            raise ConfigInvalid(".initial.z1.width", "must be positive")
        wavenumber = _number(_get(data, "wavenumber", ".initial.z1",
                                  required=False, default=0.0),
                             ".initial.z1.wavenumber")
        z1 = amp * np.exp(-grid.x ** 2 / (2.0 * width ** 2)) \
            * np.exp(1j * wavenumber * grid.x)
    else:
        raise ConfigInvalid(".initial.z1.kind",
                            "must be gaussian-bump or explicit")
    if _get(data, "normalize_charge", ".initial.z1", required=False,
            default=False):
        nrm = grid.norm_x(z1)
        if nrm == 0:
            raise ConfigInvalid(".initial.z1", "cannot normalise a zero field")
        z1 = z1 * (params.charge / nrm)
    return z1


def _parse_z2(grid, params, z1, data):
    _expect_object(data, ".initial.z2", {"kind", "values", "entries"})
    kind = _get(data, "kind", ".initial.z2")
    if kind == "zero":
        return np.zeros(grid.n_sites, dtype=complex)
    if kind == "eliminated":
        return eliminate_meson(grid, params, z1)
    if kind == "explicit":
        return _complex_list(_get(data, "values", ".initial.z2"),
                             grid.n_sites, ".initial.z2.values")
    if kind == "modes":
        entries = _get(data, "entries", ".initial.z2")
        if not isinstance(entries, list):
            raise ConfigInvalid(".initial.z2.entries", "must be a list")
        z2 = np.zeros(grid.n_sites, dtype=complex)
        for i, entry in enumerate(entries):
            if (not isinstance(entry, list) or len(entry) != 3
                    or not all(_finite(v) for v in entry)):
                raise ConfigInvalid(f".initial.z2.entries[{i}]",
                                    "must be [mode, re, im] of finite numbers")
            m = int(entry[0])
            if entry[0] != m or not 0 <= m < grid.n_sites:
                raise ConfigInvalid(f".initial.z2.entries[{i}]",
                                    f"mode must be an integer in "
                                    f"[0, {grid.n_sites})")
            z2[m] = entry[1] + 1j * entry[2]
        return z2
    raise ConfigInvalid(".initial.z2.kind",
                        "must be zero, eliminated, explicit, or modes")


def _parse_initial(grid, params, data):
    _expect_object(data, ".initial", {"z1", "z2"})
    z1 = _parse_z1(grid, params, _get(data, "z1", ".initial"))
    z2 = _parse_z2(grid, params, z1, _get(data, "z2", ".initial"))
    return FieldState(z1, z2)


def parse_config(data):
    """Validate a parsed JSON document into a RunConfig."""
    _expect_object(data, "$", {"grid", "model", "initial", "scenario"})
    grid = _parse_grid(_get(data, "grid", "$"))
    params = _parse_model(grid, _get(data, "model", "$"))
    initial = None
    if "initial" in data:
        initial = _parse_initial(grid, params, data["initial"])
    scenario_block = _get(data, "scenario", "$")
    if not isinstance(scenario_block, dict):
        raise ConfigInvalid(".scenario", "must be a JSON object")
    name = _get(scenario_block, "name", ".scenario")
    if name not in SCENARIOS:
        raise ConfigInvalid(".scenario.name",
                            f"must be one of {list(SCENARIOS)}")
    options = {k: v for k, v in scenario_block.items() if k != "name"}
    return RunConfig(grid=grid, params=params, initial=initial,
                     scenario=name, options=options, raw=data)
