"""Run configuration: strict JSON validation with dotted-path errors.

A config file has four blocks: "grid", "model", "initial" (optional), and
"scenario".  Field presets keep configs small; explicit per-entry values
are always possible.  Each scenario's options are declared once, with
their defaults and checks, in OPTIONS.  Anything unknown, missing, or out
of range raises ConfigInvalid carrying the dotted path of the offending
entry, at load.
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


@dataclass
class RunConfig:
    """Validated configuration ready to run: `options` holds every option
    of the scenario, checked, with the defaults of `OPTIONS` filled in."""

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


def _get(data, key, path):
    if key not in data:
        raise ConfigInvalid(f"{path}.{key}", "missing")
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
    strength = _number(data.get("strength", 1.0), ".model.potential.strength")
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
        width = _number(data.get("width", 1.0), ".initial.z1.width")
        if width <= 0:
            raise ConfigInvalid(".initial.z1.width", "must be positive")
        wavenumber = _number(data.get("wavenumber", 0.0),
                             ".initial.z1.wavenumber")
        z1 = amp * np.exp(-grid.x ** 2 / (2.0 * width ** 2)) \
            * np.exp(1j * wavenumber * grid.x)
    else:
        raise ConfigInvalid(".initial.z1.kind",
                            "must be gaussian-bump or explicit")
    normalize = data.get("normalize_charge", False)
    if not isinstance(normalize, bool):
        raise ConfigInvalid(".initial.z1.normalize_charge",
                            "must be true or false")
    if normalize:
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


# Scenario options: name -> {option: (default, check)}.  A check takes
# (value, path) and returns the value to run with; defaults pass it too.
# Options without a check are kept as given and checked, like the rules
# that span options or blocks, in `_parse_options`.


def _num(default, **checks):
    return default, lambda value, path: _number(value, path, **checks)


_REQUIRED = object()
OPTIONS = {
    "classical-flow": {"t_final": _num(2.0, lo=1e-12),
                       "n_samples": _num(41, lo=2, integer=True),
                       "dt": _num(1e-3, lo=1e-12)},
    "minimize": {"n_starts": _num(3, lo=1, integer=True),
                 "max_iter": _num(5000, lo=1, integer=True),
                 "grad_tol": _num(1e-7, lo=0.0)},
    "duhamel": {"eps": _num(0.5, lo=1e-6), "t": _num(0.5, lo=1e-12),
                "n_nodes": _num(65, lo=5, integer=True),
                "nucleon_cap": _num(8, lo=1, integer=True),
                "meson_cap": _num(10, lo=1, integer=True),
                "xi1": (_REQUIRED, None), "xi2": (_REQUIRED, None),
                "expansion_check": (False, None)},
    "theorem1": {"eps_values": _num([0.4, 0.2, 0.1, 0.05], lo=1e-6,
                                    many=True),
                 "t_values": _num([0.25, 0.5], lo=1e-12, many=True),
                 "tail_budget": _num(1e-4, lo=1e-12),
                 "classical_dt": _num(1e-3, lo=1e-12),
                 "track_eps": (None, None)},
    "theorem2": {"n_values": _num([1, 2, 3, 4, 5], lo=1, integer=True,
                                  many=True),
                 "meson_cap": _num(7, lo=0, integer=True),
                 "cap_check_shift": _num(3, lo=1, integer=True),
                 "method": ("auto", None)},
    "property-suite": {"eps": _num(0.5, lo=1e-6),
                       "nucleon_cap": _num(6, lo=1, integer=True),
                       "meson_cap": _num(8, lo=1, integer=True),
                       "n_samples": _num(200, lo=1, integer=True),
                       "delta": _num(1.0), "t": _num(1.0, lo=1e-12),
                       "xi_scale": _num(0.2, lo=1e-12),
                       "identity_cap": _num(22, lo=4, integer=True),
                       "identity_margin": _num(11, lo=1, integer=True)},
}
SCENARIOS = tuple(OPTIONS)
_NEEDS_INITIAL = ("classical-flow", "duhamel", "theorem1")


def _parse_options(name, block, grid, initial):
    table = OPTIONS[name]
    for key in block:
        if key != "name" and key not in table:
            raise ConfigInvalid(f".scenario.{key}",
                                f"unknown option (allowed: {sorted(table)})")
    opts = {}
    for key, (default, check) in table.items():
        value = block.get(key, default)
        if value is _REQUIRED:
            raise ConfigInvalid(f".scenario.{key}", "missing")
        opts[key] = check(value, f".scenario.{key}") if check else value
    t_values = opts.get("t_values", [])
    for i in range(1, len(t_values)):
        if t_values[i] <= t_values[i - 1]:
            raise ConfigInvalid(f".scenario.t_values[{i}]",
                                "must exceed the entry before it")
    if "n_nodes" in opts and (opts["n_nodes"] - 1) % 4 != 0:
        raise ConfigInvalid(".scenario.n_nodes", "must be 4k+1 with k >= 1")
    for key in ("xi1", "xi2"):  # n [re, im] pairs, kept as given
        if key in opts:
            _complex_list(opts[key], grid.n_sites, f".scenario.{key}")
    if not isinstance(opts.get("expansion_check", False), bool):
        raise ConfigInvalid(".scenario.expansion_check",
                            "must be true or false")
    if opts.get("track_eps") is not None:
        opts["track_eps"] = _number(opts["track_eps"], ".scenario.track_eps",
                                    lo=1e-6)
        if opts["track_eps"] not in opts["eps_values"]:
            raise ConfigInvalid(".scenario.track_eps",
                                "must be one of eps_values")
    if opts.get("method", "auto") not in ("auto", "dense", "lanczos"):
        raise ConfigInvalid(".scenario.method",
                            "must be auto, dense, or lanczos")
    if initial is None and name in _NEEDS_INITIAL:
        raise ConfigInvalid(".initial",
                            f"scenario {name!r} needs an initial block")
    return opts


def parse_config(data):
    """Validate a parsed JSON document into a RunConfig."""
    _expect_object(data, "$", {"grid", "model", "initial", "scenario"})
    grid = _parse_grid(_get(data, "grid", "$"))
    params = _parse_model(grid, _get(data, "model", "$"))
    initial = (_parse_initial(grid, params, data["initial"])
               if "initial" in data else None)
    scenario_block = _get(data, "scenario", "$")
    if not isinstance(scenario_block, dict):
        raise ConfigInvalid(".scenario", "must be a JSON object")
    name = _get(scenario_block, "name", ".scenario")
    if name not in SCENARIOS:
        raise ConfigInvalid(".scenario.name",
                            f"must be one of {list(SCENARIOS)}")
    options = _parse_options(name, scenario_block, grid, initial)
    return RunConfig(grid=grid, params=params, initial=initial,
                     scenario=name, options=options, raw=data)
