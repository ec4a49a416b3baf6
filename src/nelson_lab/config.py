"""Run configuration: strict JSON validation with dotted-path errors.

A config file has four blocks: "grid", "model", "initial" (optional), and
"scenario".  Every block is declared once, as a table {key: (default,
check)}; where an entry picks the shape of its block (a "kind", or the
scenario's "name"), there is one table per choice.  One reader, `_read`,
rejects unknown and missing keys, applies each check and fills in the
defaults; the rules that span keys or blocks follow it as plain code.
Field presets keep configs small; explicit per-entry values are always
possible.  Anything unknown, missing, or out of range raises
ConfigInvalid carrying the dotted path of the offending entry, at load.
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


def _finite(value):
    """A JSON number that is a finite float: not NaN or +-Infinity, which
    json accepts, nor an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(value, path, lo=None, integer=False, positive=False):
    """A finite number, at least lo, positive, or an integer if asked."""
    if not _finite(value):
        raise ConfigInvalid(path, "must be a finite number")
    if integer and int(value) != value:
        raise ConfigInvalid(path, "must be an integer")
    if lo is not None and value < lo:
        raise ConfigInvalid(path, f"must be >= {lo}")
    if positive and value <= 0:
        raise ConfigInvalid(path, "must be positive")
    return int(value) if integer else float(value)


def _reals(value, path, n):
    """n finite numbers, each entry checked at its own path."""
    if not isinstance(value, list) or len(value) != n:
        raise ConfigInvalid(path, f"must be {n} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _complexes(value, path, n):
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


def _mode_entries(value, path, n):
    """The mode field set by [mode, re, im] entries, zero elsewhere."""
    if not isinstance(value, list):
        raise ConfigInvalid(path, "must be a list")
    out = np.zeros(n, dtype=complex)
    for i, entry in enumerate(value):
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(_finite(v) for v in entry)):
            raise ConfigInvalid(f"{path}[{i}]",
                                "must be [mode, re, im] of finite numbers")
        m = int(entry[0])
        if entry[0] != m or not 0 <= m < n:
            raise ConfigInvalid(f"{path}[{i}]",
                                f"mode must be an integer in [0, {n})")
        if m in [e[0] for e in value[:i]]:
            raise ConfigInvalid(f"{path}[{i}]", f"mode {m} is set twice")
        out[m] = entry[1] + 1j * entry[2]
    return out


def _flag(value, path, n):
    """A JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigInvalid(path, "must be true or false")
    return value


_REQUIRED = object()  # the default of a key that must be given


def _num(default=_REQUIRED, **checks):
    """An entry holding one number (see `_number`)."""
    return default, lambda value, path, n: _number(value, path, **checks)


def _ladder(default, step, **checks):
    """An entry holding a nonempty list of numbers (see `_number`) that
    rises (step 1) or falls (step -1) strictly from entry to entry."""
    def check(value, path, n):
        if not isinstance(value, list) or not value:
            raise ConfigInvalid(path, "must be a nonempty list of numbers")
        ladder = [_number(v, f"{path}[{i}]", **checks)
                  for i, v in enumerate(value)]
        side = "above" if step > 0 else "below"
        for i in range(1, len(ladder)):
            if step * (ladder[i] - ladder[i - 1]) <= 0:
                raise ConfigInvalid(f"{path}[{i}]",
                                    f"must be {side} the entry before it")
        return ladder
    return default, check


def _block(tables, pick=None):
    """An entry holding a required sub-block, read by `_read`."""
    return _REQUIRED, (lambda value, path, n:
                       _read(value, path, tables, n, pick))


def _read(data, path, table, n=None, pick=None):
    """The JSON object `data` at `path`, read against `table`, {key:
    (default, check)}: a dict with every key of the table, the defaults
    filled in, and each value, defaults included, replaced by check(value,
    path, n), n being the number of grid sites (an entry without a check
    is kept as given).  With `pick`, `table` maps each allowed value of
    the entry `pick` to the table of the other keys.  An unknown or
    missing key raises ConfigInvalid at its dotted path."""
    if not isinstance(data, dict):
        raise ConfigInvalid(path, "must be a JSON object")
    if pick is not None:
        if pick not in data:
            raise ConfigInvalid(f"{path}.{pick}", "missing")
        if data[pick] not in list(table):
            raise ConfigInvalid(f"{path}.{pick}",
                                f"must be one of {list(table)}")
        table = {pick: (None, None), **table[data[pick]]}
    for key in data:
        if key not in table:
            raise ConfigInvalid(f"{path}.{key}",
                                f"unknown key (allowed: {sorted(table)})")
    out = {}
    for key, (default, check) in table.items():
        value = data.get(key, default)
        if value is _REQUIRED:
            raise ConfigInvalid(f"{path}.{key}", "missing")
        out[key] = check(value, f"{path}.{key}", n) if check else value
    return out


# The blocks.  Where an entry picks the shape of its block, a dict maps
# each allowed value of that entry to the table of the block's other keys.
_GRID = {"n_sites": _num(lo=2, integer=True), "half_length": _num()}
_POTENTIAL = {"zero": {}, "harmonic": {"strength": _num(1.0)},
              "quartic": {"strength": _num(1.0)},
              "explicit": {"values": (_REQUIRED, _reals)}}
_CHI = {"zero": {}, "explicit": {"values": (_REQUIRED, _reals)},
        "sharp-band": {"amplitude": _num(), "k_lo": _num(lo=0.0),
                       "k_hi": _num()},
        "gaussian": {"amplitude": _num(), "width": _num(positive=True)}}
_MODEL = {"mass": _num(), "meson_mass": _num(lo=0.0), "charge": _num(),
          "potential": _block(_POTENTIAL, pick="kind"),
          "chi": _block(_CHI, pick="kind")}
_Z1 = {"gaussian-bump": {"amplitude": _num(),
                         "width": _num(1.0, positive=True),
                         "wavenumber": _num(0.0),
                         "normalize_charge": (False, _flag)},
       "explicit": {"values": (_REQUIRED, _complexes),
                    "normalize_charge": (False, _flag)}}
_Z2 = {"zero": {}, "eliminated": {},
       "explicit": {"values": (_REQUIRED, _complexes)},
       "modes": {"entries": (_REQUIRED, _mode_entries)}}
_INITIAL = {"z1": _block(_Z1, pick="kind"), "z2": _block(_Z2, pick="kind")}
_CONFIG = {"grid": (_REQUIRED, None), "model": (_REQUIRED, None),
           "initial": (None, None), "scenario": (_REQUIRED, None)}
# Scenario options, picked by the scenario's name.
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
                "xi1": (_REQUIRED, _complexes), "xi2": (_REQUIRED, _complexes),
                "expansion_check": (False, _flag)},
    "theorem1": {"eps_values": _ladder([0.4, 0.2, 0.1, 0.05], -1, lo=1e-6),
                 "t_values": _ladder([0.25, 0.5], 1, lo=1e-12),
                 "tail_budget": _num(1e-4, lo=1e-12),
                 "classical_dt": _num(1e-3, lo=1e-12),
                 "track_eps": (None, None)},
    "theorem2": {"n_values": _ladder([1, 2, 3, 4, 5], 1, lo=1, integer=True),
                 "meson_cap": _num(7, lo=0, integer=True),
                 "cap_check_shift": _num(3, lo=1, integer=True)},
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

# kind -> chi(grid, **keys of the kind)
_CHI_SAMPLES = {"zero": lambda grid: np.zeros(grid.n_sites),
                "explicit": lambda grid, values: values,
                "sharp-band": chi_sharp_band, "gaussian": chi_gaussian}


def _model(grid, model):
    """ModelParams from a read model block."""
    potential, chi = model.pop("potential"), model.pop("chi")
    if potential["kind"] == "explicit":
        potential = potential["values"]
    else:
        potential = potential_preset(grid, **potential)
    kind = chi.pop("kind")
    if kind == "sharp-band" and chi["k_hi"] < chi["k_lo"]:
        raise ConfigInvalid(".model.chi.k_hi", f"must be >= {chi['k_lo']}")
    try:
        return ModelParams(potential=potential,
                           chi=_CHI_SAMPLES[kind](grid, **chi), **model)
    except ValueError as exc:
        raise ConfigInvalid(".model", str(exc))


def _initial(grid, params, initial):
    """FieldState from a read initial block."""
    z1, z2 = initial["z1"], initial["z2"]
    if z1["kind"] == "explicit":
        field = z1["values"]
    else:
        field = z1["amplitude"] \
            * np.exp(-grid.x ** 2 / (2.0 * z1["width"] ** 2)) \
            * np.exp(1j * z1["wavenumber"] * grid.x)
    if z1["normalize_charge"]:
        nrm = grid.norm_x(field)
        if nrm == 0:
            raise ConfigInvalid(".initial.z1", "cannot normalise a zero field")
        field = field * (params.charge / nrm)
    if z2["kind"] == "zero":
        meson = np.zeros(grid.n_sites, dtype=complex)
    elif z2["kind"] == "eliminated":
        meson = eliminate_meson(grid, params, field)
    elif z2["kind"] == "explicit":
        meson = z2["values"]
    else:
        meson = z2["entries"]
    return FieldState(field, meson)


def _check_options(name, opts, initial):
    """The rules of a scenario's options that span keys or blocks."""
    if "n_nodes" in opts and (opts["n_nodes"] - 1) % 4 != 0:
        raise ConfigInvalid(".scenario.n_nodes", "must be 4k+1 with k >= 1")
    if opts.get("track_eps") is not None:
        opts["track_eps"] = _number(opts["track_eps"], ".scenario.track_eps",
                                    lo=1e-6)
        if opts["track_eps"] not in opts["eps_values"]:
            raise ConfigInvalid(".scenario.track_eps",
                                "must be one of eps_values")
    if initial is None and name in _NEEDS_INITIAL:
        raise ConfigInvalid(".initial",
                            f"scenario {name!r} needs an initial block")


def parse_config(data):
    """Validate a parsed JSON document into a RunConfig."""
    blocks = _read(data, "$", _CONFIG)
    try:
        grid = Grid(**_read(blocks["grid"], ".grid", _GRID))
    except ValueError as exc:
        raise ConfigInvalid(".grid", str(exc))
    n = grid.n_sites
    params = _model(grid, _read(blocks["model"], ".model", _MODEL, n))
    initial = (_initial(grid, params,
                        _read(blocks["initial"], ".initial", _INITIAL, n))
               if "initial" in data else None)
    options = _read(blocks["scenario"], ".scenario", OPTIONS, n, pick="name")
    name = options.pop("name")
    _check_options(name, options, initial)
    return RunConfig(grid=grid, params=params, initial=initial,
                     scenario=name, options=options, raw=data)
