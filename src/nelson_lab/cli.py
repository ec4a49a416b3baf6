"""Command-line runner: validate configs, run scenarios, write artifacts.

Exit codes: 0 success, 2 invalid configuration or usage, 3 runtime
failure.  For a fixed config and seed the JSON and CSV outputs are
byte-identical across runs; timing lives only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import SCENARIOS, load_config
from .errors import ConfigInvalid, NelsonLabError
from .scenarios import run_scenario


def _seed_type(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer: {text!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned "
                                         "64-bit integer")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nelson-lab",
        description="numerical laboratory for a nucleon-meson field model")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument("scenario", choices=SCENARIOS)
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", default="nelson-lab-out",
                       help="output directory (default: nelson-lab-out)")
    run_p.add_argument("--seed", type=_seed_type, default=0,
                       help="unsigned 64-bit seed (default: 0)")
    val_p = sub.add_parser("validate", help="check a config and exit")
    val_p.add_argument("--config", required=True, help="path to a JSON config")
    return parser


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_outputs(out_dir, cfg, seed, summary, tables, wall_time):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    summary = dict(summary)
    summary["seed"] = seed
    payload = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode()
    (out / "summary.json").write_bytes(payload)
    files["summary.json"] = _sha256(payload)
    for name, (fieldnames, rows) in sorted(tables.items()):
        path = out / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        files[path.name] = _sha256(path.read_bytes())
    manifest = {
        "tool": "nelson-lab",
        "version": __version__,
        "scenario": cfg.scenario,
        "seed": seed,
        "config_sha256": _sha256(cfg.canonical_json().encode()),
        "files": files,
        "wall_time_s": round(wall_time, 6),
    }
    (out / "manifest.json").write_bytes(
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())
    return [str(out / "summary.json")] \
        + [str(out / f"{n}.csv") for n in sorted(tables)] \
        + [str(out / "manifest.json")]


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigInvalid as exc:
        print(f"config error at {exc.path}: {exc.message}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {args.config} is a valid {cfg.scenario!r} config")
        return 0
    if cfg.scenario != args.scenario:
        print(f"config error at .scenario.name: config is for "
              f"{cfg.scenario!r}, not {args.scenario!r}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        summary, tables = run_scenario(cfg, args.seed)
    except NelsonLabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    wall_time = time.monotonic() - started
    written = _write_outputs(args.out, cfg, args.seed, summary, tables,
                             wall_time)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
