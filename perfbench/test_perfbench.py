"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import nelson_lab  # noqa: E402
from nelson_lab import cli  # noqa: E402
from nelson_lab.config import parse_config  # noqa: E402

from run import END_TO_END, _result_bytes  # noqa: E402
from tracer import (Tracer, bindings, layer_metrics,  # noqa: E402
                    same_bindings, span_problems)
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_config(name, tmp_path):
    w = WORKLOADS[name]
    written = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        written.append(w.write_config(7, tmp_path / sub).read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("name", ["t1-ladder", "duhamel-nodes"])
def test_seed_changes_directions_only(name):
    """Norms and supports, which fix the Fock caps and so every dim, are
    the same for every seed; the fields themselves are not."""
    w = WORKLOADS[name]
    parsed = [parse_config(w.config(seed)) for seed in range(6)]
    ref = parsed[0]
    for cfg in parsed[1:]:
        assert not np.allclose(cfg.initial.z1, ref.initial.z1)
        for field in ("z1", "z2"):
            a, b = getattr(cfg.initial, field), getattr(ref.initial, field)
            assert np.array_equal(a != 0, b != 0)
            assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b),
                                                      rel=1e-14)
        for key in ("xi1", "xi2"):
            if key in ref.options:
                a = np.array(cfg.options[key]) @ [1, 1j]
                b = np.array(ref.options[key]) @ [1, 1j]
                assert np.array_equal(a != 0, b != 0)
                assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b),
                                                          rel=1e-14)


def _small_duhamel(tmp_path):
    cfg = WORKLOADS["duhamel-nodes"].config(3)
    cfg["scenario"]["n_nodes"] = 9
    path = tmp_path / "duhamel.json"
    path.write_text(json.dumps(cfg))
    return path


def _main(config, out):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", "duhamel", "--config", str(config),
                         "--out", str(out), "--seed", "3"])


def test_traced_outputs_match_untraced(tmp_path):
    config = _small_duhamel(tmp_path)
    assert _main(config, tmp_path / "plain") == 0
    tracer = Tracer("test")
    tracer.install(nelson_lab)
    try:
        assert _main(config, tmp_path / "traced") == 0
    finally:
        tracer.restore()
    plain = _result_bytes(tmp_path / "plain")
    assert "summary.json" in plain and "contributions.csv" in plain
    assert _result_bytes(tmp_path / "traced") == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "quantum_dynamics.duhamel_check", "krylov.expimv",
            "krylov.matvec", "fock_space.OperatorHandle.apply"} <= names


def test_restore_leaves_attributes_as_found():
    before = bindings(nelson_lab)
    tracer = Tracer("test")
    tracer.install(nelson_lab)
    try:
        during = bindings(nelson_lab)
        assert not same_bindings(before, during)
        # the name each caller looks up is wrapped, not only the definition
        from nelson_lab import fock_space, krylov, quantum_dynamics
        assert quantum_dynamics.expimv is fock_space.expimv
        assert quantum_dynamics.expimv is not before[("nelson_lab.krylov",
                                                      "expimv")]
        assert krylov.expimv.__wrapped__ is before[("nelson_lab.krylov",
                                                    "expimv")]
    finally:
        tracer.restore()
    assert same_bindings(before, bindings(nelson_lab))


def test_self_times_account_for_wall():
    # [name, start, end, parent, run_id, attrs]
    spans = [["cli.main", 1.0, 5.0, None, "r", None],
             ["krylov.expimv", 1.5, 3.5, 0, "r", None],
             ["krylov.matvec", 2.0, 2.5, 1, "r", None],
             ["ground_state.lowest_eigenpair", 4.0, 4.5, 0, "r",
              {"dim": 12}]]
    m, breakdown = layer_metrics(spans, wall=4.01)
    assert m["krylov.self_s"] == pytest.approx(2.0)
    assert m["krylov.overhead_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["ground_state.eigensolve_dim_max"] == 12
    assert m["tracer.outside_s"] == pytest.approx(0.01)
    assert span_problems(spans, wall=4.01) == []


@pytest.mark.parametrize("change, wall, found", [
    ((1, 2, None), 4.01, "never closed"),
    ((2, 2, 3.6), 4.01, "not inside its parent"),
    ((3, 1, 3.0), 4.01, "overlaps a sibling"),
    ((3, 3, 7), 4.01, "has parent"),
    (None, 4.5, "outside any span"),
])
def test_span_problems_finds_broken_traces(change, wall, found):
    spans = [["cli.main", 1.0, 5.0, None, "r", None],
             ["krylov.expimv", 1.5, 3.5, 0, "r", None],
             ["krylov.matvec", 2.0, 2.5, 1, "r", None],
             ["ground_state.lowest_eigenpair", 4.0, 4.5, 0, "r", None]]
    if change is not None:
        index, field, value = change
        spans[index][field] = value
    problems = span_problems(spans, wall)
    assert len(problems) == 1 and found in problems[0]


def test_benchmark_json_lists_the_metrics_reported():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert {m["name"] for m in bench["workloads"]} <= set(WORKLOADS)
    produced, _ = layer_metrics([], wall=1.0)
    # the worker adds the import time, the runner the tracing overhead
    expected = list(produced) + ["cli.import_s", "tracer.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "duhamel-nodes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
