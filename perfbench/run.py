"""nelson-lab benchmark: both classical limits, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload t1-ladder --seed 1 --seconds 60

The config for the workload is generated from the seed (``workloads.py``)
and the matching scenario runs through ``nelson_lab.cli.main`` in fresh
processes (``worker.py``) with the package imported from ``src/``.  Every
operation (one scenario call) is checked; a failed one counts in
``failed`` and contributes no time.

``--trace 0`` measures the end-to-end metrics:
  setup_s      import nelson_lab + load_config in a fresh process
  wall_ref     the first cli.main call in a worker process (cold), in
               reference times
  warm_ref     the same call again in that process, into a fresh
               directory, in reference times
  peak_rss_mb  ru_maxrss of that process after both calls (median)
The reference time is that of a fixed scipy kernel that uses no nelson_lab
code (``worker.reference_kernel``), run twice in each set-up-only process.
A run starts half of SETUP_PROBES such processes, then worker processes
(set-up, cold call, warm call) while the next one and the other half of
the set-up processes are expected to finish within ``--seconds`` (at least
one worker always runs), then cold-only workers (set-up, cold call) while
they fit, then the other half of the set-up processes.

On a shared 2-vCPU VM other tenants slow a process down by up to 75% for
seconds to minutes at a time and never speed it up.  So every time is the
fastest of its samples in the run, and the call times are divided by the
fastest reference time of the same run, which moves with the machine over
those minutes.  The call times in seconds (``wall_s``, ``warm_s``) and
the reference time (``ref_s``) are printed to stderr and kept in the run
record.

``--trace 1`` runs the scenario once untraced and once with every public
function of the package wrapped (``tracer.py``), each in a fresh process,
and reports the per-layer metrics and the tracing overhead; ``--seconds``
does not apply.

The last line of stdout is the JSON result; a readable report goes to
stderr, and the configs, outputs, spans and a run record stay under
``.perfbench-work/`` in the checkout.  BLAS and OpenMP are pinned to one
thread in the workers, which narrows the run-to-run spread on a small
shared machine.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

THREADS = "1"
SETUP_PROBES = 6
HARD_LIMIT_S = 165.0
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "warm_ref": "ref",
              "peak_rss_mb": "MB"}
SECONDS = {"wall_s": "s", "warm_s": "s", "ref_s": "s"}
RESULT_FILES = ("summary.json", "*.csv")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_computed"):
        return "B"
    return "count"


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _result_bytes(out_dir):
    """The program's deterministic outputs (not the manifest, which holds
    the wall time), by file name."""
    out = Path(out_dir)
    return {p.name: p.read_bytes()
            for pattern in RESULT_FILES for p in sorted(out.glob(pattern))}


class Run:
    """One benchmark run: worker processes, checks and the run record."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{trace}"
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: THREADS for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.record = {"workload": workload.name, "seed": seed,
                       "seconds": seconds, "trace": trace, "workers": [],
                       "loadavg_before": _loadavg()}

    def elapsed(self):
        return time.monotonic() - self.started

    def worker(self, mode, n_out=0):
        """Start one fresh worker process, wait for it, return its result
        (None when the process failed)."""
        index = len(self.record["workers"])
        spec = {"mode": mode, "scenario": self.workload.scenario,
                "config": str(self.config), "seed": self.seed,
                "src": str(SRC), "run_id": f"{self.dir.name}-{index}",
                "out": [str(self.dir / f"out-{index}-{k}")
                        for k in range(n_out)],
                "result": str(self.dir / f"result-{index}.json"),
                "spans": str(self.dir / f"spans-{index}.json")}
        spec_path = self.dir / f"spec-{index}.json"
        spec_path.write_text(json.dumps(spec, indent=1))
        entry = {"index": index, "mode": mode}
        self.record["workers"].append(entry)
        begun = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=self.dir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            entry["error"] = "timed out"
            return None
        finally:
            entry["duration_s"] = time.monotonic() - begun
        entry["exit_code"] = proc.returncode
        if proc.returncode != 0:
            entry["error"] = proc.stderr[-2000:]
            return None
        result = json.loads(Path(spec["result"]).read_text())
        result["out"] = spec["out"]
        entry.update({k: v for k, v in result.items()
                      if k not in ("metrics", "breakdown")})
        return result

    def lost(self, n_ops):
        """Count the operations of the worker that just failed."""
        self.attempted += n_ops
        self.failed += n_ops
        self.problems.append(f"worker failed: {self.record['workers'][-1]}")

    def operation(self, code, out_dir, reference=None):
        """Check one scenario call; True when it succeeded."""
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            found, sizes = self.workload.check(out_dir)
            problems += found
            self.record.setdefault("sizes", sizes)
            if sizes != self.record["sizes"]:
                problems.append(f"sizes {sizes} differ within the run")
            if reference is not None and \
                    _result_bytes(out_dir) != _result_bytes(reference):
                problems.append(f"{out_dir} differs from {reference}")
        if problems:
            self.failed += 1
            self.problems += [f"{out_dir}: {p}" for p in problems]
        return not problems

    def prepare(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config = self.workload.write_config(self.seed, self.dir)
        # unmeasured: compiles bytecode and fills the page cache
        warm_up = self.worker("setup")
        if warm_up is None:
            raise SystemExit("worker could not import nelson_lab from "
                             f"{SRC}: {self.record['workers'][-1]}")
        self.record["env"] = warm_up["env"]

    def measure(self):
        """End-to-end metrics over the processes of this run."""
        samples = {name: [] for name in
                   ("setup_s", "ref_s", "wall_s", "warm_s", "peak_rss_mb")}

        def fits(last):
            return self.elapsed() + last <= min(self.seconds, HARD_LIMIT_S)

        def probe():
            begun = time.monotonic()
            result = self.worker("setup")
            if result is None:
                self.problems.append(
                    f"set-up process failed: {self.record['workers'][-1]}")
            else:
                samples["setup_s"].append(result["setup_s"])
                samples["ref_s"] += result["ref_s"]
            return time.monotonic() - begun

        first = SETUP_PROBES // 2
        reserve = (SETUP_PROBES - first) * max(probe() for _ in range(first))
        run_s = cold_s = None  # durations of the last workers of each kind
        while True:
            if run_s is None or fits(run_s + reserve):
                mode = "run"
            elif fits(cold_s + reserve):
                mode = "cold"
            else:
                break
            begun = time.monotonic()
            result = self.worker(mode, n_out=2 if mode == "run" else 1)
            took = time.monotonic() - begun
            if result is None:
                self.lost(2 if mode == "run" else 1)
                run_s = run_s or took
                cold_s = cold_s or took
                continue
            cold, codes = result["out"][0], result["codes"]
            if mode == "run":
                run_s = took
                cold_s = took - result["times"][1]
            cold_ok = self.operation(codes[0], cold)
            if cold_ok:
                samples["wall_s"].append(result["times"][0])
            if mode == "cold":
                continue
            warm_ok = self.operation(codes[1], result["out"][1],
                                     reference=cold if cold_ok else None)
            if cold_ok and warm_ok:
                samples["warm_s"].append(result["times"][1])
                samples["peak_rss_mb"].append(result["peak_rss_mb"])
        for _ in range(SETUP_PROBES - first):
            probe()
        self.record["samples"] = samples
        if not all(samples.values()):
            return {}
        fastest = {name: min(values) for name, values in samples.items()}
        return {"setup_s": fastest["setup_s"],
                "wall_ref": fastest["wall_s"] / fastest["ref_s"],
                "warm_ref": fastest["warm_s"] / fastest["ref_s"],
                "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
                **{name: fastest[name] for name in SECONDS}}

    def measure_traced(self):
        """Per-layer metrics from one traced call, and the tracing
        overhead against one untraced call."""
        plain = self.worker("cold", n_out=1)
        if plain is None:
            self.lost(1)
        traced = self.worker("traced", n_out=1)
        if traced is None:
            self.lost(1)
            return {}
        plain_ok = plain is not None and self.operation(
            plain["codes"][0], plain["out"][0])
        traced_ok = self.operation(
            traced["codes"][0], traced["out"][0],
            reference=plain["out"][0] if plain_ok else None)
        metrics = traced["metrics"]
        if not traced["restored"]:
            self.problems.append("tracer left module attributes changed")
        self.problems += [f"trace: {p}" for p in traced["span_problems"]]
        if traced["unlisted_layers"]:
            self.problems.append(f"spans in modules without a self-time "
                                 f"metric: {traced['unlisted_layers']}")
        self.record["breakdown"] = traced["breakdown"]
        if not (plain_ok and traced_ok):
            return {}
        metrics["tracer.overhead_s"] = (metrics["tracer.wall_s"]
                                        - plain["times"][0])
        return metrics


def _report(run, metrics):
    out = sys.stderr
    print(f"# {run.workload.name} seed={run.seed} trace={run.trace} "
          f"in {run.elapsed():.1f} s, {len(run.record['workers'])} processes",
          file=out)
    print(f"# env {json.dumps(run.record.get('env'))}", file=out)
    print(f"# loadavg {run.record['loadavg_before']} -> "
          f"{run.record['loadavg_after']}", file=out)
    print(f"# sizes {json.dumps(run.record.get('sizes'))}", file=out)
    samples = run.record.get("samples", {})
    for name, value in metrics.items():
        n = (f"  ({'median' if name == 'peak_rss_mb' else 'fastest'} of "
             f"{len(samples[name])})") if name in samples else ""
        print(f"{name:42s} {value:>16.6g} {_unit_of(run, name)}{n}",
              file=out)
    print(f"{'attempted':42s} {run.attempted:>16d}", file=out)
    print(f"{'failed':42s} {run.failed:>16d}", file=out)
    breakdown = run.record.get("breakdown")
    if breakdown:
        wall = metrics.get("tracer.wall_s") or 1.0
        print("# self time by layer (share of traced wall)", file=out)
        for layer, s in sorted(breakdown["layer_self_s"].items(),
                               key=lambda kv: -kv[1]):
            print(f"  {layer:24s} {s:10.4f} s {100 * s / wall:6.1f}%",
                  file=out)
        print("# largest self times by span", file=out)
        for name, s in sorted(breakdown["self_s"].items(),
                              key=lambda kv: -kv[1])[:10]:
            print(f"  {name:44s} {s:10.4f} s "
                  f"{breakdown['calls'][name]:8d} calls", file=out)
    for problem in run.problems:
        print(f"! {problem}", file=out)


def _unit_of(run, name):
    return {**END_TO_END, **SECONDS}[name] if run.trace == 0 \
        else _unit(name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nelson_lab" / "__init__.py").is_file():
        print(f"no nelson_lab package under {SRC}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    run.prepare()
    metrics = run.measure_traced() if args.trace else run.measure()
    run.record["loadavg_after"] = _loadavg()
    run.record.update(metrics=metrics, attempted=run.attempted,
                      failed=run.failed, problems=run.problems)
    (run.dir / "run.json").write_text(json.dumps(run.record, indent=1))
    _report(run, metrics)
    if not metrics:
        print("nothing was measured", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": _unit_of(run, name)}
                    for name, value in metrics.items()
                    if name not in SECONDS},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
