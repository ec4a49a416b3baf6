"""One fresh benchmark process: import nelson-lab, load a config, run the
scenario through ``cli.main`` and report times.

Usage: ``python3 perfbench/worker.py SPEC_JSON``.  The spec names the mode,
the scenario, config, output directories, seed, the ``src`` directory the
package must come from, and the file the result is written to (stdout
belongs to ``cli.main``).

Modes:
  setup   import and load only, then the reference kernel; also records
          the environment
  run     setup, then the scenario twice (cold, then warm), untraced
  cold    setup, then the scenario once, untraced
  traced  setup, then the scenario once with every public function wrapped
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import (LAYERS, Tracer, bindings, layer_metrics,
                    same_bindings, span_problems)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_ROUNDS = 30
REFERENCES = 2


def _blas_threads():
    """Thread count reported by the OpenBLAS library this process loaded,
    or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def reference_kernel():
    """Seconds a fixed scipy job takes: sums of sparse Kronecker products
    of small ladder operators and small CSR matvecs, which are interpreter-
    and allocation-bound like the operator builds.  Its arrays are small,
    so its speed does not hinge on whether the kernel hands out huge pages.
    It uses no nelson_lab code, so it times the machine, not the program."""
    import numpy as np
    import scipy.sparse as sp
    ladder = sp.diags(np.sqrt(np.arange(1.0, 12.0)), 1, format="csr")
    eye = sp.identity(45, format="csr")
    n = 4000
    rows = np.repeat(np.arange(n), 8)
    cols = (rows * 7 + np.tile(np.arange(8) * 331, n)) % n
    mat = sp.csr_matrix((np.full(rows.size, 0.3 + 0.1j), (rows, cols)),
                        shape=(n, n))
    v = np.ones(n, dtype=complex)
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        acc = sp.csr_matrix((45 * 12, 45 * 12), dtype=complex)
        for j in range(6):
            acc = acc + (0.1 * j) * sp.kron(eye, ladder + ladder.T)
        for _ in range(20):
            v = mat @ v
            v /= np.linalg.norm(v)
    return time.perf_counter() - start


def _call(cli, spec, out):
    args = ["run", spec["scenario"], "--config", spec["config"],
            "--out", out, "--seed", str(spec["seed"])]
    start = time.perf_counter()
    code = cli.main(args)
    return code, time.perf_counter() - start


def main(spec):
    result = {}
    start = time.perf_counter()
    import nelson_lab
    from nelson_lab import cli, config
    imported = time.perf_counter()
    config.load_config(spec["config"])
    result["setup_s"] = time.perf_counter() - start
    result["import_s"] = imported - start
    src = Path(spec["src"]).resolve()
    if src not in Path(nelson_lab.__file__).resolve().parents:
        raise SystemExit(f"nelson_lab imported from {nelson_lab.__file__}, "
                         f"not from {src}")
    mode = spec["mode"]
    if mode == "setup":
        result["ref_s"] = [reference_kernel() for _ in range(REFERENCES)]
        result["env"] = environment()
    elif mode in ("run", "cold"):
        result["codes"], result["times"] = [], []
        for out in spec["out"][: 2 if mode == "run" else 1]:
            code, wall = _call(cli, spec, out)
            result["codes"].append(code)
            result["times"].append(wall)
    elif mode == "traced":
        tracer = Tracer(run_id=spec["run_id"])
        before = bindings(nelson_lab)
        tracer.install(nelson_lab)
        try:
            code, wall = _call(cli, spec, spec["out"][0])
        finally:
            tracer.restore()
        result["restored"] = same_bindings(before, bindings(nelson_lab))
        result["codes"], result["times"] = [code], [wall]
        metrics, breakdown = layer_metrics(tracer.spans, wall)
        metrics["cli.import_s"] = result["import_s"]
        result["metrics"], result["breakdown"] = metrics, breakdown
        result["span_problems"] = span_problems(tracer.spans, wall)
        result["unlisted_layers"] = sorted(
            set(breakdown["layer_self_s"]) - set(LAYERS))
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(Path(sys.argv[1]).read_text()))
