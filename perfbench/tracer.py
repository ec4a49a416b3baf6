"""In-memory span tracer that wraps a package's public functions from the
outside, and the per-layer metrics computed from its spans.

A function is wrapped at every module attribute that holds it, because the
package imports with ``from .x import y`` and each caller looks the name up
in its own module.  The callable passed to ``krylov.expimv`` is wrapped as
well, so matvecs get spans of their own.  ``restore`` puts every original
back.  Stdlib only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

# methods are wrapped only where named; free functions are all wrapped
METHODS = (("fock_space", "OperatorHandle", "apply"),)
MATVEC = "krylov.matvec"
# the package's modules; each gets a self-time metric
LAYERS = ("krylov", "quantum_dynamics", "fock_space", "ground_state",
          "classical_dynamics", "classical_energy", "discretization",
          "limit_harness", "scenarios", "config", "cli")


def _matvec_bytes(mat):
    """Bytes one CSR matvec moves (matrix plus complex input and output
    vectors), computed from the array sizes, ignoring caches."""
    try:
        n = mat.shape[0]
        return (mat.nnz * (mat.data.itemsize + mat.indices.itemsize)
                + (n + 1) * mat.indptr.itemsize + 2 * n * 16)
    except AttributeError:
        return None


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _annotate_ham(attr):
    def annotate(args, kwargs, result):
        mat = getattr(_arg(args, kwargs, 0, "ham"), attr, None)
        return {"matvec_bytes": _matvec_bytes(mat)}
    return annotate


def _annotate_assemble(args, kwargs, result):
    mat = getattr(result, "h_total", None)
    return {"nnz": getattr(mat, "nnz", 0), "dim": getattr(result, "dim", 0)}


def _annotate_apply(args, kwargs, result):
    handle = args[0]
    mat = handle.mat if handle.mat is not None else handle.generator
    return {"matvec_bytes": _matvec_bytes(mat)}


def _annotate_eigensolve(args, kwargs, result):
    mat = _arg(args, kwargs, 0, "matrix")
    return {"dim": int(getattr(mat, "shape", (0,))[0])}


def _annotate_minimize(args, kwargs, result):
    return {"iterations": int(getattr(result, "iterations", 0))}


ANNOTATE = {
    "quantum_dynamics.assemble": _annotate_assemble,
    "quantum_dynamics.propagate": _annotate_ham("h_total"),
    "quantum_dynamics.duhamel_check": _annotate_ham("h_total"),
    "quantum_dynamics.interaction_picture": _annotate_ham("h_free"),
    "fock_space.OperatorHandle.apply": _annotate_apply,
    "ground_state.lowest_eigenpair": _annotate_eigensolve,
    "classical_energy.minimize_constrained": _annotate_minimize,
}


def package_modules(package):
    """`package` followed by all of its submodules, imported."""
    prefix = package.__name__ + "."
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(prefix + info.name)
    return [sys.modules[n] for n in sorted(sys.modules)
            if n == package.__name__ or n.startswith(prefix)]


def bindings(package):
    """Every module attribute of `package` and every METHODS entry, keyed
    by (owner, attribute), so two snapshots can be compared by identity."""
    out = {}
    for mod in package_modules(package):
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
    for short, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(f"{package.__name__}.{short}"),
                      cls_name, None)
        if cls is not None:
            out[(f"{short}.{cls_name}", attr)] = vars(cls).get(attr)
    return out


def same_bindings(before, after):
    return before.keys() == after.keys() and all(
        after[key] is obj for key, obj in before.items())


class Tracer:
    """Records spans as [name, start, end, parent, run_id, attrs]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        """`fn` with a span named `name` around every call."""
        annotate = ANNOTATE.get(name)
        traced_matvec = name == "krylov.expimv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if traced_matvec and args:
                args = (self.wrap(MATVEC, args[0]),) + args[1:]
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if annotate is not None:
                self.spans[index][5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every public function of `package`'s modules, at every
        module attribute of the package that holds it, and the METHODS."""
        prefix = package.__name__ + "."
        modules = package_modules(package)
        names = {}
        for mod in modules[1:]:
            short = mod.__name__[len(prefix):]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(prefix + short), cls_name, None)
            if cls is not None and attr in vars(cls):
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr,
                        self.wrap(f"{short}.{cls_name}.{attr}", original))

    def restore(self):
        """Put back every attribute `install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


OUTSIDE_SHARE = 0.01


def span_problems(spans, wall):
    """What makes `spans` unfit to account for a call that took `wall`
    seconds: a span left open, one not inside its parent, children of one
    span that overlap, or more than OUTSIDE_SHARE of the wall outside any
    span (the call is itself a wrapped function, so its root span should
    cover nearly all of it)."""
    problems = []
    last_child_end = {}
    for index, (name, start, end, parent, _, _) in enumerate(spans):
        if end is None:
            problems.append(f"span {index} ({name}) was never closed")
            continue
        if end < start:
            problems.append(f"span {index} ({name}) ends before it starts")
        if parent is None:
            continue
        if not (0 <= parent < index):
            problems.append(f"span {index} ({name}) has parent {parent}")
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        if start < p_start or (p_end is not None and end > p_end):
            problems.append(f"span {index} ({name}) is not inside its "
                            f"parent {parent}")
        if start < last_child_end.get(parent, start):
            problems.append(f"span {index} ({name}) overlaps a sibling")
        last_child_end[parent] = end
    if problems:
        return problems
    outside = wall - sum(s[2] - s[1] for s in spans if s[3] is None)
    if not 0.0 <= outside <= OUTSIDE_SHARE * wall:
        problems.append(f"{outside:.3e} s of the {wall:.3e} s call is "
                        f"outside any span")
    return problems


def _self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _matvec_bytes_total(spans):
    """Computed bytes of every matvec, each charged at the matrix of its
    nearest enclosing span that names one."""
    total = 0
    for span in spans:
        if span[0] != MATVEC:
            continue
        parent = span[3]
        while parent is not None:
            attrs = spans[parent][5] or {}
            if attrs.get("matvec_bytes"):
                total += attrs["matvec_bytes"]
                break
            parent = spans[parent][3]
    return total


def layer_metrics(spans, wall):
    """Per-layer counts, inclusive and self times for one traced call that
    took `wall` seconds.  Names absent from `spans` count as zero."""
    calls, incl, own = {}, {}, {}
    layers = {}
    attrs = {}
    for span, self_s in zip(spans, _self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + span[2] - span[1]
        own[name] = own.get(name, 0.0) + self_s
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
        for key, value in (span[5] or {}).items():
            attrs.setdefault(f"{name}:{key}", []).append(value or 0)

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(incl.get(x, 0.0) for x in names)

    def top(name, key):
        return max(attrs.get(f"{name}:{key}", [0]))

    outside = wall - sum(s[2] - s[1] for s in spans if s[3] is None)
    m = {
        "krylov.expimv_calls": n("krylov.expimv"),
        "krylov.expimv_s": t("krylov.expimv"),
        "krylov.matvec_calls": n(MATVEC),
        "krylov.matvec_s": t(MATVEC),
        "krylov.overhead_s": t("krylov.expimv") - t(MATVEC),
        "quantum_dynamics.propagate_s": t("quantum_dynamics.propagate"),
        "quantum_dynamics.interaction_picture_s":
            t("quantum_dynamics.interaction_picture"),
        "quantum_dynamics.full_weyl_calls": n("quantum_dynamics.full_weyl"),
        "quantum_dynamics.full_weyl_s": t("quantum_dynamics.full_weyl"),
        "quantum_dynamics.b_operators_calls":
            n("quantum_dynamics.b_operators"),
        "quantum_dynamics.b_operators_s": t("quantum_dynamics.b_operators"),
        "quantum_dynamics.assemble_calls": n("quantum_dynamics.assemble"),
        "quantum_dynamics.assemble_s": t("quantum_dynamics.assemble"),
        "quantum_dynamics.duhamel_check_s":
            t("quantum_dynamics.duhamel_check"),
        "quantum_dynamics.h_total_nnz_max":
            top("quantum_dynamics.assemble", "nnz"),
        "quantum_dynamics.dim_max": top("quantum_dynamics.assemble", "dim"),
        "quantum_dynamics.matvec_bytes_computed": _matvec_bytes_total(spans),
        "fock_space.weyl_apply_calls": n("fock_space.OperatorHandle.apply"),
        "fock_space.weyl_apply_s": t("fock_space.OperatorHandle.apply"),
        "fock_space.weyl_generator_s": t("fock_space.weyl_generator"),
        "fock_space.interaction_halves_s": t("fock_space.interaction_halves"),
        "fock_space.basis_calls": (n("fock_space.sector_basis")
                                   + n("fock_space.truncated_basis")),
        "fock_space.basis_s": t("fock_space.sector_basis",
                                "fock_space.truncated_basis"),
        "fock_space.coherent_state_s": t("fock_space.coherent_state"),
        "ground_state.eigensolve_calls": n("ground_state.lowest_eigenpair"),
        "ground_state.eigensolve_s": t("ground_state.lowest_eigenpair"),
        "ground_state.eigensolve_dim_max":
            top("ground_state.lowest_eigenpair", "dim"),
        "ground_state.coherent_bound_s":
            t("ground_state.coherent_upper_bound"),
        "classical_dynamics.flow_s": t("classical_dynamics.flow"),
        "classical_dynamics.free_flow_calls":
            n("classical_dynamics.free_flow"),
        "classical_energy.minimize_s":
            t("classical_energy.minimize_constrained"),
        "classical_energy.minimize_iterations":
            sum(attrs.get("classical_energy.minimize_constrained:iterations",
                          [])),
        "limit_harness.sweep_s": t("limit_harness.theorem1_sweep"),
        "limit_harness.ehrenfest_s": t("limit_harness.ehrenfest_track"),
        "scenarios.run_s": t("scenarios.run_scenario"),
        "config.load_s": t("config.load_config"),
        "cli.write_s": t("cli.main") - t("scenarios.run_scenario",
                                         "config.load_config"),
        "tracer.spans": len(spans),
        "tracer.outside_s": outside,
        "tracer.wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return m, {"calls": calls, "inclusive_s": incl, "self_s": own,
               "layer_self_s": layers}
