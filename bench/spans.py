"""Spans and counters recorded from outside radialsolve.

``Tracer.install`` replaces each layer's public entry points with wrappers,
in every radialsolve module namespace that holds them (a name imported with
``from ... import`` is a separate binding in each importing module).
A wrapper records a span only while an op span is open, so reference
checks run between ops stay out of the trace.

Spans are kept in flat arrays and written out once, at the end of the run.
``eval_effective`` runs about a million times per states run, so it gets
no span: its calls and its time are added to the innermost open span.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# entry points that get a span, by layer; each layer is the radialsolve
# module of the same name
SPANNED = {
    "turning_points": ("turning_points", "solve_turning_points"),
    "spectrum": ("self_consistent_energy",),
    "quadrature": ("adaptive_integral", "phase_Q", "area_S"),
    "wavefunctions": ("build_bound_state", "normalize", "sample_wavefunction"),
    "oracles": ("numerov_bound_state", "bessel_zero"),
    "report": ("reproduce_table", "render", "render_samples"),
}
# entry points that are only counted
COUNTED = (("turning_points", "quartic_positive_roots"),)

OP = 0  # name id of the root span of every op


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.layers = [None]
        self.name_id: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.u_calls = array("i")
        self.u_time = array("d")
        self.stack: list[int] = []
        self.op_index = -1
        self.counts: dict[str, int] = {}
        self.iterations = 0
        self.samples = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name: int, fn, args, kwargs):
        """fn(*args, **kwargs) under a new span that is a child of the open one."""
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_index)
        self.ok.append(0)
        self.u_calls.append(0)
        self.u_time.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
            self.ok[idx] = 1
            return result
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def run_op(self, fn, op):
        """Run one op under a root span; returns fn(op)."""
        self.op_index += 1
        return self._call(OP, fn, (op,), {})

    def _spanned(self, fn, name: int, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            result = tracer._call(name, fn, args, kwargs)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts
        stack = self.stack
        counts[key] = 0

        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _potential(self, fn):
        stack, u_calls, u_time = self.stack, self.u_calls, self.u_time

        def eval_effective(U, r):
            if not stack:
                return fn(U, r)
            t0 = perf_counter()
            value = fn(U, r)
            dt = perf_counter() - t0
            top = stack[-1]
            u_calls[top] += 1
            u_time[top] += dt
            return value

        return eval_effective

    def _count_iterations(self, level):
        self.iterations += level.iterations

    def _count_samples(self, samples):
        self.samples += len(samples)

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every entry point; returns the ones radialsolve lacks."""
        import radialsolve.cli  # noqa: F401  (its namespace gets wrapped too)

        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        missing: list[str] = []

        def wrap(module: str, func: str, make) -> None:
            original = getattr(sys.modules.get(f"radialsolve.{module}"), func, None)
            if original is None:
                missing.append(f"{module}.{func}")
            else:
                wrappers[id(original)] = make(original)

        hooks = {"self_consistent_energy": self._count_iterations, "sample_wavefunction": self._count_samples}
        wrap("potentials", "eval_effective", self._potential)
        for layer, funcs in SPANNED.items():
            for func in funcs:
                wrap(layer, func, lambda fn: self._spanned(fn, self._intern(func, layer), hooks.get(func)))
        for module, func in COUNTED:
            wrap(module, func, lambda fn: self._counted(fn, func))
        for name, mod in list(sys.modules.items()):
            if name != "radialsolve" and not name.startswith("radialsolve."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _intern(self, func: str, layer: str) -> int:
        self.names.append(f"{layer}.{func}")
        self.layers.append(layer)
        self.name_id[func] = len(self.names) - 1
        return self.name_id[func]

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped TSV, times in ms from the first span."""
        t_base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\top\tstart_ms\tend_ms\tok\tu_calls\tu_ms\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{(self.start[i] - t_base) * 1e3:.4f}\t{(self.end[i] - t_base) * 1e3:.4f}\t"
                    f"{self.ok[i]}\t{self.u_calls[i]}\t{self.u_time[i] * 1e3:.5f}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, each per op unless its name says otherwise."""
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        layer_of = self.layers
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        fid = self.name_id
        tp, sce, ai = fid.get("turning_points"), fid.get("self_consistent_energy"), fid.get("adaptive_integral")
        self_time: dict[str, float] = {}
        calls = [0] * len(self.names)
        ok_calls = [0] * len(self.names)
        dur_by_name = [0.0] * len(self.names)
        u_by_name = [0] * len(self.names)
        under_sce = array("b", bytes(n))
        ai_depth = array("H", bytes(2 * n))
        width_evals = 0
        max_depth = 0
        for i in range(n):
            k = name[i]
            dur = end[i] - start[i]
            calls[k] += 1
            ok_calls[k] += self.ok[i]
            dur_by_name[k] += dur
            u_by_name[k] += self.u_calls[i]
            layer = layer_of[k]
            if layer is not None:
                self_time[layer] = self_time.get(layer, 0.0) + dur - child[i] - self.u_time[i]
            p = parent[i]
            if p >= 0:
                under_sce[i] = under_sce[p] or name[p] == sce
                ai_depth[i] = ai_depth[p]
            if k == ai:
                ai_depth[i] += 1
                max_depth = max(max_depth, ai_depth[i])
            if k == tp and under_sce[i]:
                width_evals += 1
        ops = max(calls[OP], 1)

        def per_op(x):
            return x / ops

        def of(values, func):
            """The total of ``values`` over the spans of ``func``."""
            return values[fid[func]] if func in fid else 0

        solves = of(calls, "self_consistent_energy")
        tp_calls = of(calls, "turning_points")
        eigen = of(calls, "numerov_bound_state")
        return {
            "potentials.eval_calls": per_op(sum(self.u_calls)),
            "potentials.self_ms": per_op(sum(self.u_time)) * 1e3,
            "turning_points.calls": per_op(tp_calls),
            "turning_points.self_ms": per_op(self_time.get("turning_points", 0.0)) * 1e3,
            "turning_points.quartic_calls": per_op(self.counts.get("quartic_positive_roots", 0)),
            # no attempts means no wasted attempts
            "turning_points.useful_ratio": of(ok_calls, "turning_points") / tp_calls if tp_calls else 1.0,
            "spectrum.solves": per_op(solves),
            "spectrum.iterations": self.iterations / solves if solves else 0.0,
            "spectrum.width_evals": width_evals / solves if solves else 0.0,
            "spectrum.self_ms": per_op(self_time.get("spectrum", 0.0)) * 1e3,
            "quadrature.integrals": per_op(of(calls, "adaptive_integral")),
            "quadrature.phase_calls": per_op(of(calls, "phase_Q")),
            "quadrature.u_evals": per_op(of(u_by_name, "adaptive_integral")),
            "quadrature.max_depth": float(max_depth),
            "quadrature.self_ms": per_op(self_time.get("quadrature", 0.0)) * 1e3,
            "wavefunctions.samples": per_op(self.samples),
            "wavefunctions.normalize_ms": per_op(of(dur_by_name, "normalize")) * 1e3,
            "wavefunctions.self_ms": per_op(self_time.get("wavefunctions", 0.0)) * 1e3,
            "oracles.eigen_ms": of(dur_by_name, "numerov_bound_state") / eigen * 1e3 if eigen else 0.0,
            "oracles.u_evals": per_op(of(u_by_name, "numerov_bound_state")),
            "oracles.self_ms": per_op(self_time.get("oracles", 0.0)) * 1e3,
            "report.self_ms": per_op(self_time.get("report", 0.0)) * 1e3,
        }
