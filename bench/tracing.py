"""Span tracer for the per-layer metrics, applied from outside the program.

``Tracer.install`` replaces each traced public function of grade3 with a
wrapper under every module name that holds it (``liealg.ad_image`` is also
``semigroup.ad_image``, ``verify.ad_image`` and ``grade3.ad_image``), so a
call is seen whichever module makes it. Spans are kept in memory as
(name, start, end, parent) and written out by ``dump``. Self time is a
span's duration minus the durations of its direct child spans.

A wrapper records only while ``active`` is true, so the benchmark's own
reference checks are not counted. ``uninstall`` restores every original,
so an untraced run executes no wrapper at all.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter_ns

import grade3
from grade3 import catalog, cli, cones, liealg, modular, numkit, roots, semigroup, verify

MODULES = (grade3, numkit, liealg, cones, semigroup, roots, modular, catalog, verify, cli)

# (module, function) pairs traced by name; the metric is "<module>.<function>".
FUNCTIONS = (
    (numkit, "expm"), (numkit, "logm_principal"), (numkit, "solve_lstsq"),
    (numkit, "eigvals_clustered"), (numkit, "loewner_leq"),
    (liealg, "grade_by"), (liealg, "ad_image"), (liealg, "adjoint"), (liealg, "sharp"),
    (cones, "invariance_check"),
    (semigroup, "member_ShC"), (semigroup, "member_decomposed"),
    (semigroup, "triangular_factor"), (semigroup, "polar_factor"), (semigroup, "member_P"),
    (roots, "root_decomposition"), (roots, "c_max"), (roots, "find_adapted_x0"),
    (modular, "modular_pair"), (modular, "standard_from_pair"),
    (modular, "graph_projection"), (modular, "log_monotone_check"),
    (catalog, "get_entry"), (cli, "main"), (cli, "render_json"),
)
CONE_KINDS = ("polyhedral", "sl2_lorentz", "light_cone", "nonneg_poly", "custom")
SUITES = ("grading", "cones", "semigroup", "modular", "roots")


def layer_names() -> list[str]:
    """Every traced layer name, in reporting order."""
    names = [f"{m.__name__.rsplit('.', 1)[-1]}.{f}" for m, f in FUNCTIONS]
    names += ["liealg.LieAlgebraSpec", "liealg.GroupElement.exp"]
    names += [f"cones.violation.{k}" for k in CONE_KINDS]
    names += [f"verify.run_suite.{s}" for s in SUITES]
    return names


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")        # flattened (name id, start ns, end ns, parent)
        self._stack: list[list[int]] = []   # open spans: [index, child ns, name id]
        self.stats = {name: [0, 0, 0] for name in layer_names()}
        self.render_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, args, kwargs):
        """Run fn inside a span; a direct recursive call joins its parent."""
        if not self.active:
            return fn(*args, **kwargs)
        nid = self._id(name)
        stack = self._stack
        if stack and stack[-1][2] == nid:
            return fn(*args, **kwargs)
        index = len(self.spans) // 4
        parent = stack[-1][0] if stack else -1
        self.spans.extend((nid, 0, 0, parent))
        frame = [index, 0, nid]
        stack.append(frame)
        failed = 1
        start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            failed = 0
            return out
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            self.spans[4 * index + 1] = start
            self.spans[4 * index + 2] = end
            st = self.stats.setdefault(name, [0, 0, 0])
            st[0] += 1
            st[1] += dur - frame[1]
            st[2] += failed
            if stack:
                stack[-1][1] += dur
            if not failed and name == "cli.render_json":
                self.render_bytes += len(out.encode())

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name_of(args, kwargs), fn, args, kwargs)
        return wrapper

    def install(self):
        for module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(fn, lambda a, k, name=name: name)
            for holder in MODULES:
                if holder.__dict__.get(attr) is fn:
                    self._patch(holder, attr, wrapper)

        run_suite = verify.run_suite
        wrapper = self._wrap(run_suite, lambda a, k: "verify.run_suite."
                             + (a[0] if a else k["suite"]))
        for holder in MODULES:
            if holder.__dict__.get("run_suite") is run_suite:
                self._patch(holder, "run_suite", wrapper)

        spec = liealg.LieAlgebraSpec
        self._patch(spec, "__init__", self._wrap(
            spec.__init__, lambda a, k: "liealg.LieAlgebraSpec"))
        group = liealg.GroupElement
        exp = group.__dict__["exp"].__func__
        self._patch(group, "exp", classmethod(self._wrap(
            exp, lambda a, k: "liealg.GroupElement.exp")))
        cone = cones.Cone
        self._patch(cone, "violation", self._wrap(
            cone.violation, lambda a, k: "cones.violation." + a[0].kind))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for name in layer_names():
            calls, self_ns, failed = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
            out[f"{name}.failed"] = (failed, "count")
        out["cli.render_json.bytes"] = (self.render_bytes, "bytes")
        return out

    def dump(self, path):
        """Write the recorded spans as JSON: a name table and one
        [name id, start ns, end ns, parent index] row per span."""
        spans = self.spans
        rows = [spans[i:i + 4].tolist() for i in range(0, len(spans), 4)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)
