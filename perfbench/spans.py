"""In-memory spans around the public functions of each eitmono layer.

The tracer patches functions from outside the program: each public
function of a layer module is replaced by a wrapper everywhere it is
bound, in its own module and in every eitmono module that imported it by
name.  Each call records a span ``[name, start, end, parent, op]``.  A
span's self time is its duration minus the durations of its direct
children; the self times of one operation sum to its root span.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("geometry", "polygons", "coefficient", "quadrature", "fem",
          "ndmap", "monotonicity", "reconstruction", "cli")

# Methods that do a layer's work but are not module-level functions.
METHODS = (
    ("fem", "StiffnessSystem", "factor"),
    ("fem", "StiffnessSystem", "bordered"),
    ("ndmap", "CurrentBasis", "gram"),
    ("ndmap", "NDMatrix", "gnorm"),
    ("ndmap", "NDMatrix", "generalized_eigenvalues"),
    ("coefficient", "CoefficientField", "element_integrals"),
    ("coefficient", "CoefficientField", "validate"),
)

class Tracer:
    """Span recorder; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = {}
        self._patched = []
        self.before = {"fem.StiffnessSystem.factor": self._count_factorization}
        self.after = {
            "geometry.triangulate":
                lambda args, out: self._add("geometry.mesh_vertices",
                                            out.num_vertices),
            "geometry.pixel_family":
                lambda args, out: self._add("geometry.family_members",
                                            len(out.members)),
            "fem.assemble":
                lambda args, out: self._add("fem.dofs_assembled", out.n),
            "fem.solve_neumann": self._residual,
            "ndmap.nd_matrix":
                lambda args, out: self._max("ndmap.max_asymmetry", out.asymmetry),
            "reconstruction.reconstruct":
                lambda args, out: self._add("reconstruction.cells_judged",
                                            len(out.verdicts)),
        }

    def wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            pre = self.before.get(name)
            if pre is not None:
                pre(args)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            post = self.after.get(name)
            if post is not None:
                post(args, out)
            return out

        return traced

    def _add(self, key, value):
        per_op = self.counters.setdefault(self.op, {})
        per_op[key] = per_op.get(key, 0) + value

    def _max(self, key, value):
        per_op = self.counters.setdefault(self.op, {})
        per_op[key] = max(per_op.get(key, 0.0), float(value))

    def _count_factorization(self, args):
        if args[0]._factor is None:
            self._add("fem.factorizations", 1)

    def _residual(self, args, out):
        bnorm = float(np.linalg.norm(args[1].b))
        if bnorm > 0:
            self._max("fem.max_residual_rel", out.residual / bnorm)

    def install(self):
        """Patch every public function and the listed methods of each layer."""
        mods = {lay: importlib.import_module(f"eitmono.{lay}") for lay in LAYERS}
        for lay, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{lay}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._rebind(obj, self.wrap(name, obj))
        for lay, cls_name, meth in METHODS:
            cls = getattr(mods[lay], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{lay}.{cls_name}.{meth}", orig))

    def _rebind(self, orig, wrapper):
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "eitmono" or mname.startswith("eitmono.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def self_times(self):
        """Per-span self time, as a list parallel to ``spans``."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """One JSON span per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# Per-function self times and call counts reported as per-layer metrics:
# metric stem -> span name.
FUNCTIONS = {
    "geometry.triangulate": "geometry.triangulate",
    "geometry.validate_regions": "geometry.validate_regions",
    "geometry.pixel_family": "geometry.pixel_family",
    "polygons.points_in_polygon": "polygons.points_in_polygon",
    "polygons.points_segments_distance": "polygons.points_segments_distance",
    "coefficient.element_integrals": "coefficient.CoefficientField.element_integrals",
    "coefficient.graded_integral": "coefficient.graded_triangle_integral",
    "coefficient.bracket": "coefficient.bracket_coefficients",
    "fem.neumann_load": "fem.neumann_load",
    "fem.build_dof_map": "fem.build_dof_map",
    "fem.assemble": "fem.assemble",
    "fem.factor": "fem.StiffnessSystem.factor",
    "fem.solve": "fem.solve_neumann",
    "fem.bordered": "fem.StiffnessSystem.bordered",
    "ndmap.nd_matrix": "ndmap.nd_matrix",
    "ndmap.painted_field": "ndmap.painted_field",
    "ndmap.gram": "ndmap.CurrentBasis.gram",
    "ndmap.gnorm": "ndmap.NDMatrix.gnorm",
    "monotonicity.psd_test": "monotonicity.psd_test",
}

def span_cost(calls=20000):
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def op_metrics(tracer, op):
    """Per-layer metrics of one traced operation, all but the ``trace.*``
    timings, which need the untraced operations.  ``run.py`` prints those
    that BENCHMARK.json declares."""
    selfs = tracer.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fn_self = {}
    fn_calls = {}
    graded_s = 0.0
    graded_calls = 0
    nd_in_scan = 0
    psd_in_scan = 0
    for idx, (rec, self_t) in enumerate(zip(tracer.spans, selfs)):
        name, _, _, parent, rec_op = rec
        if rec_op != op:
            continue
        layer_self[name.split(".")[0]] += self_t
        fn_self[name] = fn_self.get(name, 0.0) + self_t
        fn_calls[name] = fn_calls.get(name, 0) + 1
        if (name.startswith("quadrature.") and parent >= 0
                and tracer.has_ancestor(idx, "coefficient.graded_triangle_integral")):
            graded_s += self_t
            if tracer.spans[parent][0] == "coefficient.graded_triangle_integral":
                graded_calls += 1
        if name in ("ndmap.nd_matrix", "monotonicity.psd_test") and \
                tracer.has_ancestor(idx, "reconstruction.reconstruct"):
            if name == "ndmap.nd_matrix":
                nd_in_scan += 1
            else:
                psd_in_scan += 1

    out = {f"{lay}.self_s": t for lay, t in layer_self.items()}
    for stem, span in FUNCTIONS.items():
        out[f"{stem}_s"] = fn_self.get(span, 0.0)
        out[f"{stem}_calls"] = fn_calls.get(span, 0)
    out["coefficient.graded_triangles"] = out.pop("coefficient.graded_integral_calls")
    out["quadrature.graded_s"] = graded_s
    out["quadrature.graded_calls"] = graded_calls
    out["fem.bordered_builds"] = out.pop("fem.bordered_calls")
    out["ndmap.gram_calls"] = fn_calls.get("ndmap.CurrentBasis.gram", 0)
    out["ndmap.gnorm_calls"] = fn_calls.get("ndmap.NDMatrix.gnorm", 0)
    out["reconstruction.reconstruct_self_s"] = \
        fn_self.get("reconstruction.reconstruct", 0.0)
    # The background map is requested once besides the psd_test calls.
    requests = psd_in_scan + 1 if "reconstruction.reconstruct" in fn_calls else 0
    out["reconstruction.paint_requests"] = requests
    out["reconstruction.paint_cache_hit_ratio"] = \
        1.0 - nd_in_scan / requests if requests else 0.0
    counters = tracer.counters.get(op, {})
    for key in ("geometry.mesh_vertices", "geometry.family_members",
                "fem.dofs_assembled", "fem.factorizations",
                "fem.max_residual_rel", "ndmap.max_asymmetry",
                "reconstruction.cells_judged"):
        out[key] = counters.get(key, 0)
    out["trace.spans"] = sum(fn_calls.values())
    return out
