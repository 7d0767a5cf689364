"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions of every twistcheck module, plus
a fixed list of class methods, without editing ``src/``.  A wrapped
function is patched at every binding that refers to it: module globals of
every twistcheck module (``floer`` binds ``cut_along`` through
``from .surface import``) and the values of module-level dicts (``cli``
dispatches through ``_VERB_RUNNERS``, ``scenarios`` through ``BUILDERS``).
Calls through module aliases (``sf.cut_along``) see the patched module
attribute.  Methods are patched on their class.  ``restore`` puts every
original back.

Each span is recorded as (item id, span id, parent span id, name, start,
end).  Self time is computed after the item ends, from the nested spans
that share its item id: a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "fileformat", "scenarios", "surface", "gf2", "floer",
          "pipeline", "report", "modelgeo")

# Public leaf helpers called so often (hundreds of thousands of times per
# item on les-twist) that a span around each would cost more than the work
# it measures.  Their time is counted in the self time of their caller.
UNTRACED = {
    "gf2": {"gf2", "zeros", "eye", "matmul"},
    "surface": {"parse_symbol"},
}

# (module, class, attribute, span name): the methods the per-layer metrics
# name.  __init__ spans are named after the class, other methods after the
# layer and the method.  Both cochain_complex methods share one name; the
# block complex's span nests the per-component ones, so self times add up.
METHODS = (
    ("surface", "Surface", "__init__", "surface.Surface"),
    ("surface", "Surface", "refined", "surface.refined"),
    ("surface", "Curve", "is_contractible", "surface.is_contractible"),
    ("surface", "CutComponent", "cochain_complex", "surface.cochain_complex"),
    ("surface", "CutResult", "cochain_complex", "surface.cochain_complex"),
    ("gf2", "ChainComplex", "homology_data", "gf2.homology_data"),
    ("gf2", "ChainComplex", "validate", "gf2.validate"),
)

# Work counted where it happens: span name -> size(args, kwargs, result).
MODEL_VERIFIERS = ("verify_model_twist", "verify_lemma_identities",
                   "verify_handle_symmetry", "verify_suspension_symmetry",
                   "verify_involution_splitting")
SIZES = {
    "gf2.rref": lambda a, k, r: a[0].shape[0] * a[0].shape[1],
    "surface.Surface": lambda a, k, r: 2 * a[0].n_edges,
    **{f"modelgeo.{v}": (lambda a, k, r: r.samples)
       for v in MODEL_VERIFIERS},
}


class Tracer:
    """Collects spans per item and folds them into per-name totals."""

    def __init__(self):
        self.item = None
        self.spans = []
        self.stack = []
        # name -> [calls, self seconds, size, inclusive seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0, 0.0])
        self.covered_s = 0.0
        self.item_wall_s = 0.0

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (self.item, sid, parent, name, t0, t1)
        size = SIZES.get(name)
        if size is not None:
            self.totals[name][2] += size(args, kwargs, result)
        return result

    def begin_item(self, item_id):
        self.item = item_id
        self.spans = []
        self.stack = []

    def end_item(self, wall_s):
        """Fold the item's spans into the totals and its coverage."""
        for name, (calls, self_s, incl_s) in self_times(self.spans).items():
            tot = self.totals[name]
            tot[0] += calls
            tot[1] += self_s
            tot[3] += incl_s
        self.covered_s += sum(t1 - t0 for _, _, parent, _, t0, t1
                              in self.spans if parent == -1)
        self.item_wall_s += wall_s
        self.spans = []


def self_times(spans):
    """name -> (calls, self seconds, inclusive seconds) from nested spans.

    A span's self time is its duration minus the durations of its direct
    children, where a child is a span of the same item whose parent id is
    the span's id.  Spans nest strictly within one item, so the children
    never overlap each other.
    """
    child_s = defaultdict(float)
    for item, _, parent, _, t0, t1 in spans:
        if parent >= 0:
            child_s[item, parent] += t1 - t0
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for item, sid, _, name, t0, t1 in spans:
        acc = out[name]
        acc[0] += 1
        acc[1] += (t1 - t0) - child_s[item, sid]
        acc[2] += t1 - t0
    return {name: tuple(acc) for name, acc in out.items()}


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    traced.__traced_original__ = fn
    return traced


def _modules():
    return {name: sys.modules[f"twistcheck.{name}"] for name in LAYERS}


def targets():
    """(layer, function) for every traced public module-level function."""
    out = []
    for layer, mod in _modules().items():
        skip = UNTRACED.get(layer, set())
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in skip):
                out.append((layer, obj))
    return out


def install(tracer):
    """Patch every binding of every traced function; return an undo log."""
    mods = [mod for name, mod in list(sys.modules.items())
            if name == "twistcheck" or name.startswith("twistcheck.")]
    undo = []
    for layer, fn in targets():
        wrapped = _wrapper(tracer, f"{layer}.{fn.__name__}", fn)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod.__dict__, key, fn))
                    mod.__dict__[key] = wrapped
                elif type(value) is dict:
                    for dkey, dval in value.items():
                        if dval is fn:
                            undo.append((value, dkey, fn))
                            value[dkey] = wrapped
    layers = _modules()
    for layer, cls_name, attr, span in METHODS:
        cls = getattr(layers[layer], cls_name)
        fn = cls.__dict__[attr]
        setattr(cls, attr, _wrapper(tracer, span, fn))
        undo.append((cls, attr, fn))
    return undo


def restore(undo):
    """Undo install(): put every original binding back."""
    for where, key, fn in reversed(undo):
        if isinstance(where, dict):
            where[key] = fn
        else:
            setattr(where, key, fn)
