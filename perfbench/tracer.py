"""Span tracer for the traced benchmark run.

Tracing is installed from outside the library: :func:`install` replaces
each layer's public functions at every ``pseudodet`` module that holds
them, and the class methods named in ``METHODS``, with wrappers that
record one span per call.  Nothing under ``src/`` changes.

A span is (name, start, end, parent).  Spans are appended to flat arrays
(22 bytes a span) and written out once the run ends, so a pass with a few
million calls stays in memory.  A span's self time is its duration minus
the durations of its direct children; the calls are single-threaded and
properly nested, so children never overlap.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("rings", "elements", "multisets", "pseudochar", "verify", "cli")

#: Class methods to trace, by module.  ``__rmul__``/``__radd__`` are class
#: aliases of ``__mul__``/``__add__`` and get the same span name.
METHODS = {
    "rings": {
        "Poly": ("__mul__", "__rmul__", "__add__", "__radd__", "render"),
        "Ring": ("dot", "render"),
        "ModRing": ("dot", "render"),
        "PolyRing": ("dot", "render"),
    },
    "elements": {
        "Matrix": ("__mul__", "trace", "render"),
        "Word": ("__mul__", "render"),
        "GroupAlgebraElement": ("render",),
    },
    "multisets": {
        "Multiset": ("render",),
        "FormalSum": ("render",),
    },
    "pseudochar": {
        "CentralFunction": ("__call__",),
        "CharPoly": ("render",),
        "CheckReport": ("render",),
    },
    "verify": {
        "SuiteReport": ("to_dict", "text_lines"),
    },
}

_ALIASES = {"__rmul__": "__mul__", "__radd__": "__add__"}

ORACLES = ("verify.leibniz_det", "verify.char_poly_leibniz")
PRODUCTS = ("multisets.multiset_product", "multisets.formal_product")


class Tracer:
    """Records spans and the few argument-derived counts the metrics need."""

    def __init__(self):
        self.names = []                  # name id -> span name
        self._ids = {}
        self.name = array.array("H")     # per span: name id
        self.parent = array.array("i")   # per span: parent span, -1 at root
        self.start = array.array("q")    # per span: perf_counter_ns
        self.end = array.array("q")
        self.stack = [-1]
        # argument-derived counts, gathered after the call returns
        self.pair_products = 0           # sum of n*m over multiset term pairs
        self.peak_terms = 0
        self.enumerated = {}             # (n, m) -> bijections enumerated
        self.rendered_bytes = 0          # bytes returned by FormalSum.render
        self.f_span = array.array("i")   # per f call: its span
        self.f_key = array.array("q")    # per f call: hash of its argument

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, after=None):
        nid = self.name_id(name)
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(idx, args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # hooks: run after the call, outside its span's timed interval ---------
    def _after_product(self, idx, args, result):
        left, right = args[0], args[1]
        if hasattr(left, "entries"):            # multiset_product(x, y)
            self.pair_products += len(left) * len(right)
        else:                                   # formal_product(s, t)
            self.pair_products += (sum(len(ms) for ms in left.multisets())
                                   * sum(len(ms) for ms in right.multisets()))
        self.peak_terms = max(self.peak_terms, result.num_terms())

    def _after_bijections(self, idx, args, result):
        self.enumerated[args[0], args[1]] = len(result)

    def _after_render_sum(self, idx, args, result):
        self.rendered_bytes += len(result)

    def _after_f(self, idx, args, result):
        self.f_span.append(idx)
        self.f_key.append(hash(args[1]))

    def write(self, path: str) -> None:
        """Spans file: one JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.name),
                      "arrays": ["name:H", "parent:i", "start:q", "end:q"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    """Rebind every public function and the ``METHODS`` of each layer."""
    import pseudodet.cli  # noqa: F401  (loads every layer module)

    hooks = {"multisets.multiset_product": tracer._after_product,
             "multisets.formal_product": tracer._after_product,
             "multisets.partial_bijections": tracer._after_bijections,
             "multisets.FormalSum.render": tracer._after_render_sum,
             "pseudochar.CentralFunction.__call__": tracer._after_f}
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"pseudodet.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = (obj, tracer.wrap(obj, name, hooks.get(name)))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{_ALIASES.get(meth, meth)}"
                setattr(cls, meth, tracer.wrap(vars(cls)[meth], name,
                                               hooks.get(name)))
    holders = [m for n, m in list(sys.modules.items())
               if n == "pseudodet" or n.startswith("pseudodet.")]
    for module in holders:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans (see BENCHMARK.json)."""
    names = tracer.names
    layer_of = [_layer(n) for n in names]
    name_arr, parent, start, end = (tracer.name, tracer.parent,
                                    tracer.start, tracer.end)
    count = len(name_arr)
    dur = array.array("q", (e - s for s, e in zip(start, end)))
    child = array.array("q", bytes(8 * count))
    # top[i]: outermost span of the unbroken same-layer chain holding i
    top = array.array("i", bytes(4 * count))
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            top[i] = top[p] if layer_of[name_arr[p]] == layer_of[name_arr[i]] else i
        else:
            top[i] = i

    per_name = {n: [0, 0, 0] for n in names}     # calls, total ns, self ns
    layer_self = dict.fromkeys(LAYERS, 0)
    is_render = [n.endswith(".render") for n in names]
    is_oracle = [n in ORACLES for n in names]
    is_elem_mul = [n in ("elements.Matrix.__mul__", "elements.Word.__mul__")
                   for n in names]
    along = tracer._ids.get("multisets.product_along", -1)
    cycle = tracer._ids.get("pseudochar.cycle_sum_form", -1)
    matmul = tracer._ids.get("elements.Matrix.__mul__", -1)
    render_from_verify = oracle_ns = oracle_calls = cycle_ns = 0
    entry_products = elem_products = pseudo_calls = 0
    matmul_ns = []
    for i in range(count):
        nid = name_arr[i]
        d = dur[i]
        row = per_name[names[nid]]
        row[0] += 1
        row[1] += d
        self_ns = d - child[i]
        row[2] += self_ns
        layer = layer_of[nid]
        layer_self[layer] += self_ns
        p = parent[i]
        pnid = name_arr[p] if p >= 0 else -1
        if is_render[nid] and p >= 0 and layer_of[pnid] == "verify":
            render_from_verify += d
        if is_oracle[nid] and (p < 0 or not is_oracle[pnid]):
            oracle_calls += 1
            oracle_ns += d
        if nid == cycle and (p < 0 or pnid != cycle):
            cycle_ns += d
        if is_elem_mul[nid] and p >= 0:
            if pnid == along:
                entry_products += 1
            elif layer_of[pnid] == "pseudochar":
                elem_products += 1
        if nid == matmul:
            matmul_ns.append(d)
        if layer == "pseudochar" and top[i] == i:
            pseudo_calls += 1

    distinct = {}
    for span, key in zip(tracer.f_span, tracer.f_key):
        distinct.setdefault(top[span], set()).add(key)
    f_distinct = sum(len(s) for s in distinct.values())

    def calls(*keys):
        return sum(per_name.get(k, (0,))[0] for k in keys)

    def seconds(key, col):
        return per_name.get(key, (0, 0, 0))[col] / 1e9

    f_calls = calls("pseudochar.CentralFunction.__call__")
    out = {
        "multisets.product_calls": calls(*PRODUCTS),
        "multisets.self_s": layer_self["multisets"] / 1e9,
        "multisets.bijections_walked": calls("multisets.product_along"),
        "multisets.entry_products": entry_products,
        "multisets.entry_product_useful_ratio":
            _ratio(tracer.pair_products, entry_products),
        "multisets.peak_terms": tracer.peak_terms,
        "multisets.enum_objects_held": sum(tracer.enumerated.values()),
        "verify.suite_calls": calls("verify.run_suite"),
        "verify.self_s": layer_self["verify"] / 1e9,
        "verify.render_s": render_from_verify / 1e9,
        "verify.oracle_calls": oracle_calls,
        "verify.oracle_s": oracle_ns / 1e9,
        "pseudochar.calls": pseudo_calls,
        "pseudochar.self_s": layer_self["pseudochar"] / 1e9,
        "pseudochar.f_calls": f_calls,
        "pseudochar.f_s": seconds("pseudochar.CentralFunction.__call__", 1),
        "pseudochar.f_distinct_ratio": _ratio(f_distinct, f_calls),
        "pseudochar.elem_products": elem_products,
        "pseudochar.oracle_s": cycle_ns / 1e9,
        "elements.self_s": layer_self["elements"] / 1e9,
        "elements.matmul_calls": calls("elements.Matrix.__mul__"),
        "elements.matmul_self_s": seconds("elements.Matrix.__mul__", 2),
        "elements.matmul_us_p50":
            statistics.median(matmul_ns) / 1e3 if matmul_ns else 0.0,
        "elements.trace_calls": calls("elements.Matrix.trace"),
        "elements.trace_self_s": seconds("elements.Matrix.trace", 2),
        "elements.word_mul_calls": calls("elements.Word.__mul__"),
        "rings.self_s": layer_self["rings"] / 1e9,
        "rings.dot_calls": calls("rings.Ring.dot", "rings.ModRing.dot",
                                 "rings.PolyRing.dot"),
        "rings.dot_self_s": sum(seconds(k, 2) for k in (
            "rings.Ring.dot", "rings.ModRing.dot", "rings.PolyRing.dot")),
        "rings.poly_mul_calls": calls("rings.Poly.__mul__"),
        "rings.poly_mul_self_s": seconds("rings.Poly.__mul__", 2),
        "rings.poly_add_calls": calls("rings.Poly.__add__"),
        "rings.poly_add_self_s": seconds("rings.Poly.__add__", 2),
        "cli.self_s": layer_self["cli"] / 1e9,
        "trace.spans": count,
    }
    return out


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer did no such work (den == 0)."""
    return num / den if den else 0.0
