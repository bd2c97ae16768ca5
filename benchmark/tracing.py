"""Spans around sternseq's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every
sternseq module that holds it, so a call is seen the way its calling
module makes it: `moddist.mat_mul` and `exactalg.mat_mul` are both
wrapped, and so is `stern_table` inside `sums`.  mpmath's `polyroots`
and `polyval` are wrapped on the `mp` context that `moddist` uses.
Spans (name, layer, start, end, parent, operation) stay in memory until
`write` is called at the end of the run; `uninstall` puts every
original back.
"""

import json
from collections import defaultdict
from time import process_time

# layer of each traced function, by home module
LAYERS = {
    "core": {name: "core" for name in (
        "stern", "stern_pair", "stern_ratio", "stern_table", "diatomic_row",
        "stern_block", "block_decompose")},
    "enumeration": {name: "enumeration" for name in (
        "rational_of_index", "index_of_rational", "to_odd_cfrac",
        "reverse_bits", "brocot_row", "minkowski_q")},
    "moddist": {
        **{name: "moddist.count" for name in (
            "count_T", "dist_table", "count_block", "s_mod_pair")},
        **{name: "moddist.graph" for name in (
            "feasible_pairs", "pair_counts", "graph", "adjacency",
            "walk_counts", "graph_export", "density", "index_I")},
        "minimal_polynomial": "moddist.minpoly",
        "spectral": "moddist.roots",
    },
    "exactalg": {name: "exactalg" for name in (
        "identity", "mat_mul", "mat_pow", "poly_divmod", "poly_gcd",
        "squarefree_factors", "poly_eval", "poly_eval_matrix")},
    "smalld": {
        "delta3": "smalld.delta3", "delta3_classify": "smalld.delta3",
        "hyperbinary": "smalld.hyperbinary",
        **{name: "smalld.closed_forms" for name in (
            "t3_zero_closed", "a3_row_count", "a3_row_count_closed",
            "a3_member", "even_stern_index")},
        "a3_enumerate": "smalld.enumerate", "delta3_trace": "smalld.enumerate",
    },
    "sums": {
        "t_prefix_sum": "sums.exact",  # float mode is moved in _layer_of
        "alpha_estimate": "sums.float",
        "row_sum": "sums.exact", "prefix_row_sum": "sums.exact",
        "theorem_bounds": "sums.exact",
    },
    "cli": {"run": "cli"},
}

# Calling modules to patch.  smalld is left out for s_mod_pair: delta3's
# per-index path calls it once per index, and a span there would
# measure the tracer.
PATCH_MODULES = ("core", "enumeration", "moddist", "exactalg", "smalld",
                 "sums", "cli")
SKIP = {("smalld", "s_mod_pair")}


def _layer_of(name, layer, args, kwargs):
    if name == "t_prefix_sum":
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
        return "sums.float" if mode == "float" else "sums.exact"
    return layer


class Tracer:
    def __init__(self):
        # [name, layer, start, end, parent index, operation, weight]
        self.spans = []
        self.stack = []
        self.op = 0
        self.enabled = True  # off while the benchmark checks an output
        self._patched = []   # (owner, attribute, original)
        self._mp_patched = []

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, _layer_of(name, layer, args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, _weight(name, args,
                                                                 kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[2] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = process_time()
                stack.pop()
            if name == "squarefree_factors":
                span[6] = len(result)
            return result
        return wrapper

    def install(self, lib):
        wrappers = {}
        for home, table in LAYERS.items():
            for name, layer in table.items():
                fn = getattr(getattr(lib, home), name)
                wrappers[id(fn)] = (name, self._wrap(fn, name, layer))
        for caller in PATCH_MODULES:
            module = getattr(lib, caller)
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and (caller, attr) not in SKIP:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        mp = lib.moddist.mp
        for attr in ("polyroots", "polyval"):
            setattr(mp, attr, self._wrap(getattr(mp, attr), attr,
                                         "moddist.roots"))
            self._mp_patched.append((mp, attr))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        for mp, attr in self._mp_patched:
            delattr(mp, attr)
        self._patched.clear()
        self._mp_patched.clear()

    def layer_totals(self):
        """Self time and span count per layer; span count and summed
        weight per function name; and the `s_mod_pair` calls made from
        `count_T` or `dist_table`."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        names = defaultdict(int)
        weights = defaultdict(int)
        blocks = 0
        for k, (name, layer, start, end, parent, _, weight) in enumerate(
                self.spans):
            self_s[layer] += end - start - child_time[k]
            calls[layer] += 1
            names[name] += 1
            weights[name] += weight
            if (name == "s_mod_pair" and parent >= 0
                    and self.spans[parent][0] in ("count_T", "dist_table")):
                blocks += 1
        return self_s, calls, names, weights, blocks

    def write(self, path):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op, weight in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "weight": weight}) + "\n")


def _weight(name, args, kwargs):
    # table entries allocated by stern_table, terms summed by sums
    if name == "stern_table":
        return (args[0] if args else kwargs["limit"]) + 1
    if name == "t_prefix_sum":
        return args[0] if args else kwargs["N"]
    if name == "alpha_estimate":
        return args[1] if len(args) > 1 else kwargs["N"]
    return 0
