"""Per-layer tracing of one kmlat job, from outside the program.

The layers are kmlat's modules.  Tracer.install() replaces the public
functions and methods listed below by wrappers, in the module that defines
them and under every name another kmlat module imported them by (such as
lattice.act and lattice.closure), so calls from inside the program are
traced too.  Three kinds of wrapper:

- SPANNED entry points record a span (id, parent id, name, start, end) and
  add to their layer's self time and to their own inclusive and self time;
- HOT arithmetic (FieldElement, ExtElement, LaurentPoly and Mat2
  operators, element orders, root letters) is counted and timed into its
  layer's self time only, with no span, so that the tracer does not swamp
  the times it measures;
- three counters: vertex equality tests inside lattice.lubotzky_check,
  `a*a + b*c == one` tests (and the ones that hold) inside
  serretree.involution_families, and SL2(F_q) elements drawn from
  groups.sl2_elements.

A layer's self time is the time its wrapped calls ran minus the time their
wrapped callees ran; unwrapped helpers count towards the nearest wrapped
caller.  Spans stay in memory; the child sends them to run.py, which writes
them out when the run ends.
"""

import time

LAYERS = ("cli", "lattice", "groups", "serretree", "laurent", "gf",
          "kmaction")

SPANNED = {
    "cli": ("main",),
    "lattice": ("lubotzky_check", "faithfulness_kernel",
                "build_standard_lattice", "classify", "covolume"),
    "groups": ("closure", "torus_normalizer", "nonsplit_torus",
               "find_subgroup_of_type"),
    "serretree": ("vertex_distance", "act", "involution_families",
                  "dihedral_obstruction_search"),
    "gf": ("make_field", "norm1_subgroup"),
    "kmaction": ("zp_fix_test",),
}

_FE_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
           "__pow__", "inverse")
HOT = {
    "serretree": ("Mat2.mul", "Mat2.inv", "Mat2.det"),
    "groups": ("FiniteGroup.element_order",),
    "laurent": tuple("LaurentPoly." + op for op in
                     ("__add__", "__sub__", "__neg__", "__mul__", "scale")),
    "gf": tuple("FieldElement." + op for op in _FE_OPS)
    + tuple("ExtElement." + op for op in
            ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")),
    "kmaction": ("apply_letter", "apply_word"),
}

# inclusive time of the outermost calls, and self time, of these
REPORTED = ("lattice.lubotzky_check", "lattice.faithfulness_kernel",
            "lattice.build_standard_lattice", "groups.torus_normalizer",
            "groups.nonsplit_torus", "groups.find_subgroup_of_type",
            "groups.closure", "serretree.vertex_distance",
            "serretree.involution_families",
            "serretree.dihedral_obstruction_search", "gf.norm1_subgroup",
            "kmaction.zp_fix_test")


def _resolve(module, qualname):
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans = []
        # frames: [time covered by wrapped callees, id of the enclosing span]
        self.stack = [[0.0, -1]]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}
        self.incl_s = {}
        self.own_s = {}
        self.depth = {}
        self.counts = dict.fromkeys(
            ("vertex_eq_in_check", "involution_tests", "involutions_kept",
             "laurent_mul_terms", "sl2_scanned"), 0)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, layer, fn):
        stack, spans, self_s = self.stack, self.spans, self.self_s
        calls, incl_s, depth = self.calls, self.incl_s, self.depth
        own_s = self.own_s
        pc = time.perf_counter

        def wrapped(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            parent = stack[-1][1]
            depth[name] += 1
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                self_s[layer] += d - frame[0]
                own_s[name] += d - frame[0]
                calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    incl_s[name] += d
                spans[sid] = (sid, parent, name, t0, t1)
        return wrapped

    def _hot(self, name, layer, fn, on_call=None):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        pc = time.perf_counter

        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                d = pc() - t0
                stack.pop()
                stack[-1][0] += d
                self_s[layer] += d - frame[0]
                calls[name] += 1
        return wrapped

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib
        mods = {layer: importlib.import_module("kmlat." + layer)
                for layer in LAYERS}
        replaced = {}
        counts, depth = self.counts, self.depth

        def patch(layer, qualname, make):
            owner, attr = _resolve(mods[layer], qualname)
            orig = getattr(owner, attr)
            new = make(orig)
            setattr(owner, attr, new)
            replaced[id(orig)] = (orig, new)

        def count_terms(a, b):
            counts["laurent_mul_terms"] += len(a.coeffs) * len(b.coeffs)

        for kind, table in (("span", SPANNED), ("hot", HOT)):
            for layer, names in table.items():
                for qualname in names:
                    name = layer + "." + qualname
                    self.calls[name] = 0
                    self.incl_s[name] = 0.0
                    self.own_s[name] = 0.0
                    self.depth[name] = 0
                    if kind == "span":
                        make = (lambda f, n=name, lay=layer:
                                self._spanned(n, lay, f))
                    else:
                        hook = (count_terms
                                if qualname == "LaurentPoly.__mul__" else None)
                        make = (lambda f, n=name, lay=layer, h=hook:
                                self._hot(n, lay, f, h))
                    patch(layer, qualname, make)

        def vertex_eq(orig):
            def wrapped(u, v):
                if depth["lattice.lubotzky_check"]:
                    counts["vertex_eq_in_check"] += 1
                return orig(u, v)
            return wrapped

        def laurent_eq(orig):
            def wrapped(a, b):
                r = orig(a, b)
                if depth["serretree.involution_families"]:
                    counts["involution_tests"] += 1
                    counts["involutions_kept"] += bool(r)
                return r
            return wrapped

        def sl2_elements(orig):
            def wrapped(spec):
                for g in orig(spec):
                    counts["sl2_scanned"] += 1
                    yield g
            return wrapped

        patch("serretree", "Vertex.__eq__", vertex_eq)
        patch("laurent", "LaurentPoly.__eq__", laurent_eq)
        patch("groups", "sl2_elements", sl2_elements)

        # rebind every name another module imported a wrapped function by
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if id(val) in replaced and replaced[id(val)][0] is val:
                    setattr(mod, key, replaced[id(val)][1])

    # -- results ----------------------------------------------------------

    def layer_figures(self):
        """Flat {figure: number} for this job; run.py sums them over jobs."""
        figs = {"self_ms." + k: v * 1e3 for k, v in self.self_s.items()}
        for name in REPORTED:
            figs["incl_ms." + name] = self.incl_s[name] * 1e3
            figs["own_ms." + name] = self.own_s[name] * 1e3
        for name, n in self.calls.items():
            figs["calls." + name] = n
        for name, n in self.counts.items():
            figs["count." + name] = n
        return figs


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t, orbit_points):
    """The per-layer metrics, from figures t summed over a round's jobs.

    orbit_points: the orbit points the round's verify reports list.
    """
    def c(name):
        return t.get("calls." + name, 0)

    def incl(name):
        return t.get("incl_ms." + name, 0.0)

    def own(layer):
        return t.get("self_ms." + layer, 0.0)

    return {
        "lattice.lubotzky_check_ms": incl("lattice.lubotzky_check"),
        "lattice.faithfulness_kernel_ms": incl("lattice.faithfulness_kernel"),
        "lattice.build_standard_lattice_ms":
            incl("lattice.build_standard_lattice"),
        "lattice.self_ms": own("lattice"),
        "lattice.orbit_compares_per_point":
            _ratio(t.get("count.vertex_eq_in_check", 0), orbit_points),
        "groups.torus_normalizer_ms": incl("groups.torus_normalizer"),
        "groups.nonsplit_torus_ms": incl("groups.nonsplit_torus"),
        "groups.find_subgroup_of_type_ms":
            incl("groups.find_subgroup_of_type"),
        "groups.closure_ms": incl("groups.closure"),
        "groups.element_order_calls": c("groups.FiniteGroup.element_order"),
        "groups.sl2_scanned": t.get("count.sl2_scanned", 0),
        "groups.self_ms": own("groups"),
        "serretree.vertex_distance_calls": c("serretree.vertex_distance"),
        "serretree.vertex_distance_ms": incl("serretree.vertex_distance"),
        "serretree.mat2_inv_calls": c("serretree.Mat2.inv"),
        "serretree.mat2_mul_calls": c("serretree.Mat2.mul"),
        "serretree.self_ms": own("serretree"),
        "serretree.involution_families_ms":
            incl("serretree.involution_families"),
        "serretree.involutions_kept_per_tested":
            _ratio(t.get("count.involutions_kept", 0),
                   t.get("count.involution_tests", 0)),
        "serretree.dihedral_search_self_ms":
            t.get("own_ms.serretree.dihedral_obstruction_search", 0.0),
        "laurent.mul_calls": c("laurent.LaurentPoly.__mul__"),
        "laurent.add_calls": c("laurent.LaurentPoly.__add__"),
        "laurent.terms_per_mul":
            _ratio(t.get("count.laurent_mul_terms", 0),
                   c("laurent.LaurentPoly.__mul__")),
        "laurent.self_ms": own("laurent"),
        "gf.mul_calls": c("gf.FieldElement.__mul__"),
        "gf.add_calls": c("gf.FieldElement.__add__"),
        "gf.ext_pow_calls": c("gf.ExtElement.__pow__"),
        "gf.norm1_subgroup_ms": incl("gf.norm1_subgroup"),
        "gf.self_ms": own("gf"),
        "kmaction.zp_fix_test_ms": incl("kmaction.zp_fix_test"),
        "kmaction.apply_letter_calls": c("kmaction.apply_letter"),
        "kmaction.self_ms": own("kmaction"),
        "cli.self_ms": own("cli"),
    }
