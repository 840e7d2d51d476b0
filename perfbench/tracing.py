"""In-process tracing of one `thinlie` job, from the benchmark's own files.

`Tracer.install` wraps the public functions of each `thinlie` module.  A
wrapper replaces every reference to the original function that a caller
looks up: module globals (so `cli`'s imported names and `loopalg`'s
stage functions are covered), class attributes (so aliases such as
`FieldElement.__rmul__ = __mul__` are covered) and dict values (so
`cli.COMMANDS` is covered).

Boundary functions record spans: (name, start, end, parent) in flat arrays,
kept in memory and written out by `dump` when the job ends.  Hot leaf
functions (field arithmetic, structure-constant lookups, derivation
applications) only count calls, because a span each would cost more than
the work it measures; their time is part of the self time of the
enclosing span.

`load` reads a dump back and `layer_metrics` derives the per-layer metrics:
call counts, total time of the outermost span of a name, and self time
(span duration minus the time its child spans cover).
"""

import json
import sys
import time
from array import array

# (metric prefix, module, attribute path): spans.
SPANS = [
    ("cli.main", "thinlie.cli", "main"),
    ("cli.cmd_verify", "thinlie.cli", "cmd_verify"),
    ("cli.cmd_switch", "thinlie.cli", "cmd_switch"),
    ("cli.cmd_analyze", "thinlie.cli", "cmd_analyze"),
    ("loopalg.run_analysis", "thinlie.loopalg", "run_analysis"),
    ("loopalg.expand_loop", "thinlie.loopalg", "expand_loop"),
    ("loopalg.check_covering", "thinlie.loopalg", "check_covering"),
    ("loopalg.classify", "thinlie.loopalg", "classify_component"),
    ("loopalg.verify_pattern", "thinlie.loopalg", "verify_pattern"),
    ("loopalg.normalization", "thinlie.loopalg", "normalization_check"),
    ("loopalg.centralizer_chain", "thinlie.loopalg", "centralizer_chain"),
    ("loopalg.periodicity", "thinlie.loopalg", "periodicity_failures"),
    ("loopalg.render_text", "thinlie.loopalg", "render_text"),
    ("grading.build_closed_basis", "thinlie.grading", "build_closed_basis"),
    ("grading.switch_grading", "thinlie.grading", "switch_grading"),
    ("grading.laguerre_apply", "thinlie.grading", "laguerre_apply"),
    ("grading.check_graded", "thinlie.grading", "check_graded"),
    ("grading.product_tables", "thinlie.grading", "verify_product_tables"),
    ("grading.monomial_grading", "thinlie.grading", "monomial_grading_violations"),
    ("grading.serialize", "thinlie.grading", "GradedBasis.serialize"),
    ("grading.parse", "thinlie.grading", "GradedBasis.parse"),
    ("liealg.anticommutativity", "thinlie.liealg", "anticommutativity_violations"),
    ("liealg.jacobi", "thinlie.liealg", "jacobi_violations"),
    ("liealg.closure", "thinlie.liealg", "closure_violations"),
    ("liealg.leibniz", "thinlie.liealg", "leibniz_violations"),
    ("liealg.derivation_power", "thinlie.liealg", "derivation_power_violations"),
    ("liealg.realization", "thinlie.liealg", "realization_violations"),
    ("liealg.bracket", "thinlie.liealg", "AlgebraDescriptor.bracket"),
    ("dpalgebra.echelon_insert", "thinlie.dpalgebra", "SparseEchelon.insert"),
    ("dpalgebra.echelon_reduce", "thinlie.dpalgebra", "SparseEchelon.reduce"),
]

# (counter name, module, attribute path): call counts only.
COUNTERS = [
    ("ffield.mul", "thinlie.ffield", "FieldElement.__mul__"),
    ("ffield.mul", "thinlie.ffield", "FieldElement.__rmul__"),
    ("ffield.add", "thinlie.ffield", "FieldElement.__add__"),
    ("ffield.add", "thinlie.ffield", "FieldElement.__radd__"),
    ("ffield.add", "thinlie.ffield", "FieldElement.__sub__"),
    ("ffield.add", "thinlie.ffield", "FieldElement.__rsub__"),
    ("ffield.inverse", "thinlie.ffield", "FieldElement.inverse"),
    ("liealg.bracket_mono", "thinlie.liealg", "AlgebraDescriptor.bracket_mono"),
    ("liealg.bracket_mono_miss", "thinlie.liealg", "AlgebraDescriptor._bracket_mono_raw"),
    ("liealg.derivation_apply", "thinlie.liealg", "Derivation.apply"),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: list = []
        self.missing: list = []
        self._current = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self._ids[name]

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        current, clock = self._current, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]
        return wrapper

    def _counter(self, name: str, fn):
        nid = self._id(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bracket(self, fn):
        """Span for AlgebraDescriptor.bracket, plus term pairs and hits."""
        pairs, hits = self._id("liealg.bracket.term_pairs"), self._id("liealg.bracket.hits")
        nonzero = self._id("liealg.bracket_mono.nonzero")
        counts = self.counts
        spanned = self._span("liealg.bracket", fn)

        def wrapper(self_, u, v):
            counts[pairs] += len(u.terms) * len(v.terms)
            before = counts[nonzero]
            try:
                return spanned(self_, u, v)
            finally:
                counts[hits] += counts[nonzero] - before
        return wrapper

    def _bracket_mono(self, fn):
        calls, nonzero = self._id("liealg.bracket_mono"), self._id("liealg.bracket_mono.nonzero")
        counts = self.counts

        def wrapper(self_, a, b):
            counts[calls] += 1
            out = fn(self_, a, b)
            if out is not None:
                counts[nonzero] += 1
            return out
        return wrapper

    def _insert(self, fn):
        """Span for SparseEchelon.insert, plus the inserts that grew the rank."""
        grew = self._id("dpalgebra.echelon_insert.grew")
        counts = self.counts
        spanned = self._span("dpalgebra.echelon_insert", fn)

        def wrapper(self_, v):
            out = spanned(self_, v)
            if out:
                counts[grew] += 1
            return out
        return wrapper

    def _make(self, name: str, fn, span: bool):
        if name == "liealg.bracket":
            return self._bracket(fn)
        if name == "liealg.bracket_mono":
            return self._bracket_mono(fn)
        if name == "dpalgebra.echelon_insert":
            return self._insert(fn)
        return self._span(name, fn) if span else self._counter(name, fn)

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target in the already imported `thinlie` modules."""
        import thinlie.cli  # noqa: F401  (imports every module it calls)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "thinlie" or k.startswith("thinlie.")]
        classes = {id(c): c for m in modules for c in vars(m).values()
                   if isinstance(c, type) and c.__module__.startswith("thinlie")}
        # Resolve every target before replacing any: an alias such as
        # __rmul__ is the same function as __mul__ and gets one wrapper.
        resolved = {}
        for targets, span in ((SPANS, True), (COUNTERS, False)):
            for name, modname, path in targets:
                fn = _resolve(sys.modules.get(modname), path)
                if fn is None:
                    self.missing.append(f"{modname}:{path}")
                elif id(fn) not in resolved:
                    resolved[id(fn)] = (name, fn, span)
        for name, fn, span in resolved.values():
            _replace_everywhere(fn, self._make(name, fn, span),
                                modules, classes.values())

    def dump(self, path, **extra):
        header = {"names": self.names, "counts": dict(zip(self.names, self.counts)),
                  "spans": len(self.span_start), "missing": self.missing, **extra}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def _resolve(module, path: str):
    """The function object at module.path, unwrapping classmethods."""
    if module is None:
        return None
    obj = module
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
    if obj is None:
        return None
    raw = vars(obj).get(parts[-1]) if isinstance(obj, type) else getattr(obj, parts[-1], None)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    return raw if callable(raw) else None


def _replace_everywhere(fn, wrapper, modules, classes):
    """Point every module global, class attribute and dict value that is fn
    at wrapper, so callers that bound fn under another name see it too."""
    for m in modules:
        space = vars(m)
        for key, val in list(space.items()):
            if val is fn:
                setattr(m, key, wrapper)
            elif type(val) is dict and key != "__builtins__":
                for k2, v2 in list(val.items()):
                    if v2 is fn:
                        val[k2] = wrapper
    for c in classes:
        for key, val in list(vars(c).items()):
            if val is fn:
                setattr(c, key, wrapper)
            elif isinstance(val, classmethod) and val.__func__ is fn:
                setattr(c, key, classmethod(wrapper))


# -- reading a dump back ------------------------------------------------

class Trace:
    def __init__(self, header: dict, name, parent, start, end):
        self.header = header
        self.names = header["names"]
        self.counts = header["counts"]
        self.name, self.parent, self.start, self.end = name, parent, start, end
        self.span_counts: dict = {}
        for nid in name:
            key = self.names[nid]
            self.span_counts[key] = self.span_counts.get(key, 0) + 1

    def calls(self, name: str) -> int:
        return self.counts.get(name, 0) + self.span_counts.get(name, 0)

    def times(self):
        """(total_s, self_s) per span name.

        total_s sums the spans of a name that have no ancestor of the same
        name, so recursion is not counted twice; self_s sums each span's
        duration minus the durations of its direct children.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        total, self_time = {}, {}
        active: dict = {}
        stack: list = []
        for i in range(n):
            par = self.parent[i]
            while stack and stack[-1] != par:
                active[self.name[stack.pop()]] -= 1
            if par >= 0:
                own[par] -= dur[i]
            nid = self.name[i]
            if not active.get(nid):
                total[nid] = total.get(nid, 0.0) + dur[i]
            active[nid] = active.get(nid, 0) + 1
            stack.append(i)
        for i in range(n):
            nid = self.name[i]
            self_time[nid] = self_time.get(nid, 0.0) + own[i]
        return ({self.names[k]: v for k, v in total.items()},
                {self.names[k]: v for k, v in self_time.items()})

    def top_level_s(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)


def load(path) -> Trace:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    return Trace(header, *arrays)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Trace) -> dict:
    """The benchmark's per-layer metrics of one traced job, by name."""
    total, self_s = tr.times()
    c = tr.calls
    # Each covering line costs one bracket with X and one with Y.
    ids = {name: k for k, name in enumerate(tr.names)}
    covering, bracket = ids.get("loopalg.check_covering"), ids.get("liealg.bracket")
    covering_brackets = sum(1 for i in range(len(tr.name))
                            if tr.name[i] == bracket and tr.parent[i] >= 0
                            and tr.name[tr.parent[i]] == covering)
    pairs = c("liealg.bracket.term_pairs")
    return {
        "ffield.mul.calls": c("ffield.mul"),
        "ffield.inverse.calls": c("ffield.inverse"),
        "ffield.add.calls": c("ffield.add"),
        "loopalg.check_covering.total_s": total.get("loopalg.check_covering", 0.0),
        "loopalg.check_covering.lines": covering_brackets // 2,
        "loopalg.expand_loop.total_s": total.get("loopalg.expand_loop", 0.0),
        "loopalg.classify.total_s": total.get("loopalg.classify", 0.0),
        "loopalg.centralizer_chain.total_s": total.get("loopalg.centralizer_chain", 0.0),
        "loopalg.periodicity.total_s": total.get("loopalg.periodicity", 0.0),
        "liealg.bracket.calls": c("liealg.bracket"),
        "liealg.bracket.term_pairs": pairs,
        "liealg.bracket.nonzero_ratio": _ratio(c("liealg.bracket.hits"), pairs),
        "liealg.bracket.self_s": self_s.get("liealg.bracket", 0.0),
        "liealg.bracket_mono.calls": c("liealg.bracket_mono"),
        "liealg.bracket_mono.distinct_keys": c("liealg.bracket_mono_miss"),
        "liealg.jacobi.total_s": total.get("liealg.jacobi", 0.0),
        "liealg.leibniz.total_s": total.get("liealg.leibniz", 0.0),
        "liealg.derivation_apply.calls": c("liealg.derivation_apply"),
        "dpalgebra.echelon_insert.calls": c("dpalgebra.echelon_insert"),
        "dpalgebra.echelon_insert.useful_ratio": _ratio(
            c("dpalgebra.echelon_insert.grew"), c("dpalgebra.echelon_insert")),
        "dpalgebra.echelon_insert.self_s": self_s.get("dpalgebra.echelon_insert", 0.0),
        "dpalgebra.echelon_reduce.calls": c("dpalgebra.echelon_reduce"),
        "dpalgebra.echelon_reduce.self_s": self_s.get("dpalgebra.echelon_reduce", 0.0),
        "grading.check_graded.total_s": total.get("grading.check_graded", 0.0),
        "grading.product_tables.total_s": total.get("grading.product_tables", 0.0),
        "grading.laguerre_apply.calls": c("grading.laguerre_apply"),
        "grading.build_closed_basis.total_s": total.get("grading.build_closed_basis", 0.0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "trace.job_s": tr.top_level_s(),
    }
