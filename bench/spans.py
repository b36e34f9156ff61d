"""Per-layer spans, recorded from outside the library.

`Tracer.install` wraps the public functions and methods listed in SPANS
and COUNTS.  A wrapper replaces the original in every coxkit.* namespace
that binds it, so calls nested inside the library are caught too.  Each
span adds its self time (its duration minus that of the spans it
encloses) and one call to its layer; hooks add exact sizes read off the
arguments and results.  The job itself is the outermost span, so its
self time is what no layer covers: argument parsing and formatting.

Spans are summed per job in memory and handed out at the end.
"""

import functools
import sys
import time


def _add(totals, key, value):
    totals[key] = totals.get(key, 0) + value


def _field_degree(totals, args, result):
    totals["field.degree_max"] = max(totals.get("field.degree_max", 0), args[0].degree)


def _bfs(totals, args, result):
    _add(totals, "core.bfs_elements", len(result))


def _poset(totals, args, result):
    _add(totals, "roots.roots", len(result.roots))
    _add(totals, "roots.edges", len(result.edges))


def _automaton(totals, args, result):
    _add(totals, "automata.states", len(result.states))
    _add(totals, "automata.transitions", len(result.transitions))
    _add(totals, "automata.small_roots", len(result.poset.roots))


def _dfa_series(totals, args, result):
    _add(totals, "series.states_in", len(args[0].states))
    _add(totals, "series.den_degree", result.den.degree)


def _affine_datum(totals, args, result):
    _add(totals, "affine.poset_roots", len(result.finite_poset.roots))


def _affine_poset(totals, args, result):
    _add(totals, "affine.poset_roots", len(result.roots))


# (module, function or Class.method, layer span, hook on the result)
SPANS = [
    ("coxkit.field", "CyclotomicField.__init__", "field.setup", _field_degree),
    ("coxkit.field", "AlgebraicNumber.__mul__", "field.mul", None),
    ("coxkit.field", "AlgebraicNumber.__rmul__", "field.mul", None),
    ("coxkit.field", "AlgebraicNumber.sign", "field.sign", None),
    ("coxkit.core", "CoxeterSystem.__init__", "core.system", None),
    ("coxkit.core", "cayley_bfs", "core.bfs", _bfs),
    ("coxkit.core", "GroupElement.__mul__", "core.mul", None),
    ("coxkit.core", "CoxeterSystem.element", "core.element", None),
    ("coxkit.core", "GroupElement.inverse", "core.inverse", None),
    ("coxkit.core", "is_reflection", "core.is_reflection", None),
    ("coxkit.roots", "root_poset", "roots.poset", _poset),
    ("coxkit.roots", "root_profile", "roots.profile", None),
    ("coxkit.automata", "build_automaton", "automata.build", _automaton),
    ("coxkit.series", "dfa_series", "series.dfa_series", _dfa_series),
    ("coxkit.series", "RationalSeries.__init__", "series.reduce", None),
    ("coxkit.affine", "affine_datum", "affine.datum", _affine_datum),
    ("coxkit.affine", "orbit_series", "affine.orbit", None),
    ("coxkit.affine", "depth_polynomial", "affine.closed_form", None),
    ("coxkit.affine", "depth_series", "affine.closed_form", None),
    ("coxkit.affine", "reflection_series", "affine.closed_form", None),
    ("coxkit.affine", "affine_to_obj", "affine.closed_form", None),
    ("coxkit.prefixes", "prefixes_of", "prefixes.prefixes_of", None),
    ("coxkit.prefixes", "palindromic_word", "prefixes.palindromic", None),
    ("coxkit.prefixes", "is_reflection_prefix", "prefixes.check", None),
    ("coxkit.prefixes", "check_prefix_bilinear", "prefixes.check", None),
    ("coxkit.dihedral", "canonical_generators", "dihedral.canonical", None),
    ("coxkit.dihedral", "canonical_generators_repfree", "dihedral.repfree", None),
]

# Calls counted without a span of their own; their time stays with the caller.
COUNTS = [
    ("coxkit.field", "CyclotomicField.refine_theta", "field.refine_calls", None),
    ("coxkit.field", "AlgebraicNumber.inverse", "field.inverse_calls", None),
    ("coxkit.affine", "AffineDatum.poset", None, _affine_poset),
]

# Reported per-layer metrics and their units.
METRICS = [
    ("field.setup_s", "s"), ("field.degree_max", "count"),
    ("field.mul_calls", "count"), ("field.mul_s", "s"),
    ("field.sign_calls", "count"), ("field.sign_s", "s"),
    ("field.refine_calls", "count"), ("field.inverse_calls", "count"),
    ("core.system_s", "s"), ("core.bfs_s", "s"), ("core.bfs_elements", "count"),
    ("core.mul_calls", "count"), ("core.mul_s", "s"), ("core.element_s", "s"),
    ("core.inverse_s", "s"), ("core.is_reflection_s", "s"),
    ("roots.poset_calls", "count"), ("roots.poset_s", "s"), ("roots.roots", "count"),
    ("roots.edges", "count"), ("roots.profile_calls", "count"), ("roots.profile_s", "s"),
    ("automata.build_s", "s"), ("automata.states", "count"),
    ("automata.transitions", "count"), ("automata.small_roots", "count"),
    ("series.dfa_series_calls", "count"), ("series.dfa_series_s", "s"),
    ("series.states_in", "count"), ("series.den_degree", "count"), ("series.reduce_s", "s"),
    ("affine.datum_s", "s"), ("affine.orbit_s", "s"), ("affine.poset_roots", "count"),
    ("affine.closed_form_s", "s"),
    ("prefixes.prefixes_of_s", "s"), ("prefixes.palindromic_s", "s"), ("prefixes.check_s", "s"),
    ("dihedral.canonical_s", "s"), ("dihedral.repfree_s", "s"),
    ("cli.self_s", "s"),
]


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps the layers of coxkit and sums their spans per job."""

    def __init__(self):
        self.totals = {}
        self.jobs = []
        self._stack = [[0.0]]

    def install(self):
        for module, path, layer, hook in SPANS:
            self._replace(module, path, self._span(layer, hook))
        for module, path, counter, hook in COUNTS:
            self._replace(module, path, self._count(counter, hook))

    def _replace(self, module, path, make):
        owner, name = _resolve(module, path)
        original = owner.__dict__[name]
        wrapper = functools.update_wrapper(make(original), original)
        setattr(owner, name, wrapper)
        if owner is sys.modules[module]:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "coxkit" or mod_name.startswith("coxkit."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _span(self, layer, hook):
        stack, clock, tracer = self._stack, time.perf_counter, self
        key_s, key_calls = layer + "_s", layer + "_calls"

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    totals = tracer.totals
                    totals[key_s] = totals.get(key_s, 0.0) + elapsed - frame[0]
                    totals[key_calls] = totals.get(key_calls, 0) + 1
                if hook is not None:
                    hook(tracer.totals, args, result)
                return result
            return wrapper
        return make

    def _count(self, counter, hook):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if counter is not None:
                    _add(tracer.totals, counter, 1)
                if hook is not None:
                    hook(tracer.totals, args, result)
                return result
            return wrapper
        return make

    def run_job(self, fn, *args):
        """Call fn(*args) as the outermost span of one job."""
        frame = [0.0]
        del self._stack[:]
        self._stack.append(frame)
        self.totals = {}
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.totals["cli.self_s"] = time.perf_counter() - start - frame[0]
            self.jobs.append(self.totals)

    def report(self):
        """Per-layer metrics summed over jobs (degree_max: the largest)."""
        out = {}
        for name, _ in METRICS:
            values = [job.get(name, 0) for job in self.jobs]
            out[name] = max(values, default=0) if name == "field.degree_max" else sum(values)
        return out
