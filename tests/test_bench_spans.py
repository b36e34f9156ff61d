"""Every name the benchmark's tracer wraps exists in coxkit, and every
hook reads its result.

`bench/spans.py` replaces each (module, name) of SPANS and COUNTS by a
wrapper and raises KeyError on a missing one; its hooks read sizes off
the wrapped call's arguments and result.  Either fault otherwise shows
only in a traced benchmark run.  The file is read, never imported, so
the test writes nothing under bench/.
"""

import importlib
import os

import coxkit as ck
from coxkit.affine import affine_datum

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _spans():
    with open(SPANS_PATH) as fh:
        code = compile(fh.read(), SPANS_PATH, "exec")
    namespace = {"__name__": "spans"}
    exec(code, namespace)
    return namespace


def test_traced_names_resolve():
    spans = _spans()
    entries = spans["SPANS"] + spans["COUNTS"]
    assert entries
    for module, path, _, _ in entries:
        importlib.import_module(module)
        owner, name = spans["_resolve"](module, path)
        assert name in vars(owner), (module, path)


def _hook_cases():
    """(args, result) of one small real call per hook, keyed by hook name."""
    sysm = ck.CoxeterSystem(matrix=ck.preset("~G2"))
    dfa = ck.build_automaton(sysm, 0, "red")
    datum = affine_datum("~A2")
    field = ck.CyclotomicField(5)
    return {
        "_field_degree": ((field, 5), None),
        "_bfs": ((sysm, 3), ck.cayley_bfs(sysm, 3)),
        "_poset": ((sysm,), ck.root_poset(sysm, max_depth=3)),
        "_automaton": ((sysm, 0, "red"), dfa),
        "_dfa_series": ((dfa,), ck.dfa_series(dfa)),
        "_affine_datum": (("~A2",), datum),
        "_affine_poset": ((datum, 4), datum.poset(4)),
    }


def test_result_hooks_read_real_results():
    """Each hook of SPANS and COUNTS runs on a real result of the call it
    is attached to and adds only reported count metrics, so a change to
    an attribute a hook reads fails here, not in a traced benchmark run."""
    spans = _spans()
    hooks = {hook.__name__: hook
             for _, _, _, hook in spans["SPANS"] + spans["COUNTS"] if hook is not None}
    cases = _hook_cases()
    assert set(hooks) == set(cases)
    metrics = dict(spans["METRICS"])
    for name, hook in hooks.items():
        totals = {}
        hook(totals, *cases[name])
        assert totals, name
        for key, value in totals.items():
            assert metrics.get(key) == "count", (name, key)
            assert type(value) is int and value > 0, (name, key, value)
