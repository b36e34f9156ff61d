"""Every name the benchmark's tracer wraps exists in coxkit.

`bench/spans.py` replaces each (module, name) of SPANS and COUNTS by a
wrapper and raises KeyError on a missing one, which otherwise shows only
in a traced benchmark run.  The file is read, never imported, so the
test writes nothing under bench/.
"""

import importlib
import os

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
