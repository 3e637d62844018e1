"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracer.py`` rebinds package functions by name with
``getattr``; a traced benchmark run raises as soon as one of them is
renamed or deleted.  This loads the tracer by path, installs it on the
package and restores it, so such a removal fails here first.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore():
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        patched = list(tr._patches)
    finally:
        tr.restore()
    assert patched
    assert not tr._patches
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
