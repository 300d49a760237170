"""The end-to-end benchmark's layer harness still finds what it wraps.

``benchmarks/e2e/layers.py`` times each layer by replacing a function at
its call site, looked up by name; its ``install()`` raises
``AttributeError`` on a name the program no longer has, and a traced
``repro serve`` then exits before it is ready.  Checking the names here
makes a refactor that deletes or renames one fail the tests, not only
the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "layers.py"


def _call_sites():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.call_sites()


def test_every_wrapped_call_site_resolves_to_a_callable():
    sites = _call_sites()
    assert sites
    missing = [f"{layer}: {getattr(owner, '__name__', owner)}.{attr}"
               for layer, owner, attr in sites
               if not callable(getattr(owner, attr, None))]
    assert missing == []
