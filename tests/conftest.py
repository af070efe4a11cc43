import sys

import pytest

from carpenter import feasibility


@pytest.fixture
def classify_calls(monkeypatch):
    """Record every call of feasibility.classify, wherever a module binds it."""
    orig = feasibility.classify
    calls = []

    def counted(spec):
        calls.append(spec)
        return orig(spec)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "carpenter" or name.startswith("carpenter.")):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls
