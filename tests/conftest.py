"""Shared fixtures."""

import collections
import functools
import sys

import pytest


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of llfisher functions by name, through every module binding.

    ``call_counts("solve_bethe", "amplitudes")`` wraps each function
    wherever an llfisher module binds it (``llfisher.bethe.solve_bethe``,
    ``llfisher.fisher.solve_bethe``, ...) and returns the Counter that the
    wrappers fill.  The bindings are restored after the test.  A name that
    no llfisher module binds raises LookupError, so a renamed function
    cannot leave a zero count standing.
    """
    counts = collections.Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(*names):
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "llfisher" or key.startswith("llfisher.")
        ]
        for name in names:
            wrappers = {}
            for mod in modules:
                original = vars(mod).get(name)
                if callable(original):
                    wrapper = wrappers.setdefault(id(original), counting(name, original))
                    monkeypatch.setattr(mod, name, wrapper)
            if not wrappers:
                raise LookupError(f"no llfisher module binds {name!r}")
        return counts

    return install
