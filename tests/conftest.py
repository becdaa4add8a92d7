"""Fixtures shared by the test modules."""

import __future__
import inspect
import textwrap

import pytest


def _mutant(function, old, new):
    """``function`` recompiled in its own module's namespace with the one
    occurrence of ``old`` in its source replaced by ``new``: a copy of the
    code with one condition dropped or changed, which a test can show its
    checks catch."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    code = compile(
        source.replace(old, new), inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[function.__name__]


@pytest.fixture
def mutant():
    return _mutant
