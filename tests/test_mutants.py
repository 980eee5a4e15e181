"""The mutation table in ``mutants.py`` still applies to the source: each
old text occurs exactly once in its module and each named test exists.
The driver that runs the mutants is not part of this suite."""

import ast

import pytest
from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}-{m.file}" for i, m in enumerate(MUTANTS)])
def test_mutant_applies_once(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        defined = {
            node.name
            for node in ast.walk(ast.parse((ROOT / path).read_text()))
            if isinstance(node, ast.FunctionDef)
        }
        assert name.split("[")[0] in defined, test
