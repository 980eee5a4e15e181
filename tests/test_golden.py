"""Every recorded command line prints what it printed when the golden file
was made: ``--format json`` stdout and exit status, byte for byte.

The cases and the recorded outputs are in ``golden/cli_outputs.json``;
``golden/regenerate.py`` rewrites it, and a regeneration must be justified
in CHANGES.md.
"""

import json

import pytest

from golden.regenerate import GOLDEN, replay

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=lambda c: "-".join(
        [c["fixture"]] + ([] if c["seed"] is None else [str(c["seed"])]) + c["args"]
    ),
)
def test_cli_output_is_unchanged(case, tmp_path):
    status, stdout = replay(case["fixture"], case["seed"], case["args"], str(tmp_path))
    assert (status, stdout) == (case["exit"], case["stdout"])
