"""The command line's outputs match the golden files in ``tests/golden/``,
byte for byte (``golden.py`` documents the files and rewrites them)."""

import json

import pytest

from golden import CASES, GOLDEN_DIR, VERSIONS_FILE, run_case, versions


@pytest.mark.parametrize("name", CASES)
def test_matches_golden(tmp_path, name):
    recorded = json.loads(VERSIONS_FILE.read_text())
    assert recorded == versions(), (
        f"golden outputs were made with {recorded}, this is {versions()}: other "
        "versions or SIMD targets may round floats differently; rewrite them with "
        "tests/golden.py")
    assert run_case(name, tmp_path) == json.loads((GOLDEN_DIR / f"{name}.json").read_text())
