"""Headline CLI numbers against the checked-in golden file.

Byte identity holds only within one build of the numerics; this file is the
tolerance-based record that a refactor kept the behaviour. The cases and
their recorded rows live in ``tests/golden/cli_headlines.json``, written by
``tests/golden/make_golden.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

# the generator script is not a package module; import it by path
sys.path.insert(0, str(Path(__file__).with_name("golden")))
from make_golden import GOLDEN, run_case  # noqa: E402

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))

# relative tolerance on every number; the absolute floor only covers
# entries at rounding level (imaginary parts, seed-row distances)
RTOL, ATOL = 1e-9, 1e-12


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_headline_numbers_match_golden(case, tmp_path):
    rows = run_case(case, tmp_path)
    assert len(rows) == len(case["rows"])
    for got, want in zip(rows, case["rows"]):
        assert len(got) == len(want)
        labels = [(g, w) for g, w in zip(got, want) if isinstance(w, str)]
        assert all(g == w for g, w in labels), labels
        numbers = [(g, w) for g, w in zip(got, want) if not isinstance(w, str)]
        np.testing.assert_allclose(
            [g for g, _ in numbers], [w for _, w in numbers], rtol=RTOL, atol=ATOL
        )
