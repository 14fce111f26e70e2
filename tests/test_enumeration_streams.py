"""The fast path enumerator against frozen golden enumeration streams.

``tests/golden/enumeration_streams.json`` was recorded once (see
``tests/enumeration_streams.py`` for the cases and the regeneration
command).  These tests replay every case on the fast engine and require
the same delivery stream (paths, times, steps, tie order),
``stopped_early`` and ``steps_processed``.  The oracle does not depend on
the reference engine.
"""

from __future__ import annotations

import pytest

import enumeration_streams as golden
from repro.datasets import PAPER_DATASET_KEYS


@pytest.mark.parametrize("k", golden.KS)
@pytest.mark.parametrize("dataset", PAPER_DATASET_KEYS)
def test_fast_engine_matches_golden(dataset, k):
    key = golden.case_key(dataset, k)
    assert golden.run_case(dataset, k) == golden.load()[key], key


def test_fixture_covers_every_case():
    assert sorted(golden.load()) == sorted(
        golden.case_key(dataset, k)
        for dataset in PAPER_DATASET_KEYS for k in golden.KS)
