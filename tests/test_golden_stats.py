"""Simulated behaviour is pinned: every counter of every cell in
``GOLDEN_STATS.json`` must come out of the simulator unchanged.

The cells (``tests/golden_stats.py``) cover unsafe and the 12 paper
schemes on three SPEC17 apps and on 8-thread ``lu_ncb`` (the pin
deferral path), InvisiSpec, the defense mutants, chaos on, and one
attack pair per class.  A failure names the cell and each counter that
moved.  A deliberate behaviour change regenerates the file with
``PYTHONPATH=src python -m tests.golden_stats`` and commits the diff.
"""

import json

import pytest

from tests import golden_stats

GOLDEN = json.loads(golden_stats.GOLDEN_PATH.read_text())["cells"]


def test_golden_holds_exactly_the_cells():
    """A cell added to or dropped from the list needs a regenerated
    file, or it would go unchecked."""
    assert sorted(GOLDEN) == sorted(golden_stats.GOLDEN_CELLS), \
        f"regenerate with: {golden_stats.REGENERATE}"


@pytest.mark.parametrize("name", golden_stats.GOLDEN_CELLS)
def test_cell_matches_golden(name):
    moved = golden_stats.diff(GOLDEN.get(name, {}),
                              golden_stats.cell_counters(name))
    assert not moved, (
        f"{name}: {len(moved)} counter(s) moved (golden -> now):\n  "
        + "\n  ".join(moved)
        + "\nif the change is deliberate, regenerate with: "
          f"{golden_stats.REGENERATE}")
