"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bettibound import measure


@pytest.fixture
def count_eigensolves(monkeypatch):
    """Call it to record, from then on, the shape of every dense eigensolve's input.

    Operators eigensolve through ``measure._eigh_in_place`` (its input is
    the conjugated matrix, dense or CSR); the DEC's Ritz blocks through
    ``np.linalg.eigh``.  An operator cut off below a finite sigma solves
    for its lowest pairs only (``measure._eigh_lowest_in_place``), recorded
    as (N, pairs asked for).  All append to one list, in call order.
    """

    def start() -> list:
        shapes = []
        in_place, lowest, eigh = measure._eigh_in_place, measure._eigh_lowest_in_place, np.linalg.eigh

        def counting_in_place(conj):
            shapes.append(conj.shape)
            return in_place(conj)

        def counting_lowest(conj, count):
            shapes.append((conj.shape[0], count))
            return lowest(conj, count)

        def counting_eigh(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(measure, "_eigh_in_place", counting_in_place)
        monkeypatch.setattr(measure, "_eigh_lowest_in_place", counting_lowest)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        return shapes

    return start
