"""Fixtures shared by the test modules."""

import pytest

from bettibound import dec, measure


@pytest.fixture
def count_eigensolves(monkeypatch):
    """Call it to record, from then on, the shape of every dense eigensolve's input.

    Every operator, stack and DEC Ritz block eigensolves through
    ``measure._eigh_in_place`` (its input is the conjugated matrix, dense
    or CSR, or the Ritz block); ``dec`` imports it by name, so it is
    wrapped there too.  A solve for the lowest pairs only, as an operator
    cut off below a finite sigma makes, is recorded as (N, pairs asked
    for).  All append to one list, in call order.
    """

    def start() -> list:
        shapes = []
        in_place = measure._eigh_in_place

        def counting_in_place(conj, count=None):
            shapes.append(conj.shape if count is None else (conj.shape[0], count))
            return in_place(conj, count)

        monkeypatch.setattr(measure, "_eigh_in_place", counting_in_place)
        monkeypatch.setattr(dec, "_eigh_in_place", counting_in_place)
        return shapes

    return start
