"""Fixtures shared by the test modules."""

from dataclasses import dataclass

import numpy as np
import pytest

from uavlos import citygeom, sim3d


@dataclass(frozen=True)
class KernelCall:
    """One ground-track kernel call (:func:`uavlos.citygeom.track_entries`):
    its track ends (x_rx, y_rx, x_tx, y_tx) and its cuts t_max and t_min
    as passed, and the number of entries it listed."""

    ends: tuple
    t_max: object
    t_min: object
    entries: int

    @property
    def links(self) -> int:
        """The number of tracks of the call."""
        return np.size(self.ends[0])


@pytest.fixture
def kernel_calls():
    """A list that records every ground-track kernel call either engine
    makes during the test, in call order, as KernelCall records.

    The recorder has a monkeypatch of its own, so it records until the
    test ends, whatever the test's monkeypatch undoes.
    """
    calls = []
    track_entries = citygeom.track_entries

    def recorded(layout, x_rx, y_rx, x_tx, y_tx, t_max=1.0, t_min=0.0):
        out = track_entries(layout, x_rx, y_rx, x_tx, y_tx, t_max, t_min)
        calls.append(KernelCall((x_rx, y_rx, x_tx, y_tx), t_max, t_min, out[0].size))
        return out

    with pytest.MonkeyPatch.context() as patch:
        for module in (citygeom, sim3d):
            patch.setattr(module, "track_entries", recorded)
        yield calls
