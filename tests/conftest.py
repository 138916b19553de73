"""The toy model the tests share, as config fields and as ``--set`` flags,
and a check that no test leaves a hand-off behind."""

import json

import pytest

from affground import tensor

TOY = {"n_points": 128, "d": 16, "d_h": 32, "seq_len": 4, "cont_width": 16,
       "k_max": [8, 8, 8]}
TOY_MODEL_SETS = [flag for key, value in TOY.items()
                  for flag in ("--set", f"model.{key}={json.dumps(value)}")]


@pytest.fixture(autouse=True)
def no_hand_off_left():
    """Fails a test that leaves ``handing_off`` set on the main thread,
    where it would pass every later write to a leaf to a dead block."""
    yield
    left = getattr(tensor._state, "hand_off", None)
    tensor._state.hand_off = None   # so that only this test fails
    assert left is None
