"""The finite-difference suite that the gradcheck command runs."""

import numpy as np

from affground import gradcheck
from affground.gradcheck import run_gradcheck_suite
from affground.rng import derive_seed


def test_every_gradcheck_passes():
    results = run_gradcheck_suite()
    failed = [(r.name, r.max_error) for r in results if not r.ok]
    assert failed == []
    assert len({r.name for r in results}) == len(results) == 26


def test_a_primitive_checks_input_depends_only_on_its_name_and_shape(
        monkeypatch):
    inputs = []

    def record(f, x, h):
        inputs.append(x.data.copy())
        return 0.0

    monkeypatch.setattr(gradcheck, "finite_difference_check", record)
    results = gradcheck._primitive_checks(1e-4)
    assert len(results) == len(inputs) == 15
    for result, x in zip(results, inputs):
        name = result.name.removeprefix("primitive.")
        want = np.random.default_rng(derive_seed("gradcheck", name)).normal(
            size=x.shape)
        assert x.tobytes() == want.tobytes(), name
