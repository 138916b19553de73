"""The finite-difference suite that the gradcheck command runs."""

from affground.gradcheck import run_gradcheck_suite


def test_every_gradcheck_passes():
    results = run_gradcheck_suite()
    failed = [(r.name, r.max_error) for r in results if not r.ok]
    assert failed == []
    assert len({r.name for r in results}) == len(results) == 27
