"""Acceptance gate: the release criteria of `validation.CRITERIA`, each at
its full Monte Carlo replication count. Every test prints its one-line
verdict to the live terminal (bypassing capture) so a `pytest -v` run shows
the scoreboard."""

import pytest

from macrodml import validation

SLOW = {4, 6, 7}  # the criteria whose full counts take several seconds or more


@pytest.mark.acceptance
@pytest.mark.parametrize("criterion", [
    pytest.param(c, id=f"{c.number:02d}", marks=[pytest.mark.slow] if c.number in SLOW else [])
    for c in validation.CRITERIA
])
def test_criterion(capsys, criterion):
    result = validation.run_criterion(criterion)
    with capsys.disabled():
        print(flush=True)
        print(result.line(), flush=True)
    assert not result.insufficient, result.line()
    assert result.passed, result.line()
