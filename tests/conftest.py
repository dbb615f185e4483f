import collections

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=100,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

CF_VERDICTS = pytest.StashKey[collections.Counter]()


@pytest.fixture(scope="session")
def cf_verdicts(request) -> collections.Counter:
    """Counts of (ring kind, coprime-factorization verdict) that the small world saw."""
    return request.config.stash.setdefault(CF_VERDICTS, collections.Counter())


def pytest_terminal_summary(terminalreporter, config):
    """The small world's count of coprime-factorization Unknown verdicts, when it ran."""
    verdicts = config.stash.get(CF_VERDICTS, None)
    if verdicts:
        unknown = {kind: verdicts[kind, "unknown"] for kind in ("quadratic", "delay")}
        terminalreporter.write_line(
            f"small world: coprime-factorization Unknown on {sum(unknown.values())} of "
            f"{sum(verdicts.values())} plants (quadratic {unknown['quadratic']}, delay {unknown['delay']})")
