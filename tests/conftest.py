import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from morphsuite import profiles  # noqa: E402


@pytest.fixture(scope="session")
def turkish():
    return profiles.load_profile("turkish")


@pytest.fixture(scope="session")
def finnish():
    return profiles.load_profile("finnish")


@pytest.fixture(scope="session")
def turkish_examples():
    from morphsuite.cli import resolve_input
    from morphsuite.suite import ingest

    result = ingest(resolve_input("bundled:turkish_examples"))
    assert result.issues == []
    return result.records


@pytest.fixture(scope="session")
def finnish_examples():
    from morphsuite.cli import resolve_input
    from morphsuite.suite import ingest

    result = ingest(resolve_input("bundled:finnish_examples"))
    assert result.issues == []
    return result.records
