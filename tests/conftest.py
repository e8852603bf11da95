import os
from pathlib import Path

import pytest

import qalcove
from qalcove.qbg import QBG


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_qalcove():
    """The CLI tests start child interpreters: they import the same qalcove."""
    src = str(Path(qalcove.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        yield


@pytest.fixture(scope="session")
def qbg2():
    return QBG(2)


@pytest.fixture(scope="session")
def qbg3():
    return QBG(3)


@pytest.fixture(scope="session")
def qbg4():
    return QBG(4)
