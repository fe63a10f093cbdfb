import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import clear_conefan_caches  # noqa: E402


@pytest.fixture(autouse=True)
def cold_conefan_caches():
    """Every test starts from cold memos, so no result can lean on an
    entry an earlier test left behind."""
    clear_conefan_caches()
