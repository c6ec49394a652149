import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from workloads import ROOT, use_checkout_src  # noqa: E402

use_checkout_src()


@pytest.fixture
def work_dir():
    """Scratch directory inside the checkout's ``.bench_work/``, removed afterwards."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".bench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(path.parent.iterdir()):
        path.parent.rmdir()
