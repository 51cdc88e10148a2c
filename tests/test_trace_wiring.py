"""The benchmark's span tracer finds every callable it patches.

The tier-1 suite does not collect perfbench/, so without this test a
rename in qasr.engine or qasr.hwsim could break the traced benchmark run
while every test here passes."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trace import Tracer  # noqa: E402

from qasr.engine import RnnCharLm  # noqa: E402


def test_tracer_patches_every_point_and_restores_them():
    original = RnnCharLm.__dict__["advance_batch"]
    tracer = Tracer()
    try:
        assert tracer.install() == []
        assert RnnCharLm.__dict__["advance_batch"] is not original
    finally:
        tracer.uninstall()
    assert RnnCharLm.__dict__["advance_batch"] is original
