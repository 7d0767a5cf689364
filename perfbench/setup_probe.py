"""Set-up probe: a fresh interpreter imports twistcheck.cli and runs one item.

    python3 perfbench/setup_probe.py VERB ARGS...

run.py times this process from spawn to exit; that wall time is one
sample of ``setup_s``.  The exit status is the item's.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twistcheck import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
sys.exit(status)
