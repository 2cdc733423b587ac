"""ci/scale.py, the runner of the pinned run-suite settings, refuses a row
whose report bytes or memory cap do not hold, and passes one that does.
Only the fast complexes row runs here; the slow rows run in CI."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = json.loads((ROOT / "ci" / "scale.json").read_text())
FAST = next(row for row in TABLE["rows"] if row["suite"] == "complexes")


def run_scale(tmp_path, **changes):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"rows": [{**FAST, **changes}]}))
    return subprocess.run([sys.executable, str(ROOT / "ci" / "scale.py"),
                           str(table)], capture_output=True, text=True,
                          timeout=120)


def test_the_fast_row_passes_as_pinned(tmp_path):
    done = run_scale(tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok ")


@pytest.mark.parametrize("changes, failure", [
    ({"sha256": "0" * 64}, "report sha256"),
    # the row runs in 24 MiB of address space; in 16 MiB the library's
    # imports end in MemoryError
    ({"mem_kib": 16384}, "expected 0"),
    ({"time_s": 0}, "killed at the 0 s time cap"),
])
def test_a_row_that_does_not_hold_fails(tmp_path, changes, failure):
    done = run_scale(tmp_path, **changes)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.startswith("FAIL")
    assert failure in done.stdout
