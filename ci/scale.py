"""Run the pinned run-suite settings of a scale table and check each one.

    python ci/scale.py [TABLE]        (TABLE defaults to ci/scale.json)

Each row runs `python -m almostalg.cli run-suite` from this checkout's
src/ as one child process.  The child gets the row's address-space cap
(RLIMIT_AS, which is what `ulimit -v` sets, in KiB) and is killed at the
row's time cap in seconds; null means no cap.  A row fails on a traceback
in the child's stderr, an exit code other than the row's, or a report
whose sha256 is not the row's.  Reports go to a temporary directory.

Prints one line per row with its wall time and peak RSS, and exits 1 if
any row failed.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def settings(row) -> list[str]:
    return [row["suite"], "--p", str(row["p"]),
            "--working-level", str(row["J"]), "--seed", str(row["seed"]),
            "--corpus-size", str(row["corpus"])]


def run_row(row, tmp: Path) -> tuple[list[str], float, float]:
    """Run one row; return (failures, wall seconds, peak RSS in MB)."""
    report, err = tmp / "report.json", tmp / "stderr"
    report.unlink(missing_ok=True)
    mem, cap_s = row["mem_kib"], row["time_s"]

    def limit_memory():
        if mem is not None:
            resource.setrlimit(resource.RLIMIT_AS, (mem * 1024, mem * 1024))

    cmd = [sys.executable, "-m", "almostalg.cli", "run-suite",
           *settings(row), "--report", str(report)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    with open(err, "wb") as err_file:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=err_file, env=env,
                                preexec_fn=limit_memory)
    killed = False
    # reap with wait4 for the child's own rusage; poll so the time cap holds
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if cap_s is not None and not killed \
                and time.monotonic() - start > cap_s:
            proc.kill()
            killed = True
        time.sleep(0.05)
    wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped

    stderr = err.read_text(errors="replace")
    sys.stderr.write(stderr)
    failures = []
    if killed:
        failures.append(f"killed at the {cap_s} s time cap")
    if "Traceback" in stderr:
        failures.append("traceback in stderr")
    if code != row["exit"]:
        failures.append(f"exit {code}, expected {row['exit']}")
    if row["sha256"] is not None:
        got = (hashlib.sha256(report.read_bytes()).hexdigest()
               if report.exists() else "no report")
        if got != row["sha256"]:
            failures.append(f"report sha256 {got}, expected {row['sha256']}")
    return failures, wall, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    table = Path(argv[0]) if argv else ROOT / "ci" / "scale.json"
    rows = json.loads(table.read_text())["rows"]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            failures, wall, rss = run_row(row, Path(tmp))
            verdict = "FAIL" if failures else "ok"
            print(f"{verdict:4}  run-suite {' '.join(settings(row))}: "
                  f"{wall:.1f} s, {rss:.0f} MB peak RSS", flush=True)
            for failure in failures:
                print(f"      {failure}", flush=True)
            failed += bool(failures)
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
