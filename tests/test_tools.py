"""Smoke runs of the side tools under tools/, each in its own process."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_faults_prints_one_vmhwm_and_one_warm_call_line():
    run = _tool("faults.py", "--workload", "xyz_batch", "--runs", "1", "--calls", "1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    peaks = [line for line in lines if "VmHWM median" in line]
    assert len(peaks) == 1
    assert float(re.search(r"VmHWM median +([0-9.]+) MiB", peaks[0]).group(1)) > 0
    assert len([line for line in lines if re.search(r"run 1: wall [0-9.]+ s, +[0-9]+ minor "
                                                    r"faults, CPU [0-9.]+ s$", line)]) == 1


def test_loc_reads_a_directory_as_its_python_files_sorted():
    run = _tool("loc.py", "src/satmetric")
    assert run.returncode == 0, run.stderr
    files = [line.split()[-1] for line in run.stdout.splitlines()[1:-1]]
    assert files == sorted(str(path.relative_to(ROOT))
                           for path in (ROOT / "src" / "satmetric").glob("*.py"))
    assert run.stdout == _tool("loc.py", *files).stdout


def test_loc_without_a_path_is_a_usage_error():
    run = _tool("loc.py")
    assert run.returncode == 2 and run.stdout == "" and run.stderr.startswith("usage:")
