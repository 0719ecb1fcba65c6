"""The repository's tools run and print what they promise."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_outcome_records_prints_one_digest_per_workload_and_seed():
    """``tools/outcome_records.py`` prints six lines, one SHA-256 per
    (workload, seed) for the three workloads at seeds 0 and 1504."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" /
                                              "outcome_records.py")],
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    lines = out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        f"{name} seed={seed}" for name in ("roundtrip", "transitions",
                                           "oracle") for seed in (0, 1504)]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1])
               for line in lines)
