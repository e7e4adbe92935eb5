"""``tools/digests.py`` gives the same line for each pipeline command on every
run, and each command exits as the pipeline lists."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402


def test_two_runs_give_the_same_digests(tmp_path):
    first = digests.digest_lines(tmp_path / "first")
    assert digests.digest_lines(tmp_path / "second") == first
    assert [line.split(":", 1)[0] for line in first] == [
        f"exit {status}" for _, status in digests.PIPELINE]
