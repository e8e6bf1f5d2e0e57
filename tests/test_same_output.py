"""A small slice of ``scripts/same_output.py``: a tree against itself, and a changed tree."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_output.py"


def _sweep(before: Path, after: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--tree", f"before={before}", "--tree", f"after={after}",
         "--seeds", "1", *extra],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_matches_itself():
    run = _sweep(ROOT / "src", ROOT / "src", "--random", "60")
    assert run.returncode == 0, run.stdout + run.stderr
    assert "changed calls: 0\n" in run.stdout
    total = int(run.stdout.split()[0])
    codes = [line for line in run.stdout.splitlines() if line.startswith("  ")]
    assert sum(int(line.rsplit(": ", 1)[1]) for line in codes) == total


def test_a_changed_line_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "mesolabe", tmp_path / "mesolabe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "mesolabe" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('f"cube residual {') == 1
    cli.write_text(source.replace('f"cube residual {', 'f"cube residual: {'), encoding="utf-8")
    run = _sweep(ROOT / "src", tmp_path, "--random", "0")
    assert run.returncode == 1
    assert "\nmesolabe duplicate-cube --edge " in run.stdout
    assert "  stdout line 2: 'cube residual < 1e-" in run.stdout
    assert "-> 'cube residual: < 1e-" in run.stdout
