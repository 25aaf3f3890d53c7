"""The example scripts must run end-to-end (small scales)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "leela_r", "1000")
        assert "fence + Early Pinning" in out
        assert "unsafe (no defense)" in out

    def test_quickstart_rejects_unknown_benchmark(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py"), "nope"],
            capture_output=True, text=True)
        assert result.returncode != 0

    def test_mcv_attack_window(self):
        out = run_example("mcv_attack_window.py")
        assert "MCV squashes" in out
        lines = [line for line in out.splitlines() if line.startswith(
            ("unsafe", "fence-comp"))]
        # the unsafe row must show a nonzero squash count, the defended
        # rows zero
        unsafe_row = next(line for line in lines
                          if line.startswith("unsafe"))
        assert int(unsafe_row.split()[2]) > 0
        for line in lines:
            if line.startswith("fence-comp"):
                squashes = int(line.replace("fence-comp + EP",
                                            "fence-ep").split()[2])
                assert squashes == 0

    def test_parallel_sweep(self):
        out = run_example("parallel_sweep.py", "300")
        assert "fft" in out and "x264" in out

    def test_cst_tuning(self):
        out = run_example("cst_tuning.py", "leela_r")
        assert "paper" in out and "infinite" in out

    def test_invisible_speculation(self):
        out = run_example("invisible_speculation.py", "leela_r")
        assert "validations" in out
        assert "comp + EP" in out
