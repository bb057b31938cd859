import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_stats.py"


def test_counts_lines_and_defaulted_parameters(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(
        "def f(x, y=1, *args, z, w=2, **kw):\n"
        "    return lambda t, s=3: t\n"
        "\n"
        "\n"
        "class C:\n"
        "    async def m(self, k=None):\n"
        "        pass\n"
    )
    (pkg / "sub" / "b.py").write_text("def g(a, b):\n    return a\n")
    (pkg / "notes.txt").write_text("def h(c=1):\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(pkg)], capture_output=True, text=True)
    assert done.returncode == 0
    # y, w, s and k carry defaults; the .txt file is not a module
    assert json.loads(done.stdout) == {"src_optrans_lines": 9, "defaulted_parameters": 4}
