"""The functions the traced benchmark run wraps are still there.

`perfbench/spans.py` looks each (owner, attr) of its TARGETS up with
`vars(owner)[attr]` when a `--trace 1` run starts, so a renamed or removed
function fails here as well as in that run.  The package, its CLI, the
retired `_ddc` stubs and `spans` import with numpy and the standard library
alone, the one declared dependency.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# refuses every top-level import but numpy, the standard library and the code under test
ONLY_NUMPY = """
import sys
allowed = set(sys.stdlib_module_names) | {"numpy", "structfft", "spans"}

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ImportError(f"{name} is not a declared dependency")

sys.meta_path.insert(0, Refuse())
sys.path[:0] = sys.argv[1:]
import structfft, structfft.cli, structfft._ddc, spans
"""


def test_every_traced_name_resolves_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [vars(owner)[attr] for owner, attr, *_ in spans.TARGETS]
    with spans.Tracer().installed():
        pass
    assert [vars(owner)[attr] for owner, attr, *_ in spans.TARGETS] == originals


def test_imports_need_numpy_only():
    subprocess.run([sys.executable, "-c", ONLY_NUMPY, str(ROOT / "src"), str(PERFBENCH)], check=True)
