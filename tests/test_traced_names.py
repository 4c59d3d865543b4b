"""The functions the traced benchmark run wraps are still there.

`perfbench/spans.py` looks each (owner, attr) of its TARGETS up with
`vars(owner)[attr]` when a `--trace 1` run starts, so a renamed or removed
function fails here as well as in that run.  The package, its CLI, the
retired `_ddc` stubs and `spans` import with numpy and the standard library
alone, the one declared dependency, and cold calls leave `numpy.ma`
unimported.
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


# builds the benchmark workloads' supports and runs one cold call on each, as
# struct-dense (dense), struct-synth (BandlimitedSignal) and homog-dense (dense)
COLD_CALLS = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import workloads
from structfft import BandlimitedSignal, FamilySpec, sas_transform

specs = [(FamilySpec(kind, params, seed), False) for _, kind, params, seed, _ in workloads.STRUCT_RECIPES]
specs += [(FamilySpec(kind, params, seed), True) for _, kind, params, seed, _ in workloads.STRUCT_RECIPES]
specs += [(FamilySpec("homogeneous", {"pivots": list(p), "M": workloads.HOMOG_M}, i), False)
          for i, p in enumerate(workloads.HOMOG_PIVOTS)]
for spec, synth in specs:
    J = spec.build().support
    sig = BandlimitedSignal(J, np.ones(len(J)))
    out = sas_transform(sig if synth else sig.synthesize(), J)
    assert out.plan_reused is False and not out.nodes.mismatch.any()
print("numpy.ma" in sys.modules)
"""


def test_cold_calls_leave_numpy_ma_unimported():
    # numpy 2.4's np.unique and np.union1d import numpy.ma on their first call,
    # tens of ms of a cold call; the package uses `congruence.unique_sorted`
    out = subprocess.run([sys.executable, "-c", COLD_CALLS, str(ROOT / "src"), str(PERFBENCH)],
                         check=True, capture_output=True, text=True)
    assert out.stdout.split() == ["False"]


def test_every_traced_name_resolves_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [vars(owner)[attr] for owner, attr, *_ in spans.TARGETS]
    with spans.Tracer().installed():
        pass
    assert [vars(owner)[attr] for owner, attr, *_ in spans.TARGETS] == originals


def test_imports_need_numpy_only():
    subprocess.run([sys.executable, "-c", ONLY_NUMPY, str(ROOT / "src"), str(PERFBENCH)], check=True)
