"""Results do not depend on the BLAS thread count.

Byte-identical reruns are checked at one thread count.  Here one small
scenario runs in child processes at 1 and 2 BLAS threads, and every
``summary.csv`` row must agree: ``m_opt`` exactly, capacity and ``det_db``
within the benchmark checker's tolerances (``bench/check.py``'s REL_TOL
and DB_TOL).  The BS aperture is 2 wavelengths because at 1 wavelength the
two trees are byte-identical, which would not exercise threaded BLAS; at 2
the 1/32-sphere rows differ in their last bits (measured 3.4e-12 relative
capacity and 6.3e-11 dB on a 2-vCPU VM with OpenBLAS).  Each child takes
about a second.
"""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCENARIO = """\
name: threads
output_dir: {out}
methods: [obpb:optimal, obpb:plane, obpb:one_32_sphere, obpb:hemisphere,
          full_array:power, full_array:det, sub_array]
n_ue: [2, 4]
quadrature: {{bs: [48, 96], ue: [24, 48]}}
antenna: {{bs_aperture_side: 2.0, ue_aperture_side: 0.5}}
obpb: {{m_max: 4}}
conventional: {{n_v: 4, n_h: 4}}
artifacts: {{cut_step_deg: 30.0, grid_step_deg: 45.0}}
"""


def _load_check():
    spec = importlib.util.spec_from_file_location("bench_check",
                                                  ROOT / "bench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_check()


def _run(tmp_path, threads):
    """Summary rows of the scenario run at `threads` BLAS threads."""
    out = tmp_path / f"threads_{threads}"
    cfg = tmp_path / f"threads_{threads}.yaml"
    cfg.write_text(SCENARIO.format(out=out))
    n = str(threads)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    env.pop("OBPB_OUTPUT_ROOT", None)
    done = subprocess.run([sys.executable, "-m", "obpb.cli", "run", str(cfg)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return check.read_summary(out)


def test_summary_agrees_across_blas_thread_counts(tmp_path):
    one, two = _run(tmp_path, 1), _run(tmp_path, 2)
    assert [r[:3] for r in one] == [r[:3] for r in two]
    for (method, n_ue, _, cap_1, db_1), (*_, cap_2, db_2) in zip(one, two):
        where = f"{method} N_UE={n_ue}"
        assert abs(cap_2 - cap_1) <= check.REL_TOL * abs(cap_1), where
        assert (db_1 == db_2 or (math.isfinite(db_1)
                                 and abs(db_2 - db_1) <= check.DB_TOL)), where
