"""Every demo script runs to completion against ``src/`` and prints the same bytes.

The SHA-256 pins are of each demo's stdout; they hold under any
``PYTHONHASHSEED``.  A change that alters a demo's output must say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_planes_and_distances": "5813a62176631d7aa57df91e24031108c0f3bda0b39001690fce1acd0a9cf6f4",
    "02_definition_tower": "175d3c5748f3f01615b96872d52e984d78bfe0aa65a10923d92804effd013ad2",
    "03_layer_verification": "210ad8830f731f3c98d57724c1d57150ab5f65f19116bb20b8262fba27a50081",
    "04_axiom_checks": "63f0e6e2c87266a74c6645d1a4358f81c9f40941ade951a2c6eb59b551a5bc81",
    "05_map_fuzzing": "2977c029e216641b16ebb0591946599213d0ba6e0169a344b9763fb13cf6de82",
}


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert b"Traceback" not in done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem], done.stdout.decode()
