"""The benchmark tracer must find every pcmix function it wraps.

``perfbench/tracer.py`` rebinds public pcmix names from outside the
package and raises LookupError for a name it cannot find, so renaming or
folding away a traced function breaks only the traced benchmark pass.
This test installs the tracer in a fresh interpreter, because installing
it rebinds the package's functions for the rest of the process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run, tracer
t = tracer.Tracer()
tracer.install(t)
print(json.dumps({"patched": t.patched, "layers": run.SPAN_LAYERS}))
"""


def test_tracer_installs_every_binding():
    paths = (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    patched = report["patched"]
    missing = [name for name in report["layers"] if not patched.get(name)]
    assert missing == []
    assert patched["identities.checkers"] == 30
