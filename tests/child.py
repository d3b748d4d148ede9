"""A fresh interpreter on this source tree, for the tests that need a
process of their own: start-up probes, the demos, and runs under an
address-space cap."""

import os
import subprocess
import sys

import labelcal

# run before a capped child's own code; VmSize is in kB
_LIMIT = """import resource
cap = {cap}
if {over_imports}:
    import numpy, labelcal.cli
    with open("/proc/self/status") as status:
        cap += next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) << 10
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
"""


def run(*args, env=None, cap=None, budget=None, cwd=None, timeout=120):
    """``python *args`` to its end, with its output captured as text.

    ``env`` overrides variables, and a None value removes one.  A ``-c``
    program may run under an address-space cap: ``cap`` bytes, or
    ``budget`` bytes over the child's size once numpy and ``labelcal.cli``
    are imported.
    """
    src = os.path.dirname(os.path.dirname(labelcal.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path)
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    if cap is not None or budget is not None:
        flag, code, *rest = args
        if flag != "-c" or (cap is None) == (budget is None):
            raise ValueError("a capped child runs -c code under one of cap and budget")
        limit = _LIMIT.format(cap=budget if cap is None else cap, over_imports=cap is None)
        args = ("-c", limit + code, *rest)
    return subprocess.run([sys.executable, *args], env=environ, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
