"""`python -m qwalk ARGS` with the python calibration kernel before and after.

    python3 perfbench/climain.py ARGS

Standard output and the exit code are the program's.  The last line on
standard error is ``CALIBRATION <before> <after>``: the kernel's two
times in seconds, which the benchmark subtracts from the process's wall
time and uses to scale it (see calib.py).
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calib  # noqa: E402

sys.path[0] = os.getcwd()  # as under `python -m`

before = calib.python_kernel()
sys.argv = ["qwalk"] + sys.argv[1:]
try:
    runpy.run_module("qwalk", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
after = calib.python_kernel()
print("CALIBRATION %r %r" % (before, after), file=sys.stderr)
sys.exit(code)
