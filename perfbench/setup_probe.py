"""Child process that run.py times for ``setup_s``.

It does what every ``convexbench`` invocation does before its first cell:
start the interpreter, import the CLI (and with it numpy, scipy and the whole
package), and parse the config files named on the command line.  It then
prints one JSON line, which the parent takes as the moment the workload is
ready, and exits.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
import convexbench.cli  # noqa: E402,F401  (what every CLI invocation imports)
from convexbench.configfile import parse_config  # noqa: E402

t1 = perf_counter()
for path in sys.argv[1:]:
    parse_config(Path(path).read_text(encoding="utf-8"))
print(json.dumps({"import_ms": (t1 - t0) * 1e3}), flush=True)
