"""Record the reference outputs that run.py checks against.

    python3 perfbench/make_refs.py --workload fig2 --seeds 1-10
    python3 perfbench/make_refs.py --workload bisect-deep --seeds 1-10
    python3 perfbench/make_refs.py --workload modulus-tilts

Run from the repository root.  Only run it on a commit whose outputs are
known to be right: every later run is compared with what it records.  fig2
references serve fig2-allcores too, since both must write the same bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from convexbench import cli  # noqa: E402

from workloads import REFS, WORKLOADS, all_cores  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        wl = WORKLOADS[name](seed, Path(tmp) / "inputs")
        wl.jobs = all_cores()  # outputs do not depend on jobs
        wl.prepare()
        out_dir = Path(tmp) / "out"
        stdout = {}
        for label, argv in wl.invocations(out_dir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{label} exited with {rc}; not recording")
            stdout[label] = buf.getvalue()
        if name == "modulus-tilts":
            return stdout
        return {p.parent.name: p.read_text() for p in sorted(out_dir.glob("*/risk.csv"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig2", "bisect-deep", "modulus-tilts"])
    parser.add_argument("--seeds", default="0", help="N or LO-HI (ignored for modulus-tilts)")
    args = parser.parse_args()
    path = REFS / f"{args.workload}.json"
    if args.workload == "modulus-tilts":
        refs = record(args.workload, 0)
    else:
        refs = json.loads(path.read_text()) if path.is_file() else {}
        for seed in _seeds(args.seeds):
            refs[str(seed)] = record(args.workload, seed)
            print(f"{args.workload}: recorded seed {seed}", file=sys.stderr)
    REFS.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
