"""Record reference.json: the summary values of each workload's reference input.

    python3 perfbench/make_reference.py

Run it only on code whose numbers are trusted (it was run on the code the
benchmark was introduced with); the benchmark compares every later run's
reference item with these values.
"""

import json
import pathlib
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(pathlib.Path(tmp) / name, seed=0)
            wl.warm()
            inp = next(iter(wl.inputs()))
            out = wl.call(inp)
            problems = wl.check(inp, out)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            reference[name] = wl.summarize(out)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
