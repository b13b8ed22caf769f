"""Fresh-interpreter helper of the benchmark.

    python3 perfbench/child.py setup C F
        import coherlss and do the lazy set-up of the statistic at aspect
        ratio C with test function F (phi and MP integrals), then exit;
        the caller times the whole process as set-up time.

    python3 perfbench/child.py cli [--trace-out PATH] -- ARGS...
        run ``coherlss.cli.run(ARGS)`` and exit with its status; with
        --trace-out, trace the coherlss layers and write their sums there.

BLAS is pinned to one thread before numpy is imported.
"""

import os
import pathlib
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COHERLSS_THREADS", None)

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _setup(c: str, f: str) -> int:
    import coherlss.cli  # noqa: F401  (the CLI entry point is part of start-up)
    from coherlss import lss

    lss.phi_value(float(c), f)
    lss.mp_integral_value(float(c), f)
    return 0


def _cli(argv: list) -> int:
    import json

    from coherlss import cli

    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        return cli.run(argv)

    import tracer  # beside this script, so already on the path

    tr = tracer.Tracer()
    tr.install()
    try:
        tr.recording = True
        code = cli.run(argv)
        tr.recording = False
    finally:
        tr.uninstall()
    pathlib.Path(trace_out).write_text(json.dumps(tracer.aggregate(tr.spans)), encoding="utf-8")
    return code


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return _setup(argv[1], argv[2])
    if argv[:1] == ["cli"]:
        return _cli(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
