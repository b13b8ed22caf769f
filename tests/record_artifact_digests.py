"""Record the sha256 of every file the six pinned CLI runs write.

    python tests/record_artifact_digests.py

Run it from a source checkout after a change that moves values on purpose;
it rewrites ``tests/artifact_digests.json`` next to it, which
``tests/test_cli.py::test_artifacts_match_pinned_digests`` compares with.
Each command runs in a fresh interpreter with one BLAS thread and no
``COHERLSS_THREADS``. The digests hold only for the numpy and the BLAS
recorded with them (runtime BLAS core and numpy's SIMD targets included),
so the file records those too.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "artifact_digests.json"
SRC = HERE.parent / "src"

# name -> CLI arguments; each run writes its artifacts into a fresh directory
COMMANDS = {
    "sweep": ["sweep"],
    "sweep_seed": ["sweep", "--seed", "20200717"],
    "sweep_quick_log": ["sweep", "--quick", "--f", "log"],
    "histogram_quick": ["histogram", "--quick"],
    "scaling_quick": ["scaling", "--quick"],
    "validate_seed": ["validate", "--seed", "20200717"],
}


def _openblas_core() -> str | None:
    """The kernel set a DYNAMIC_ARCH OpenBLAS picked for this CPU, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def platform() -> dict:
    """What the digests depend on besides the source: numpy and the BLAS."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} core {_openblas_core()}",
        "numpy_simd": sorted(config["SIMD Extensions"].get("found") or []),
    }


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_commands(out_root: pathlib.Path) -> dict:
    """{name: {file name: sha256}} of the six runs, each in a fresh
    interpreter with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("COHERLSS_THREADS", None)
    digests = {}
    for name, argv in COMMANDS.items():
        out = out_root / name
        proc = subprocess.run([sys.executable, "-m", "coherlss", *argv, "--out-dir", str(out)],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with {proc.returncode}: {proc.stderr}")
        digests[name] = {p.name: _sha256(p) for p in sorted(out.iterdir())}
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        commands = run_commands(pathlib.Path(tmp))
    payload = {**platform(), "commands": {name: {"argv": COMMANDS[name], "files": files}
                                          for name, files in commands.items()}}
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for name, files in commands.items():
        for file, digest in files.items():
            print(f"{digest[:16]}  {name}/{file}")


if __name__ == "__main__":
    main()
