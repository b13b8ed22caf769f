"""Exit codes, config merging, and byte-stable artifacts of the CLI."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
import record_artifact_digests as recorder

import coherlss
from coherlss import rmt
from coherlss.cli import EXIT_CONFIG, EXIT_OK, run


def test_version_flag(capsys):
    assert run(["--version"]) == EXIT_OK
    assert "coherlss" in capsys.readouterr().out


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "coherlss.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0 or "coherlss" in out.stdout
    out = subprocess.run(["coherlss", "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("coherlss ")


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(coherlss.__file__).parents[1]))
    for module in ("coherlss.cli", "coherlss"):
        out = subprocess.run([sys.executable, "-m", module, "--version"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert out.stdout.startswith("coherlss ")


def test_no_subcommand_is_config_error(capsys):
    assert run([]) == EXIT_CONFIG
    assert "usage" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = run(["sweep", "--quick", "--config", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["sweep", "--quick", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 512, "window": "hann"}))
    code = run(["sweep", "--quick", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "window" in err


def test_odd_span_rejected(tmp_path, capsys):
    code = run(["sweep", "--quick", "--B", "95", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_alpha_boundary_rejected(tmp_path, capsys):
    code = run(["sweep", "--quick", "--alpha", "0.5", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_non_finite_theta_rejected_with_the_config(tmp_path, capsys, theta):
    # theta is validated with the rest of the config, by name, before any
    # panel is simulated from it
    code = run(["sweep", "--quick", f"--theta={theta}", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: theta must be" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_bad_threads_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COHERLSS_THREADS", "many")
    code = run(["sweep", "--quick", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "COHERLSS_THREADS" in capsys.readouterr().err


def test_threads_env_honored(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COHERLSS_THREADS", "2")
    code = run(["sweep", "--quick", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_quick_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "--quick", "--out-dir", str(out1)]) == EXIT_OK
    assert run(["sweep", "--quick", "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep_summary.json").read_bytes() == (out2 / "sweep_summary.json").read_bytes()
    payload = json.loads((out1 / "sweep_summary.json").read_text())
    assert payload["artifact"] == "sweep_summary"
    assert payload["config"]["N"] == 512


def test_sweep_flag_overrides_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 512, "B": 96, "M": 48, "theta": 0.4,
                               "replicates": 1, "grid_stride": 8, "seed": 9}))
    assert run(["sweep", "--config", str(cfg), "--seed", "11",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert payload["config"]["seed"] == 11
    assert payload["config"]["grid_stride"] == 8


def test_scaling_quick(tmp_path):
    assert run(["scaling", "--quick", "--out-dir", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[0].startswith("# coherlss ")
    assert lines[2].startswith("M,B,N,c_n,sup_raw")
    payload = json.loads((tmp_path / "scaling_summary.json").read_text())
    assert payload["artifact"] == "scaling_summary"
    assert payload["config"]["M_list"] == [20, 40]


def test_histogram_quick(tmp_path):
    assert run(["histogram", "--quick", "--replicates", "5",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "histogram.csv").read_text().splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0] == "replicate,seed,sup_raw,sup_psi,sup_psi_hat"
    assert len(data) == 6
    payload = json.loads((tmp_path / "histogram_summary.json").read_text())
    assert payload["artifact"] == "histogram_summary"


def test_validate_quick(tmp_path, capsys):
    assert run(["validate", "--quick", "--out-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "all checks passed" in out
    payload = json.loads((tmp_path / "validate_summary.json").read_text())
    assert payload["artifact"] == "validate_summary"
    assert payload["summary"]["all_passed"] is True
    assert all(entry["passed"] for entry in payload["summary"]["checks"].values())


def test_validate_byte_identical_across_threads(tmp_path):
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for t, out in zip((1, 2), outs):
        assert run(["validate", "--quick", "--replicates", "2", "--threads", str(t),
                    "--out-dir", str(out)]) == EXIT_OK
    assert (outs[0] / "validate_summary.json").read_bytes() == \
        (outs[1] / "validate_summary.json").read_bytes()


def test_scaling_rejects_sweep_only_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 512}))
    code = run(["scaling", "--quick", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "N" in capsys.readouterr().err


def test_scaling_zero_replicates_is_config_error(tmp_path, capsys):
    code = run(["scaling", "--quick", "--replicates", "0", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_config_before_quadrature(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(rmt, "distribution_action", lambda *args, **kwargs: calls.append(args))
    code = run(["validate", "--quick", "--B", "95", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert calls == []


def test_artifacts_match_pinned_digests(tmp_path):
    # the six pinned runs write files whose sha256 equal the recorded ones;
    # the digests hold only for the numpy and BLAS they were recorded with.
    # After a change that moves values on purpose, rerun
    # tests/record_artifact_digests.py and say in CHANGES.md what moved.
    pinned = json.loads(recorder.DIGESTS_PATH.read_text(encoding="utf-8"))
    here = recorder.platform()
    for key in ("numpy", "blas", "numpy_simd"):
        if here[key] != pinned[key]:
            pytest.skip(f"digests were recorded with {key} {pinned[key]!r}, this is {here[key]!r}")
    assert list(pinned["commands"]) == list(recorder.COMMANDS)
    assert {name: entry["argv"] for name, entry in pinned["commands"].items()} == recorder.COMMANDS
    # one comparison of the whole dict, so a failure lists every file that moved
    got = recorder.run_commands(tmp_path)
    assert got == {name: entry["files"] for name, entry in pinned["commands"].items()}
