import filecmp
import json
import os

import pytest

from torpam.cli import main


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out


class TestVerifyCommands:
    def test_kernel_verify(self, tmp_path, capsys):
        code, out = run(tmp_path, "kv", "kernel-verify", "--d", "1",
                        "--t-list", "0.1,1,10", "--n-samples", "500")
        assert code == 0
        rep = json.loads((out / "kernel_verify.json").read_text())
        assert all(row["pass"] for row in rep["sandwich"])
        assert (out / "manifest.json").exists()
        assert (out / "kernel_verify.csv").exists()

    def test_gamma0(self, tmp_path, capsys):
        code, out = run(tmp_path, "g0", "gamma0", "--alpha", "0.3",
                        "--rho", "1", "--d", "1", "--lambda", "2")
        assert code == 0
        rep = json.loads((out / "gamma0.json").read_text())
        assert rep["residual"] < 1e-9
        assert rep["gamma0"] > 0

    def test_cov_eval(self, tmp_path, capsys):
        code, out = run(tmp_path, "ce", "cov-eval", "--alpha", "0.3",
                        "--x", "1.0")
        assert code == 0
        rep = json.loads((out / "cov_eval.json").read_text())
        assert rep["abs_difference"] < 1e-6

    def test_noise_verify(self, tmp_path, capsys):
        code, out = run(tmp_path, "nv", "noise-verify", "--alpha", "0.3",
                        "--rho", "1", "--n-samples", "2000")
        assert code == 0


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--alpha", "0.3", "--rho", "1", "--lambda", "1",
                "--t-final", "0.05", "--dt", "0.01", "--grid-n", "16",
                "--mode-k", "5", "--seed", "42"]
        _, out_a = run(tmp_path, "a", *args)
        _, out_b = run(tmp_path, "b", *args)
        cmp = filecmp.dircmp(out_a, out_b)
        assert not cmp.diff_files
        assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b))

    def test_manifest_has_no_timestamps(self, tmp_path, capsys):
        _, out = run(tmp_path, "m", "kernel-eval", "--t", "1.0", "--x", "0.5")
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"tool", "version", "command", "parameters"}


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["definitely-not-a-command"]) == 1

    def test_domain_error_is_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "bad", "kernel-eval", "--t", "-1", "--x", "0")
        assert code == 1

    def test_missing_alpha_is_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "noalpha", "cov-eval", "--x", "1.0")
        assert code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_field_is_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "nan", "simulate", "--alpha", "0.3", "--rho",
                      "1", "--lambda", "1e200", "--t-final", "0.1", "--dt",
                      "0.01", "--grid-n", "16", "--mode-k", "5")
        assert code == 1
        assert "non-finite field after step 2" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"alpha": 0.45, "rho": 2.0}))
        code, out = run(tmp_path, "p1", "cov-rho-star", "--config", str(conf),
                        "--alpha", "0.3")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["alpha"] == 0.3

    def test_config_fills_defaults(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"alpha": 0.45, "rho": 2.0}))
        code, out = run(tmp_path, "p2", "cov-eval", "--config", str(conf),
                        "--x", "1.0")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["alpha"] == 0.45
        assert manifest["parameters"]["rho"] == 2.0


class TestArtifacts:
    def test_simulate_fields_readable(self, tmp_path, capsys):
        from torpam.noise_field import read_field_binary

        _, out = run(tmp_path, "sim", "simulate", "--alpha", "0.3", "--rho",
                     "1", "--lambda", "1", "--t-final", "0.04", "--dt",
                     "0.01", "--grid-n", "16", "--mode-k", "5", "--seed",
                     "7", "--t-out", "0.02,0.04")
        fields = sorted(p for p in os.listdir(out) if p.endswith(".bin"))
        assert len(fields) == 2
        data, meta = read_field_binary(out / fields[0])
        assert data.shape == (16,)
        assert meta["seed"] == 7

    def test_noise_sample_csv(self, tmp_path, capsys):
        code, out = run(tmp_path, "ns", "noise-sample", "--alpha", "0.3",
                        "--rho", "1", "--grid-n", "33", "--kmax", "16",
                        "--format", "csv")
        assert code == 0
        assert (out / "increment.csv").exists()
        assert (out / "increment.bin").exists()
