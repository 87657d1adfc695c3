import filecmp
import json
import os

import pytest

from torpam.cli import COMMANDS, main


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


S = ["--alpha", "0.3", "--rho", "1"]
SOLVER = ["--grid-n", "16", "--mode-k", "5", "--dt", "0.01"]
# every subcommand at a tiny size, with the exact files it writes
SMOKE = {
    "kernel-eval": (["--t", "1.0", "--x", "0.5"], {"kernel_eval.json"}),
    "kernel-verify": (["--t-list", "0.1,1", "--n-samples", "50"],
                      {"kernel_verify.json", "kernel_verify.csv"}),
    "cov-eval": (S + ["--x", "1.0", "--kmax", "8"], {"cov_eval.json"}),
    "cov-rho-star": (["--alpha", "0.3"], {"rho_star.json"}),
    "noise-sample": (S + ["--grid-n", "16", "--kmax", "5", "--format", "csv"],
                     {"noise_sample.json", "increment.bin", "increment.csv"}),
    "noise-verify": (S + ["--grid-n", "9", "--n-samples", "1000"],
                     {"noise_verify.json"}),
    "moments-table": (S + ["--n-max", "2", "--t-max", "1", "--n-t", "5"],
                      {"moments_table.json", "hn_table.csv"}),
    "gamma0": (S + ["--lambda", "2"], {"gamma0.json"}),
    "bridge-verify": (["--n-samples", "100"], {"bridge_verify.json"}),
    "simulate": (S + SOLVER + ["--t-final", "0.02", "--format", "csv"],
                 {"simulate.json", "trajectory_times.csv"}
                 | {f"field_000{i}.{ext}" for i in range(3)
                    for ext in ("bin", "csv")}),
    "mc-moments": (S + SOLVER + ["--t-list", "0.02", "--n-samples", "8",
                                 "--threads", "1"],
                   {"mc_moments.json", "mc_moments.csv"}),
    "two-point": (S + ["--n-max", "1"], {"two_point.json"}),
    "resolvent": (S + ["--n-max", "1", "--n-t", "3", "--q-grid-n", "9"],
                  {"resolvent.json"}),
    "feynman-kac": (S + ["--n-paths", "20", "--t", "0.05", "--dt-bm", "0.01"],
                    {"feynman_kac.json"}),
    "ergodic-check": (["--alpha", "0.3", "--rho", "2", "--t-list", "0.5",
                       "--n-paths", "10"], {"ergodic.json", "ergodic.csv"}),
    "holder": (S + ["--grid-n", "48", "--mode-k", "15", "--dt", "0.00390625",
                    "--n-paths", "2"], {"holder.json"}),
}


class TestEveryCommand:
    def test_smoke_covers_the_table(self):
        assert set(SMOKE) == set(COMMANDS)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", sorted(SMOKE))
    def test_smoke(self, tmp_path, capsys, command):
        argv, files = SMOKE[command]
        code, out = run(tmp_path, "s", command, *argv)
        assert code in (0, 2)
        assert set(os.listdir(out)) == files | {"manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command

    # kernel-eval's --t and --x are required flags, filled from the config
    @pytest.mark.parametrize("argv", [
        ["simulate", *S, "--lambda", "0.7", "--t-final", "0.04", "--dt",
         "0.01", "--grid-n", "16", "--mode-k", "5", "--seed", "9",
         "--t-out", "0.02,0.04", "--mu", "delta"],
        ["kernel-eval", "--d", "2", "--t", "0.3", "--x", "0.5,1"],
    ])
    def test_manifest_replays_as_config(self, tmp_path, capsys, argv):
        _, out_a = run(tmp_path, "a", *argv)
        manifest = json.loads((out_a / "manifest.json").read_text())
        conf = tmp_path / "replay.json"
        out_b = tmp_path / "b"
        replay = dict(manifest["parameters"], out=str(out_b))
        if "seed" in manifest:
            replay["seed"] = manifest["seed"]
        conf.write_text(json.dumps(replay))
        assert main([argv[0], "--config", str(conf)]) == 0
        cmp = filecmp.dircmp(out_a, out_b)
        assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b))
        assert not cmp.diff_files and not cmp.funny_files

    def test_manifest_records_mass(self, tmp_path, capsys):
        manifests = []
        for mass in ("1", "2"):
            _, out = run(tmp_path, f"m{mass}", "two-point", *S, "--n-max",
                         "1", "--mass", mass)
            manifests.append((out / "manifest.json").read_text())
        assert manifests[0] != manifests[1]


class TestBadInput:
    @pytest.mark.parametrize("argv,config", [
        (["kernel-eval", "--t", "1", "--x", "abc"], None),
        (["mc-moments", "--alpha", "0.3", "--t-list", "0.5,x"], None),
        (["cov-rho-star"], "{not json"),
        (["cov-rho-star"], "[0.3]"),
        (["cov-rho-star"], '{"alpha": [0.3, 0.5]}'),
    ])
    def test_one_line_error_and_nothing_written(self, tmp_path, capsys,
                                                argv, config):
        if config is not None:
            path = tmp_path / "conf.json"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code, out = run(tmp_path, "bad", *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_ergodic_horizon_below_half_step_is_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "erg", "ergodic-check", "--alpha", "0.3",
                      "--rho", "2", "--t-list", "0.004", "--n-paths", "4")
        assert code == 1
        assert "shorter than half a step" in capsys.readouterr().err

    def test_run_flags_only_where_read(self, tmp_path, capsys):
        assert run(tmp_path, "k", "kernel-eval", "--t", "1", "--x", "0",
                   "--seed", "3")[0] == 1
        assert run(tmp_path, "h", "holder", *S, "--threads", "2")[0] == 1
