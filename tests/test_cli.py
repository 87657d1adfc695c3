import filecmp
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import torpam
from torpam import experiments as ex
from torpam import moment_calculus as mc
from torpam import pam_solver
from torpam.cli import COMMANDS, main
from torpam.covariance import NoiseSpec
from torpam.noise_field import IncrementSampler
from torpam.pam_solver import InitialMeasure, SolverConfig, solve


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
        sol = mc.gamma0(2.0, NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=2.0))
        assert rep == {"lambda": sol.lam, "gamma0": sol.gamma0,
                       "theta_at_gamma0": sol.theta_at_gamma0,
                       "residual": sol.residual,
                       "mode_cutoff": sol.mode_cutoff, "pass": True}

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

    @pytest.mark.parametrize("d,x", [("2", "0.3"), ("1", "0.3,0.2,0.1")])
    def test_kernel_eval_point_of_wrong_dimension_is_one(self, tmp_path,
                                                         capsys, d, x):
        code, out = run(tmp_path, "dim", "kernel-eval", "--d", d, "--t",
                        "0.5", "--x", x)
        assert code == 1
        assert "--x has" in capsys.readouterr().err
        assert not (out / "kernel_eval.json").exists()

    def test_missing_alpha_is_one(self, tmp_path, capsys):
        code, out = run(tmp_path, "noalpha", "cov-eval", "--x", "1.0")
        assert code == 1
        assert "required: --alpha" in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_list_value(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"alpha": 0.3, "x": [-1.0]}))
        code, out = run(tmp_path, "neg", "cov-eval", "--config", str(conf))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["x"] == [-1.0]

    def test_keys_without_a_flag_are_ignored(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"t": 1.0, "x": [0.5], "seed": 3,
                                    "alpha": 0.3}))
        argv = ["kernel-eval", "--config", str(conf)]
        assert main(argv + ["--out", str(tmp_path / "k")]) == 0
        assert argv == ["kernel-eval", "--config", str(conf)]
        manifest = json.loads((tmp_path / "k" / "manifest.json").read_text())
        assert "seed" not in manifest
        assert manifest["parameters"] == {"d": 1, "t": 1.0, "x": [0.5]}


class TestArtifacts:
    def test_simulate_fields_readable(self, tmp_path, capsys):
        _, out = run(tmp_path, "sim", "simulate", "--alpha", "0.3", "--rho",
                     "1", "--lambda", "1", "--t-final", "0.04", "--dt",
                     "0.01", "--grid-n", "16", "--mode-k", "5", "--seed",
                     "7", "--t-out", "0.02,0.04")
        fields = sorted(p for p in os.listdir(out) if p.endswith(".npy"))
        assert fields == ["field_0000.npy", "field_0001.npy"]
        config = SolverConfig(spec=NoiseSpec(d=1, alpha=0.3, rho=1.0,
                                             lam=1.0),
                              grid_n=16, mode_k=5, dt=0.01, t_final=0.04)
        traj = solve(config, InitialMeasure.uniform(1.0), 7,
                     output_times=[0.02, 0.04])
        for name, field in zip(fields, traj.fields):
            data = np.load(out / name)
            assert data.dtype == field.dtype and data.shape == (16,)
            assert data.tobytes() == field.tobytes()

    def test_noise_sample_csv(self, tmp_path, capsys):
        code, out = run(tmp_path, "ns", "noise-sample", "--alpha", "0.3",
                        "--rho", "1", "--grid-n", "33", "--kmax", "16",
                        "--format", "csv")
        assert code == 0
        assert (out / "increment.csv").exists()
        field = IncrementSampler(NoiseSpec(d=1, alpha=0.3, rho=1.0), 16, 33,
                                 0.01).draw(0, 0)
        assert np.load(out / "increment.npy").tobytes() == field.tobytes()

    @pytest.mark.parametrize("command,d,field", [
        ("simulate", "1", "field_0001"), ("simulate", "2", "field_0001"),
        ("noise-sample", "1", "increment"), ("noise-sample", "2", "increment"),
    ])
    def test_field_csv_reads_back_as_its_npy(self, tmp_path, capsys, command,
                                            d, field):
        extra = (SOLVER + ["--t-final", "0.02"] if command == "simulate"
                 else ["--grid-n", "16", "--kmax", "5"])
        code, out = run(tmp_path, "f", command, *S, "--d", d, *extra,
                        "--format", "csv")
        assert code == 0
        npy = np.load(out / f"{field}.npy")
        back = np.loadtxt(out / f"{field}.csv", delimiter=",")
        assert np.array_equal(back.reshape(npy.shape), npy)

    def test_hn_table_csv_reads_back_bitwise(self, tmp_path, capsys):
        code, out = run(tmp_path, "mt", "moments-table", *S, "--n-max", "3",
                        "--t-max", "2", "--n-t", "41")
        assert code == 0
        lines = (out / "hn_table.csv").read_text().splitlines()
        assert lines[0] == "t,h0,h1,h2,h3"
        back = np.loadtxt(out / "hn_table.csv", delimiter=",", skiprows=1)
        grid = np.linspace(0.0, 2.0, 41)
        table = mc.hn_table(NoiseSpec(d=1, alpha=0.3, rho=1.0), 3, grid)
        assert np.array_equal(back[:, 0], grid)
        assert np.array_equal(back[:, 1:].T, table.values)


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
                     {"noise_sample.json", "increment.npy", "increment.csv"}),
    "noise-verify": (S + ["--grid-n", "9", "--n-samples", "1000"],
                     {"noise_verify.json"}),
    "moments-table": (S + ["--n-max", "2", "--t-max", "1", "--n-t", "5"],
                      {"moments_table.json", "hn_table.csv"}),
    "gamma0": (S + ["--lambda", "2"], {"gamma0.json"}),
    "bridge-verify": (["--n-samples", "100"], {"bridge_verify.json"}),
    "simulate": (S + SOLVER + ["--t-final", "0.02", "--format", "csv"],
                 {"simulate.json", "trajectory_times.csv"}
                 | {f"field_000{i}.{ext}" for i in range(3)
                    for ext in ("npy", "csv")}),
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
        for name in files:
            if name.endswith(".csv"):
                assert b"\r" not in (out / name).read_bytes()

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
        (["noise-sample", "--alpha", "0.3"], '{"format": "xml"}'),
        (["holder", "--alpha", "0.3"], '{"mu": "delta"}'),
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

    # refused after the flags parsed: by the noise spec or inside the
    # compute function (argparse's float() reads "nan" as a number)
    @pytest.mark.parametrize("argv,message", [
        (["simulate", *S, "--t-out", "0.3"], "output time 0.3"),
        (["ergodic-check", *S, "--t-list", "1.004", "--n-paths", "4"],
         "horizon t = 1.004"),
        (["feynman-kac", *S, "--mass", "nan"], "mass must be finite"),
        (["simulate", *S, "--dt", "nan"], "dt must be finite"),
        (["feynman-kac", *S, "--t", "nan"], "horizon t must be finite"),
        (["mc-moments", *S, "--t-list", "nan"], "t_final must be finite"),
        (["ergodic-check", *S, "--t-list", "0.5,nan"],
         "horizons must be finite"),
        (["gamma0", "--alpha", "0.3", "--rho", "nan"], "rho must be finite"),
        (["cov-eval", "--alpha", "nan", "--x", "1"], "alpha must be finite"),
        (["simulate", *S, "--lambda", "nan"], "lam must be finite"),
        (["feynman-kac", *S, "--t", "-1"], "horizon t = -1 is negative"),
        (["kernel-eval", "--t", "nan", "--x", "0"],
         "heat_kernel requires a finite t, got nan"),
        (["mc-moments", *S, "--threads", "0"], "threads must be >= 1"),
        (["ergodic-check", *S, "--n-paths", "1"], "needs n_paths >= 2"),
        (["feynman-kac", *S, "--n-paths", "0"], "needs n_paths >= 2"),
        (["feynman-kac", *S, "--dt-bm", "0"], "dt_bm = 0 must be positive"),
        (["feynman-kac", *S, "--dt-bm", "-0.01"],
         "dt_bm = -0.01 must be positive"),
        (["simulate", *S, "--t-out", "0.5,0.5"],
         "output times [0.5, 0.5] round to the same step"),
        (["mc-moments", *S, "--t-list", "0.5,0.5"],
         "output times [0.5, 0.5] round to the same step"),
        (["cov-eval", *S, "--x", "0.3", "--kmax", "0"], "kmax = 0 must be >= 1"),
        (["cov-eval", *S, "--x", "0.3", "--kmax", "-3"], "kmax = -3 must be >= 1"),
        (["feynman-kac", *S, "--kmax", "-2"], "kmax = -2 must be >= 0"),
        (["simulate", *S, "--mode-k", "-1"], "mode_k = -1 must be >= 0"),
        (["noise-sample", *S, "--kmax", "-1"], "kmax = -1 must be >= 0"),
        (["noise-sample", *S, "--dt", "nan"],
         "dt = nan must be positive and finite"),
        (["noise-sample", *S, "--dt", "inf"],
         "dt = inf must be positive and finite"),
        (["noise-verify", *S, "--dt", "nan"],
         "dt = nan must be positive and finite"),
        (["bridge-verify", "--n-samples", "0"], "n_samples = 0 must be >= 1"),
        (["bridge-verify", "--n-samples", "-5"],
         "n_samples = -5 must be >= 1"),
        (["bridge-verify", "--d", "0"], "d = 0 must be >= 1"),
        (["bridge-verify", "--eps", "nan"],
         "eps = nan must be positive and finite"),
        (["bridge-verify", "--eps", "-1"],
         "eps = -1 must be positive and finite"),
    ])
    def test_refused_in_compute_writes_nothing(self, tmp_path, capsys, argv,
                                               message):
        code, out = run(tmp_path, "refused", *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not out.exists()

    def test_ergodic_horizon_below_half_step_is_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "erg", "ergodic-check", "--alpha", "0.3",
                      "--rho", "2", "--t-list", "0.004", "--n-paths", "4")
        assert code == 1
        assert "shorter than half a step" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["ergodic-check", "--t-list", "1.004", "--n-paths", "4"],
         "horizon t = 1.004 is not a whole number of steps dt_bm = 0.01"),
        (["simulate", "--t-final", "0.3"],
         "t_final = 0.3 is not a whole number of steps dt = 0.00390625"),
    ])
    def test_rounded_horizon_is_one(self, tmp_path, capsys, argv, message):
        code, _ = run(tmp_path, "rounded", *argv, *S)
        assert code == 1
        assert message in capsys.readouterr().err

    def test_run_flags_only_where_read(self, tmp_path, capsys):
        assert run(tmp_path, "k", "kernel-eval", "--t", "1", "--x", "0",
                   "--seed", "3")[0] == 1
        assert run(tmp_path, "h", "holder", *S, "--threads", "2")[0] == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-final", "0.02"],
        ["mc-moments", "--t-list", "0.02", "--n-samples", "8"],
    ])
    def test_delta_with_mass_is_one(self, tmp_path, capsys, argv):
        code, _ = run(tmp_path, "dm", *argv, *S, *SOLVER, "--mu", "delta",
                      "--mass", "3")
        assert code == 1
        assert "--mass 3 with --mu delta" in capsys.readouterr().err

    def test_output_time_outside_the_march_is_one(self, tmp_path, capsys):
        code, _ = run(tmp_path, "late", "simulate", *S, *SOLVER,
                      "--t-final", "0.02", "--t-out", "5")
        assert code == 1
        assert "output time 5 lies outside the march" in \
            capsys.readouterr().err


def _fresh(code):
    """Run ``code`` in a fresh interpreter on this torpam and return the
    scipy modules it left loaded (the pytest process has loaded scipy)."""
    src = os.path.dirname(os.path.dirname(torpam.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.startswith('scipy'))))")
    done = subprocess.run([sys.executable, "-c", code], text=True,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# every subcommand that runs no quadrature (the Ewald split's incomplete
# gamma, the Riesz constant and k1_laplace's tail are closed forms, and the
# bridge draws its Sobol points in numpy)
SCIPY_FREE = ["kernel-eval", "kernel-verify", "cov-rho-star", "noise-sample",
              "noise-verify", "moments-table", "gamma0", "bridge-verify",
              "simulate", "mc-moments", "two-point", "resolvent",
              "feynman-kac", "ergodic-check", "holder"]


class TestColdStart:
    """scipy is imported inside the functions that call it, so a fresh
    process that never calls them starts without it."""

    def test_no_module_imports_scipy(self):
        names = [m.name for m in pkgutil.iter_modules(torpam.__path__)]
        assert "cli" in names
        assert _fresh("".join(f"import torpam.{m}\n" for m in names)) == []

    def test_commands_without_quadrature_load_no_scipy(self, tmp_path):
        code = "from torpam.cli import main\n" + "".join(
            f"assert main({[c, *SMOKE[c][0], '--out', str(tmp_path / c)]!r})"
            " in (0, 2)\n" for c in SCIPY_FREE)
        assert _fresh(code) == []

    def test_moment_bound_route_loads_no_scipy(self):
        # gamma0, H_lambda's march and the lower bound's covariance scan
        assert _fresh(
            "import numpy as np\n"
            "from torpam import experiments as ex, moment_calculus as mc\n"
            "from torpam.covariance import NoiseSpec\n"
            "from torpam.pam_solver import InitialMeasure, SolverConfig\n"
            "spec = NoiseSpec(d=1, alpha=0.3, rho=5.0, lam=0.5)\n"
            "mu = InitialMeasure.uniform(1.0)\n"
            "mc.gamma0(2.0, spec)\n"
            "mc.p_moment_upper(0.5, [0.0], 2.0, mu, spec)\n"
            "mc.hn_table(spec, 2, np.linspace(0.0, 1.0, 11))\n"
            "config = SolverConfig(spec=spec, grid_n=16, mode_k=5, dt=0.01,\n"
            "                      t_final=0.02)\n"
            "[row] = ex.moment_bound_report(config, mu, 8, [0.02], [0.0],\n"
            "                               rho_suff=5.0)\n"
            "assert 'lower' in row\n") == []

    def test_bridge_sweeps_load_no_scipy(self):
        # criterion 6's Sobol draws and image-sum log-sum-exp
        assert _fresh(
            "from torpam import bridge as br\n"
            "for d in (1, 2):\n"
            "    br.check_large_time_bound(1.0, 2.0, d=d, n_samples=1000)\n"
            "    br.fit_image_sum_constant(d=d, n_samples=1000)\n"
            "br.check_image_sum_bound(0.5, 0.2, [0.0], [0.1], [0.3])\n") == []

    def test_deferred_import_resolves(self, tmp_path):
        argv = ["cov-eval", "--alpha", "0.3", "--x", "1", "--out",
                str(tmp_path / "c")]
        loaded = _fresh("from torpam.cli import main\n"
                        f"assert main({argv!r}) == 0")
        assert {"scipy.integrate", "scipy.special"} <= set(loaded)


class TestThreadsDefault:
    """--threads defaults to the CPUs the process may run on, the count the
    solver's noise prefetch also reads."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the platform has no CPU affinity")
    def test_default_follows_the_affinity(self):
        _fresh("import os\n"
               "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
               "from torpam.cli import RUN_FLAGS\n"
               "assert RUN_FLAGS['threads'][1] == 1, RUN_FLAGS['threads']\n")

    def test_mc_moments_default(self, tmp_path, monkeypatch):
        seen, real = [], ex.moment_bound_report

        def report(*args, **kwargs):
            seen.append(kwargs["threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(ex, "moment_bound_report", report)
        code, out = run(tmp_path, "m", "mc-moments", *S, *SOLVER,
                        "--t-list", "0.02", "--n-samples", "8")
        assert code in (0, 2)
        assert seen == [pam_solver.cpu_count()]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "threads" not in manifest["parameters"]
