"""cli: config dispatch, reproducibility, exit codes, plot data."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import alloymsa
from alloymsa import (Configuration, companion_radius, eigensolve,
                      find_leading_index, make_box, mc, restrict_hamiltonian)
from alloymsa.cli import load_model, main, run_experiment
from helpers import blas_threads

DELTA0_MODEL = {
    "d": 1,
    "u": {"d": 1, "values": [[[0], 1.0]], "C": 1.0, "alpha": 1.0,
          "truncation_radius": 0, "truncation_residual": 0.0},
    "rho": {"uniform": [0.0, 1.0]},
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestGenfunKind:
    def test_reports_leading_index(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {
            "model": DELTA0_MODEL, "params": {"ls": [2.0, 4.0]}, "seed": 1,
        })
        rc = main(["analyze-potential", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "genfun_summary.json").read_text())
        assert summary["constants"]["I0"] == [0]
        assert summary["constants"]["c_u"] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {
            "model": DELTA0_MODEL, "params": {"ls": [2.0]}, "seed": 7,
        })
        outs = []
        for sub in ("a", "b"):
            main(["analyze-potential", "--config", str(cfg),
                  "--out", str(tmp_path / sub)])
            outs.append((tmp_path / sub / "genfun_summary.json").read_bytes())
        assert outs[0] == outs[1]


class TestWegnerKind:
    def test_thread_count_invariance(self, tmp_path):
        cfg = write_config(tmp_path, "w.json", {
            "model": DELTA0_MODEL,
            "params": {"ls": [2, 3], "interval": [1.9, 2.1]},
            "seed": 5, "trials": 40,
        })
        blobs = []
        for sub, threads in (("t1", "1"), ("t8", "8")):
            rc = main(["wegner", "--config", str(cfg), "--threads", threads,
                       "--out", str(tmp_path / sub)])
            assert rc == 0
            blob = b"".join(
                (tmp_path / sub / n).read_bytes()
                for n in ("wegner.csv", "wegner_summary.json"))
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, "w.json", {
            "model": DELTA0_MODEL, "params": {"ls": [2]}, "seed": 5,
            "trials": 20,
        })
        main(["wegner", "--config", str(cfg), "--out", str(tmp_path / "o")])
        header = (tmp_path / "o" / "wegner.csv").read_text().splitlines()[0]
        assert header == ("d,l,R_l,interval_lo,interval_hi,trials,mean,"
                          "std_error,bound,chain,bv_norm")


class TestScheduleKind:
    def test_schedule_export(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "model": DELTA0_MODEL,
            "params": {"msa": {"xi": 8.0, "kappa": 1.5, "beta": 0.6,
                                "q": 0.5, "m0": 0.5, "l0": 25000.0},
                       "k_max": 25},
        })
        rc = main(["msa-schedule", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "schedule.json").read_text())
        assert len(data["m"]) == 26
        assert all(m >= data["m_inf"] for m in data["m"])
        plot = (tmp_path / "o" / "schedule_plot.csv").read_text().splitlines()
        assert plot[0] == "k,l_k,m_k"
        assert len(plot) == 27
        # m_k >= q m0 is scale_schedule's to enforce, and the mass lost over
        # the schedule telescopes to m0 - m_K: no contract restates either
        summary = json.loads(
            (tmp_path / "o" / "msa_schedule_summary.json").read_text())
        assert [c["name"] for c in summary["contracts"]] == ["parameters_valid"]

    def test_invalid_parameters_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "model": DELTA0_MODEL,
            "params": {"msa": {"xi": 8.0, "kappa": 1.5, "beta": 0.6,
                                "q": 0.5, "m0": 0.5, "l0": 10.0}},
        })
        assert main(["msa-schedule", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_l_bar_past_the_doubles_fails_parameters_valid(self, tmp_path,
                                                            capsys):
        # at beta = 0.9999 the power -kappa/(1-beta) = -15000 takes l_bar
        # past the largest double: inf, which no l0 reaches
        cfg = write_config(tmp_path, "s.json", {
            "model": DELTA0_MODEL,
            "params": {"msa": {"xi": 8, "kappa": 1.5, "beta": 0.9999,
                                "q": 0.5, "m0": 2, "l0": 25000}},
        })
        assert main(["msa-schedule", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ""
        summary = json.loads(
            (tmp_path / "o" / "msa_schedule_summary.json").read_text())
        assert summary["constants"]["l_bar"] == math.inf
        assert summary["constants"]["l_bar_sharp"] == math.inf
        [contract] = summary["contracts"]
        assert contract["name"] == "parameters_valid"
        assert not contract["passed"] and "l_bar=inf" in contract["detail"]

    def test_thresholds_are_the_smallest_integer_scales(self, tmp_path):
        # written N.0 whatever path the search took; l0 = l5* = l* passes
        model, params = ADMITTED["msa-schedule"]
        cfg = write_config(tmp_path, "s.json", {
            "model": model,
            "params": {**params, "msa": {**params["msa"], "l0": 24914.0}},
        })
        assert main(["msa-schedule", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "msa_schedule_summary.json").read_text()
        for line in ('"l4": 2.0,', '"l5": 24914.0,', '"l6": 12478.0,',
                     '"l_star": 24914.0,'):
            assert line in text
        [contract] = json.loads(text)["contracts"]
        assert contract["name"] == "parameters_valid" and contract["passed"]

    def test_thresholds_past_the_doubles_fail_parameters_valid(self, tmp_path,
                                                               capsys):
        # near kappa = 1 the search passes 1e12 for l2, l6 and l7 without
        # overflowing (24 l + 2)^zeta or L^zeta: inf, which no l0 reaches
        cfg = write_config(tmp_path, "s.json", {
            "model": P2_MODEL,
            "params": {"msa": {"xi": 8, "kappa": 1.05, "beta": 0.96,
                                "q": 0.5, "m0": 0.5, "l0": 1e12}},
        })
        assert main(["msa-schedule", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ""
        text = (tmp_path / "o" / "msa_schedule_summary.json").read_text()
        for line in ('"l2": Infinity,', '"l5": 348.0,', '"l6": Infinity,',
                     '"l7": Infinity,', '"l_star": Infinity,'):
            assert line in text
        [contract] = json.loads(text)["contracts"]
        assert not contract["passed"] and "l*=inf" in contract["detail"]


class TestSingularityKind:
    def test_energy_column_plain_floats(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "model": DELTA0_MODEL,
            "params": {"l": 2.0, "m": 0.3, "interval": [0.4, 0.6],
                       "energy_grid": 11},
            "seed": 3, "trials": 4,
        })
        blobs = []
        for sub, threads in (("t1", "1"), ("t2", "2")):
            rc = main(["msa-probe", "--config", str(cfg), "--threads", threads,
                       "--out", str(tmp_path / sub)])
            assert rc == 0
            blobs.append((tmp_path / sub / "singularity.csv").read_text())
        assert blobs[0] == blobs[1]
        energies = [line.split(",")[0] for line in blobs[0].splitlines()[1:]]
        assert energies == [repr(float(E)) for E in np.linspace(0.4, 0.6, 11)]

    @pytest.mark.parametrize("rho, m, interval", [
        ([0.0, 1.0], 0.1, [-1.0, 6.0]),   # 0 in supp rho: zeroed witness
        ([1.0, 2.0], 0.3, [1.0, 3.0]),    # 0 not in supp rho
    ])
    def test_bracket_path_thread_invariant(self, tmp_path, rho, m, interval):
        # truncation_residual > 0 gives delta > 0, so the bracket decides
        model = {"d": 2, "u": {**P2_MODEL["u"], "truncation_residual": 1e-6},
                 "rho": {"uniform": rho}}
        files = run_both_thread_counts(tmp_path, "msa-probe", {
            "model": model,
            "params": {"l": 2, "m": m, "interval": interval,
                       "energy_grid": 21},
            "seed": 3, "trials": 8,
        }, expect_rc=0)
        rows = files["singularity.csv"].decode().splitlines()[1:]
        counts = [int(row.split(",")[1]) for row in rows]
        assert len(counts) == 21
        assert 0 in counts and any(0 < c < 8 for c in counts)

    @pytest.mark.parametrize("grid, rc", [(123, 0), (124, 4)])
    def test_grid_capacity(self, tmp_path, capsys, monkeypatch, grid, rc):
        # n K <= cap^2: 81 sites x 123 energies fit under a cap of 100
        # points, 124 are refused before any trial
        monkeypatch.setenv("ALLOYMSA_CAPACITY", "100")
        if rc:
            monkeypatch.setattr(mc, "run_trials", pytest.fail)
        cfg = write_config(tmp_path, "m.json", {
            "model": P2_MODEL,
            "params": {"l": 4, "m": 0.1, "interval": [0.4, 0.6],
                       "energy_grid": grid},
            "seed": 3, "trials": 1,
        })
        assert main(["msa-probe", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == rc
        err = capsys.readouterr().err
        assert err.count("\n") == (1 if rc else 0)
        assert (tmp_path / "o" / "singularity.csv").exists() == (not rc)

    @pytest.mark.parametrize("params", [
        {"m": math.nan},
        {"m": 0.0},
        {"l": math.nan},
        {"l": -2.0},
        {"interval": [math.nan, 0.6]},
        {"interval": [0.6, 0.4]},
        {"interval": 5},
        {"energy_grid": 0},
        {"energy_grid": 2.5},
        {"energy_grid": [0.5, math.inf]},
        {"energy_grid": [], "p_hi_max": 0.0},
        {"energy_grid": [0.5, 0.5, 0.7]},
        {"energy_grid": [0.0, -0.0]},
        {"interval": [0.5, 0.5], "energy_grid": 3},
        {"energy_grid": "x"},
    ])
    def test_bad_params_exit_3_before_any_trial(self, tmp_path, capsys,
                                                monkeypatch, params):
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        cfg = write_config(tmp_path, "m.json", {
            "model": DELTA0_MODEL,
            "params": {"l": 2.0, "m": 0.3, "interval": [0.4, 0.6],
                       "energy_grid": 11, **params},
            "seed": 3, "trials": 4,
        })
        assert main(["msa-probe", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "singularity.csv").exists()


class TestErrorPaths:
    def test_schema_violation_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"model": {"d": 1}})
        assert main(["wegner", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["wegner", "--config", str(tmp_path / "nope.json")]) == 3

    # argparse's own exit code, 2, is that of a failed contract here
    @pytest.mark.parametrize("argv, message", [
        (["wegner"], "the following arguments are required: --config"),
        (["wegner", "--config", "c.json", "--bogus"],
         "unrecognized arguments: --bogus")],
        ids=["without-config", "unknown-flag"])
    def test_usage_error_exit_3(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: alloymsa")
        assert err.endswith(f" error: {message}\n")

    def test_table_dimension_disagrees_with_model_exit_3(self, tmp_path,
                                                          capsys, monkeypatch):
        # a 1-d table whose own d is left to the model's d = 2
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        u = {k: v for k, v in DELTA0_MODEL["u"].items() if k != "d"}
        cfg = write_config(tmp_path, "c.json", {
            "model": {**DELTA0_MODEL, "d": 2, "u": u},
            "params": {"l": 3.0}, "seed": 1, "trials": 2})
        assert main(["decay", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: potential dimension disagrees with model d\n")

    def test_trials_flag_overrides_config(self, tmp_path):
        # the summary hashes the config after the override, so every file
        # equals that of a config that sets the same trials
        payload = {"model": DELTA0_MODEL, "params": {"ls": [2]}, "seed": 5}
        outs = []
        for name, trials, flag in (("a", 6, []), ("b", 40, ["--trials", "6"])):
            cfg = write_config(tmp_path, f"{name}.json",
                               {**payload, "trials": trials})
            assert main(["wegner", "--config", str(cfg), *flag,
                         "--out", str(tmp_path / name)]) == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted((tmp_path / name).iterdir())})
        assert outs[0] == outs[1]
        header, row = outs[1]["wegner.csv"].decode().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["trials"] == "6"

    @pytest.mark.parametrize("payload", [[1, 2], "x"], ids=["list", "string"])
    def test_config_not_an_object_exit_3(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["wegner", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_capacity_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALLOYMSA_CAPACITY", "10")
        cfg = write_config(tmp_path, "d.json", {
            "model": DELTA0_MODEL, "params": {"l": 20.0}, "seed": 1,
            "trials": 1,
        })
        assert main(["decay", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4

    def test_capacity_error_in_worker_process_exit_4(self, tmp_path,
                                                     monkeypatch, capsys):
        # Lambda_20 has 41 sites, whose 41 x 41 dense matrix is over the
        # cap^2 = 100 entries: each worker process raises at its first trial
        monkeypatch.setenv("ALLOYMSA_CAPACITY", "10")
        cfg = write_config(tmp_path, "d.json", {
            "model": DELTA0_MODEL, "params": {"l": 20.0}, "seed": 1,
            "trials": 4,
        })
        assert main(["decay", "--config", str(cfg), "--threads", "2",
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_killed_worker_process_exit_4(self, tmp_path):
        # the forked child kills itself at its first trial; this process
        # runs its own share to the end
        script = (
            "import os, signal, sys\n"
            "from alloymsa import cli, wegner\n"
            "parent = os.getpid()\n"
            "def dying(op, interval):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return 0\n"
            "wegner.count_eigenvalues_in = dying\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        cfg = write_config(tmp_path, "w.json", {
            "model": DELTA0_MODEL, "params": {"ls": [2]}, "seed": 1,
            "trials": 8,
        })
        env = dict(os.environ,
                   PYTHONPATH=str(Path(alloymsa.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "wegner", "--config", str(cfg),
             "--threads", "2", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


class TestDecayKind:
    def test_decay_run(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {
            "model": {**DELTA0_MODEL, "rho": {"uniform": [0.0, 50.0]}},
            "params": {"l": 8.0, "n_lowest": 2, "frac_min": 0.0},
            "seed": 2, "trials": 5,
        })
        rc = main(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        plot = (tmp_path / "o" / "decay_plot.csv").read_text().splitlines()
        assert plot[0] == "dist_inf,log_abs_psi"
        assert len(plot) > 3

    def test_plot_is_trial_zero_ground_state(self, tmp_path):
        model_cfg = {**DELTA0_MODEL, "rho": {"uniform": [0.0, 50.0]}}
        cfg = write_config(tmp_path, "d.json", {
            "model": model_cfg,
            "params": {"l": 8.0, "n_lowest": 2, "frac_min": 0.0},
            "seed": 4, "trials": 3,
        })
        rc = main(["decay", "--config", str(cfg), "--threads", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        u, model = load_model(model_cfg)
        box = make_box((0,), 8.0)
        domain = make_box((0,), 8.0 + u.truncation_radius + 0.25)
        values = model.sample(mc.trial_rng(4, 0), domain.count)
        op = restrict_hamiltonian(u, Configuration(domain, values), box)
        psi = np.abs(eigensolve(op, vectors=1).eigenvectors[:, 0])
        dist = np.abs(box.points[:, 0] - box.points[int(np.argmax(psi)), 0])
        shells = [(r, psi[dist == r].max()) for r in range(int(dist.max()) + 1)]
        expect = ["dist_inf,log_abs_psi"] + [
            f"{r},{math.log(a)!r}" for r, a in shells if a > 1e-14]
        plot = (tmp_path / "o" / "decay_plot.csv").read_text().splitlines()
        assert plot == expect


P2_MODEL = {
    "d": 2,
    "u": {"d": 2, "values": [[[0, 0], 1.0], [[1, 0], -0.6], [[0, 1], -0.3],
                             [[1, 1], 0.05]],
          "C": 2.0, "alpha": 1.0, "truncation_radius": 1,
          "truncation_residual": 0.0},
    "rho": {"uniform": [0.0, 1.0]},
}


# decay.csv and decay_plot.csv of the `decay-vectors` benchmark config at
# l = 10 (n = 441) with one BLAS thread, as written by scipy.linalg.eigh
# (dsyevr), which solves every n <= 512
DECAY_OUTPUTS = {
    11: {
        "decay.csv": (
            "trial,eigenvector,rate,r2\n"
            "0,0,-3.6841779516566007,0.9988121440406386\n"
            "0,1,-3.3932295465623414,0.9989760221957593\n"
            "0,2,-3.2416530807729615,0.9975247868602412\n"
            "1,0,-3.497461677063263,0.9983501832990854\n"
            "1,1,-3.3637756880470344,0.9929703610985386\n"
            "1,2,-3.3522577462090584,0.9965178465413815\n"),
        "decay_plot.csv": (
            "dist_inf,log_abs_psi\n"
            "0,-0.0005128784213197083\n"
            "1,-3.7926062292886527\n"
            "2,-7.216907779216482\n"
            "3,-11.427735480518725\n"
            "4,-15.524432011275426\n"
            "5,-19.08676765465284\n"
            "6,-22.287643129016296\n"
            "7,-25.902422395167097\n"
            "8,-29.230694310428074\n"),
    },
    12: {
        "decay.csv": (
            "trial,eigenvector,rate,r2\n"
            "0,0,-3.519358379087721,0.9994569637381215\n"
            "0,1,-3.2925529918552505,0.9939526447145524\n"
            "0,2,-3.1648755202371097,0.9976072042116149\n"
            "1,0,-3.4648230366808264,0.99959745716713\n"
            "1,1,-3.380705128342857,0.997661314495977\n"
            "1,2,-3.302012277086454,0.9947280499691331\n"),
        "decay_plot.csv": (
            "dist_inf,log_abs_psi\n"
            "0,-0.0015934368588709112\n"
            "1,-2.9859012459453687\n"
            "2,-6.459936458809129\n"
            "3,-10.336332801230624\n"
            "4,-13.900484518376418\n"
            "5,-17.839752294682015\n"
            "6,-20.663241688595814\n"
            "7,-24.364302089676208\n"
            "8,-27.913985824666224\n"
            "9,-31.307784315269032\n"),
    },
}


class TestDecayOutputsFrozen:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("seed", sorted(DECAY_OUTPUTS))
    def test_benchmark_config_bytes(self, tmp_path, seed, threads):
        self.assert_frozen(tmp_path, seed, threads, caller_blas_threads=1)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bytes_with_caller_blas_at_two_threads(self, tmp_path, threads):
        # the trial runner pins BLAS to one thread itself, at every --threads
        self.assert_frozen(tmp_path, 11, threads, caller_blas_threads=2)

    @staticmethod
    def assert_frozen(tmp_path, seed, threads, caller_blas_threads):
        cfg = write_config(tmp_path, "d.json", {
            "model": {**P2_MODEL, "rho": {"uniform": [0.0, 50.0]}},
            "params": {"l": 10, "n_lowest": 3}, "trials": 2,
        })
        with blas_threads(caller_blas_threads):
            assert main(["decay", "--config", str(cfg), "--seed", str(seed),
                         "--threads", threads,
                         "--out", str(tmp_path / "o")]) == 0
        for name, expect in DECAY_OUTPUTS[seed].items():
            assert (tmp_path / "o" / name).read_text() == expect


def neg_tail_model(mass: float, alpha: float = 4.0, radius: int = 6) -> dict:
    """1-d delta_0 with a negative tail of total mass `mass`."""
    weights = {k: math.exp(-alpha * abs(k))
               for k in range(-radius, radius + 1) if k}
    Z = sum(weights.values())
    values = [[[0], 1.0]] + [[[k], -mass * w / Z] for k, w in weights.items()]
    return {"d": 1,
            "u": {"d": 1, "values": values, "C": 1.0, "alpha": alpha,
                  "truncation_radius": radius, "truncation_residual": 0.0},
            "rho": {"uniform": [0.0, 1.0]}}


def run_both_thread_counts(tmp_path, command, payload, expect_rc):
    """Run at --threads 1 and 2; return the output files of the first run
    after checking both exit codes and that every file is byte-identical."""
    cfg = write_config(tmp_path, "c.json", payload)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        rc = main([command, "--config", str(cfg), "--threads", threads,
                   "--out", str(out)])
        assert rc == expect_rc
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    return outs[0]


class TestResonanceKind:
    def test_run(self, tmp_path):
        files = run_both_thread_counts(tmp_path, "resonance", {
            "model": P2_MODEL,
            "params": {"y": [200, 0], "l1": 3, "l2": 10},
            "seed": 11, "trials": 20,
        }, expect_rc=0)
        assert set(files) == {"resonance.csv", "resonance_summary.json"}
        lines = files["resonance.csv"].decode().splitlines()
        assert lines[0] == ("x,y,l1,l2,eps,trials,p_lo,p_hi,theory_bound,"
                            "delta1,delta2")
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[4]) for r in rows] == [1e-3, 1e-2, 1e-1]
        assert all(float(r[6]) <= float(r[7]) <= float(r[8]) for r in rows)


class TestLifshitzKind:
    def test_run(self, tmp_path):
        files = run_both_thread_counts(tmp_path, "lifshitz", {
            "model": neg_tail_model(1e-6),
            "params": {"zeta": 1.0, "xi": 2.0, "l_range": [15, 45]},
            "seed": 11, "trials": 20,
        }, expect_rc=0)
        assert set(files) == {"lifshitz.csv", "lifshitz_summary.json"}
        summary = json.loads(files["lifshitz_summary.json"])
        l = 16.0  # the first admissible length in [15, 45]
        assert summary["constants"]["delta"] == l ** -1.0 / 8.0

    def test_negative_mass_above_delta_exit_3(self, tmp_path):
        # delta = l^{zeta-2} / (8 w+) = 1/128 at l = 16
        cfg = write_config(tmp_path, "c.json", {
            "model": neg_tail_model(1.0 / 64.0),
            "params": {"zeta": 1.0, "xi": 2.0, "l": 16},
            "seed": 11, "trials": 2,
        })
        assert main(["lifshitz", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3


class TestLargeDisorderKind:
    def test_run(self, tmp_path):
        files = run_both_thread_counts(tmp_path, "large-disorder", {
            "model": {**P2_MODEL, "rho": {"uniform": [0.0, 50.0]}},
            "params": {"l0": 6, "m0": 5.0, "xi": 3.0},
            "seed": 11,
        }, expect_rc=0)
        assert set(files) == {"large_disorder.json",
                              "large_disorder_summary.json"}
        constants = json.loads(files["large_disorder.json"])
        assert constants["rhs_negative_exponent"] <= constants["target"]
        assert constants["rhs_printed"] > constants["target"]

    def test_unbounded_bv_norm_written_as_infinity(self, tmp_path):
        # delta_0 has no tail (delta0 = 0) and e^{-m0 l0} = e^{-1000} is 0 in
        # floating point: the sign-corrected rhs is 0, every BV norm closes
        # it, and the maximum is written as msa-schedule writes an
        # unbounded threshold
        files = run_both_thread_counts(tmp_path, "large-disorder", {
            "model": DELTA0_MODEL,
            "params": {"l0": 10, "m0": 100.0, "xi": 1.0}, "seed": 1,
        }, expect_rc=0)
        text = files["large_disorder.json"].decode()
        assert '"max_bv_negative_exponent": Infinity,' in text
        constants = json.loads(text)
        assert constants["delta0"] == constants["rhs_negative_exponent"] == 0.0
        summary = json.loads(files["large_disorder_summary.json"])
        assert summary["constants"]["max_bv_negative_exponent"] == math.inf
        assert summary["contracts"][0]["passed"]


    def test_printed_rhs_past_the_doubles_written_as_infinity(self, tmp_path):
        # m0 l0 = 705: the printed rhs exceeds the largest double, and its
        # maximal BV norm is subnormal, ~3.8e-313
        files = run_both_thread_counts(tmp_path, "large-disorder", {
            "model": {**DELTA0_MODEL, "rho": {"uniform": [0.0, 50.0]}},
            "params": {"l0": 7.05, "m0": 100, "xi": 1}, "seed": 1,
        }, expect_rc=0)
        text = files["large_disorder.json"].decode()
        assert '"rhs_printed": Infinity,' in text
        max_bv = json.loads(text)["max_bv_printed"]
        assert 0.0 < max_bv < sys.float_info.min


class TestDensityPieces:
    @pytest.mark.parametrize("command, params", [
        ("decay", {"l": 8.0, "n_lowest": 2, "frac_min": 0.0}),
        ("wegner", {"ls": [2, 3]})])
    def test_one_constant_piece_as_uniform(self, tmp_path, command, params):
        # the same density in both formats draws the same couplings; only
        # the summary, which hashes the config, differs
        csvs = []
        for name, rho in (("uniform", {"uniform": [0.0, 2.0]}),
                          ("pieces", {"pieces": [{"interval": [0.0, 2.0],
                                                  "coeffs": [0.5]}]})):
            cfg = write_config(tmp_path, f"{name}.json", {
                "model": {**DELTA0_MODEL, "rho": rho}, "params": params,
                "seed": 3, "trials": 6})
            out = tmp_path / name
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 0
            csvs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
        assert csvs[0] == csvs[1]
        assert len(csvs[0]) == 2


DELTA0_3D = {  # alpha = 3 keeps R_l = 8, so Gamma holds 4913 couplings
    "d": 3,
    "u": {"d": 3, "values": [[[0, 0, 0], 1.0]], "C": 1.0, "alpha": 3.0,
          "truncation_radius": 0, "truncation_residual": 0.0},
    "rho": {"uniform": [0.0, 1.0]},
}


def wegner_operators(model, l, seed, trials, exterior=None):
    """The operators of the trials of wegner.estimate_partial_expectation
    at the zero exterior (None) or at exterior e: the couplings of the
    domain Lambda_{max(R_l, l + r) + 1/4} drawn by stream e of
    seed ^ 0xE0, those of Gamma = Lambda_{R_l} redrawn in each trial, on
    the master seed splitmix64(seed, e) (e = 0 for the zero exterior)."""
    u, rho = load_model(model)
    origin = (0,) * u.dimension
    R = companion_radius(u, find_leading_index(u), l)
    domain = make_box(origin, max(R, l + u.truncation_radius) + 0.25)
    gamma = make_box(origin, R).contains_points(domain.points)
    if exterior is None:
        base, master = np.zeros(domain.count), mc.splitmix64(seed, 0)
    else:
        base = rho.sample(mc.trial_rng(seed ^ 0xE0, exterior), domain.count)
        master = mc.splitmix64(seed, exterior)
    for i in range(trials):
        values = base.copy()
        values[gamma] = rho.sample(mc.trial_rng(master, i), int(gamma.sum()))
        yield restrict_hamiltonian(u, Configuration(domain, values),
                                   make_box(origin, l))


def wegner_means(files) -> list[float]:
    """The `mean` column of wegner.csv, one entry per row."""
    header, *rows = files["wegner.csv"].decode().splitlines()
    column = header.split(",").index("mean")
    return [float(row.split(",")[column]) for row in rows]


def wegner_mean(files) -> float:
    [mean] = wegner_means(files)
    return mean


def banded_count(op, interval) -> int:
    return len(scipy.linalg.eigvals_banded(
        op.upper_band(), select="v",
        select_range=(np.nextafter(interval[0], -np.inf), interval[1])))


def dense_count(op, interval) -> int:
    evals = np.linalg.eigvalsh(op.matrix)
    return int(np.sum((evals >= interval[0]) & (evals <= interval[1])))


class TestWegnerAgainstBandedCounts:
    @pytest.mark.parametrize("model,l,interval", [
        (P2_MODEL, 3, [3.0, 5.0]),     # n = 49, 7 sites per slice
        (DELTA0_3D, 2, [5.0, 7.0]),    # n = 125, 25 sites per slice
    ])
    def test_mean_of_per_trial_banded_counts(self, tmp_path, model, l,
                                             interval):
        seed, trials = 5, 12
        files = run_both_thread_counts(tmp_path, "wegner", {
            "model": model, "params": {"ls": [l], "interval": interval},
            "seed": seed, "trials": trials,
        }, expect_rc=0)
        counts = [banded_count(op, interval)
                  for op in wegner_operators(model, l, seed, trials)]
        mean = wegner_mean(files)
        assert mean > 0
        assert mean == mc.mean_and_stderr(counts)[0]

    @pytest.mark.parametrize("model,l,interval,exteriors", [
        (P2_MODEL, 3, [3.0, 5.0], 2),
        (DELTA0_3D, 2, [5.0, 7.0], 2),
        # R_3 < l + r: couplings outside Gamma reach the box
        (neg_tail_model(0.03), 3, [1.0, 3.0], 3),
    ], ids=["P2", "delta0-3d", "negative-tail-1d"])
    def test_each_exterior_mean_against_counts(self, tmp_path, model, l,
                                               interval, exteriors):
        seed, trials = 5, 12
        files = run_both_thread_counts(tmp_path, "wegner", {
            "model": model,
            "params": {"ls": [l], "interval": interval,
                       "exteriors": exteriors},
            "seed": seed, "trials": trials,
        }, expect_rc=0)
        means = wegner_means(files)
        assert len(means) == exteriors
        # at d = 1 the count runs banded bisection itself: check it densely
        count = dense_count if model["d"] == 1 else banded_count
        for e, mean in enumerate(means):
            counts = [count(op, interval) for op in
                      wegner_operators(model, l, seed, trials, exterior=e)]
            assert mean > 0
            assert mean == mc.mean_and_stderr(counts)[0]


class TestCountsPastTheCap:
    def test_count_runs_where_dense_solve_is_refused(self, tmp_path,
                                                     monkeypatch, capsys):
        # Lambda_6 has 169 sites: its 13 x 13 slice blocks fit a cap of 100
        # points (10^4 entries), its 169 x 169 dense matrix does not
        seed, trials, interval = 5, 6, [3.0, 5.0]
        monkeypatch.setenv("ALLOYMSA_CAPACITY", "100")
        files = run_both_thread_counts(tmp_path, "wegner", {
            "model": P2_MODEL, "params": {"ls": [6], "interval": interval},
            "seed": seed, "trials": trials,
        }, expect_rc=0)
        cfg = write_config(tmp_path, "d.json", {
            "model": P2_MODEL, "params": {"l": 6.0}, "seed": seed,
            "trials": 1})
        capsys.readouterr()
        assert main(["decay", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: a dense matrix") and err.count("\n") == 1
        monkeypatch.delenv("ALLOYMSA_CAPACITY")
        counts = [dense_count(op, interval)
                  for op in wegner_operators(P2_MODEL, 6, seed, trials)]
        assert wegner_mean(files) == mc.mean_and_stderr(counts)[0] > 0

    @pytest.mark.parametrize("command, params", [
        ("decay", {"l": 1e6}), ("wegner", {"ls": [1e6]})])
    def test_oversized_box_exit_4_one_line(self, tmp_path, capsys,
                                           monkeypatch, command, params):
        # Lambda_{10^6} in d = 2 has 4 10^12 sites: at the default cap it
        # is refused before any array of its size, such as its 29 TiB of
        # couplings, is allocated
        monkeypatch.delenv("ALLOYMSA_CAPACITY", raising=False)
        cfg = write_config(tmp_path, "c.json", {
            "model": P2_MODEL, "params": params, "seed": 1, "trials": 2})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "20000^2" in err


class TestWegnerIntervalChecked:
    # a NaN endpoint no longer gets past the config parser
    @pytest.mark.parametrize("interval", [[1.9, 2.1, 3.0], [2.1, 1.9]])
    def test_exit_3_one_line(self, tmp_path, capsys, interval):
        cfg = write_config(tmp_path, "w.json", {
            "model": DELTA0_MODEL, "params": {"ls": [2], "interval": interval},
            "seed": 1, "trials": 4,
        })
        assert main(["wegner", "--config", str(cfg), "--threads", "2",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: interval") and err.count("\n") == 1


def delta0_model_with(**u) -> dict:
    """DELTA0_MODEL with the given entries of its potential replaced."""
    return {**DELTA0_MODEL, "u": {**DELTA0_MODEL["u"], **u}}


NAN_ENTRY = delta0_model_with(values=[[[0], 1.0], [[1], math.nan]],
                              truncation_radius=1)
# the potential of DELTA0_MODEL with no truncation_residual, so that the
# tail bound beyond the truncation radius is computed from (C, alpha)
TAIL_FROM_CERTIFICATE = {**DELTA0_MODEL, "u": {
    k: v for k, v in DELTA0_MODEL["u"].items() if k != "truncation_residual"}}


def tail_model_with(**u) -> dict:
    """TAIL_FROM_CERTIFICATE with the given entries of its potential replaced."""
    return {**TAIL_FROM_CERTIFICATE,
            "u": {**TAIL_FROM_CERTIFICATE["u"], **u}}


def p2_model_with(**u) -> dict:
    """P2_MODEL with the given entries of its potential replaced."""
    return {**P2_MODEL, "u": {**P2_MODEL["u"], **u}}


def rho_pieces(pieces) -> dict:
    """DELTA0_MODEL with the density given in the `pieces` format."""
    return {**DELTA0_MODEL, "rho": {"pieces": pieces}}


class TestRejectedBeforeAnyTrial:
    @pytest.mark.parametrize("command, model, params", [
        ("decay", DELTA0_MODEL, {"l": math.nan}),
        ("decay", DELTA0_MODEL, {"l": math.inf}),
        ("wegner", DELTA0_MODEL, {"ls": [math.nan]}),
        ("lifshitz", DELTA0_MODEL, {"l": math.nan}),
        ("large-disorder", P2_MODEL, {"l0": math.nan, "m0": 5.0, "xi": 3.0}),
        ("decay", DELTA0_MODEL, {"l": 3.0, "n_lowest": 0}),
        ("decay", DELTA0_MODEL, {"l": 3.0, "n_lowest": 50}),  # 7 sites
        ("wegner", DELTA0_MODEL, {"ls": []}),
        ("analyze-potential", DELTA0_MODEL, {"ls": []}),
        ("resonance", P2_MODEL,
         {"y": [200, 0], "l1": 3, "l2": 10, "eps_list": []}),
        ("decay", DELTA0_MODEL, {"l": "x"}),
        ("wegner", DELTA0_MODEL, {"ls": 3}),
        ("lifshitz", DELTA0_MODEL, {"l_range": [math.nan, 45]}),
        ("decay", {**DELTA0_MODEL, "rho": {"uniform": [0]}}, {"l": 3.0}),
        ("decay", {**DELTA0_MODEL, "rho": {}}, {"l": 3.0}),
        ("decay", {**DELTA0_MODEL, "u": {k: v for k, v in DELTA0_MODEL["u"].items()
                                         if k != "alpha"}}, {"l": 3.0}),
        ("msa-schedule", DELTA0_MODEL, {}),
        ("msa-schedule", DELTA0_MODEL, {"msa": {
            "xi": 8.0, "kappa": 1.5, "beta": 0.6, "q": 0.5, "m0": 0.5,
            "l0": 30000.0, "l1": 2.0}}),
        ("resonance", P2_MODEL, {"l1": 3, "l2": 10}),
        ("resonance", P2_MODEL, {"y": [200], "l1": 3, "l2": 10}),
        ("analyze-potential", DELTA0_MODEL, {"zero_tolerance": "x"}),
        ("analyze-potential", DELTA0_MODEL, {"zero_tolerance": -1.0}),
        ("decay", DELTA0_MODEL, {"l": 3.0, "n_lowest": 2.5}),
        ("wegner", DELTA0_MODEL, {"ls": [2], "exteriors": 1.5}),
        ("wegner", DELTA0_MODEL, {"ls": [2], "exteriors": -3}),
        ("msa-schedule", DELTA0_MODEL, {"k_max": 2.5, "msa": {
            "xi": 8.0, "kappa": 1.5, "beta": 0.6, "q": 0.5, "m0": 0.5,
            "l0": 30000.0}}),
        ("resonance", P2_MODEL,
         {"y": [200, 0], "l1": 3, "l2": 10, "eps_list": [math.nan]}),
        ("resonance", P2_MODEL,
         {"y": [200, 0], "l1": 3, "l2": 10, "eps_list": [0.1, math.inf]}),
        ("resonance", P2_MODEL, {"x": [0.7, 0], "y": [200, 0], "l1": 3, "l2": 10}),
        ("resonance", P2_MODEL, {"y": [200.9, 0], "l1": 3, "l2": 10}),
        ("decay", NAN_ENTRY, {"l": 3.0}),
        ("wegner", NAN_ENTRY, {"ls": [2]}),
        ("analyze-potential", NAN_ENTRY, {}),
        ("wegner", delta0_model_with(C=math.nan), {"ls": [2]}),
        ("decay", delta0_model_with(alpha=math.nan), {"l": 3.0}),
        ("decay", delta0_model_with(truncation_residual=math.nan), {"l": 3.0}),
        ("decay", {**DELTA0_MODEL, "rho": {"uniform": [0.5, 0.5]}}, {"l": 3.0}),
        ("wegner", {**DELTA0_MODEL, "rho": {"uniform": [0.0, math.nan]}},
         {"ls": [2]}),
        ("decay", {**DELTA0_MODEL, "rho": {"uniform": [0.0, math.nan]}},
         {"l": 3.0}),
        ("decay", tail_model_with(truncation_radius=math.nan), {"l": 3.0}),
        ("decay", tail_model_with(alpha=0.0), {"l": 3.0}),
        ("decay", tail_model_with(alpha=-1.0), {"l": 3.0}),
        ("decay", p2_model_with(values=[[[0, 0], 1.0], [[0.5, 0], -0.6]]),
         {"l": 3.0}),
        ("decay", tail_model_with(truncation_radius=1.5), {"l": 3.0}),
        ("decay", tail_model_with(values=[]), {"l": 3.0}),
        ("decay", rho_pieces([{"interval": [0.0, 1.0]}]), {"l": 3.0}),
        ("decay", rho_pieces([{"coeffs": [1.0]}]), {"l": 3.0}),
        ("decay", rho_pieces(3), {"l": 3.0}),
        ("decay", tail_model_with(d="x"), {"l": 3.0}),
        ("decay", tail_model_with(d=2), {"l": 3.0}),
        ("msa-schedule", DELTA0_MODEL, {"msa": {
            "xi": 8.0, "kappa": 1.5, "beta": 0.6, "q": 0.5, "m0": 0.5,
            "l0": 30000.0, "zeta_nr": 1.5 * (5 + 0 + 2 * 8.0) + 1.0}}),
    ], ids=["decay-l-nan", "decay-l-inf", "wegner-ls-nan", "lifshitz-l-nan",
            "large-disorder-l0-nan", "decay-n_lowest-0", "decay-n_lowest-50",
            "wegner-ls-empty", "analyze-potential-ls-empty",
            "resonance-eps_list-empty", "decay-l-string", "wegner-ls-number",
            "lifshitz-l_range-nan", "rho-uniform-one-endpoint", "rho-empty",
            "u-without-alpha", "msa-schedule-without-msa",
            "msa-schedule-unknown-msa-key", "resonance-without-y",
            "resonance-y-wrong-dimension", "analyze-potential-tolerance-string",
            "analyze-potential-tolerance-negative", "decay-n_lowest-2.5",
            "wegner-exteriors-1.5", "wegner-exteriors-negative",
            "msa-schedule-k_max-2.5", "resonance-eps_list-nan",
            "resonance-eps_list-inf", "resonance-x-fractional",
            "resonance-y-fractional", "decay-u-entry-nan", "wegner-u-entry-nan",
            "analyze-potential-u-entry-nan", "wegner-u-C-nan",
            "decay-u-alpha-nan", "decay-u-residual-nan", "decay-rho-point",
            "wegner-rho-nan", "decay-rho-nan", "decay-u-radius-nan",
            "decay-u-alpha-0-tail", "decay-u-alpha-negative-tail",
            "decay-u-key-fractional", "decay-u-radius-1.5",
            "decay-u-values-empty", "decay-rho-piece-without-coeffs",
            "decay-rho-piece-without-interval", "decay-rho-pieces-number",
            "decay-u-d-string", "decay-u-d-disagrees",
            "msa-schedule-zeta_nr"])
    def test_exit_3_one_line(self, tmp_path, capsys, monkeypatch, command,
                             model, params):
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        cfg = write_config(tmp_path, "c.json", {
            "model": model, "params": params, "seed": 1, "trials": 2,
        })
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, values, params", [
        ("decay", [[[0], 1.0], [[0], 0.0]], {"l": 3.0}),
        ("analyze-potential", [[[0], 1.0], [[0], -0.5]], {})],
        ids=["then-zero", "then-negative"])
    def test_repeated_point_named(self, tmp_path, capsys, monkeypatch,
                                  command, values, params):
        # a dict built from the table would keep the last entry alone
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        cfg = write_config(tmp_path, "c.json", {
            "model": delta0_model_with(values=values), "params": params,
            "seed": 1, "trials": 2,
        })
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: potential table repeats the point (0,)\n")


# one admitted config per kind, each numeric leaf of which is replaced in
# turn by a literal that Python's json reads as a non-finite float
ADMITTED = {
    "analyze-potential": (DELTA0_MODEL, {"ls": [2.0], "zero_tolerance": 0.0}),
    "wegner": (DELTA0_MODEL, {"ls": [2], "interval": [1.9, 2.1],
                              "exteriors": 1}),
    "resonance": (P2_MODEL, {"x": [0, 0], "y": [200, 0], "l1": 3, "l2": 10,
                             "eps_list": [0.1]}),
    "msa-schedule": (DELTA0_MODEL, {"k_max": 5, "msa": {
        "xi": 8.0, "kappa": 1.5, "beta": 0.6, "q": 0.5, "m0": 0.5,
        "l0": 25000.0}}),
    "msa-probe": (DELTA0_MODEL, {"l": 2.0, "m": 0.3, "interval": [0.4, 0.6],
                                 "energy_grid": 11, "p_hi_max": 1.0}),
    "lifshitz": (neg_tail_model(1e-6), {"zeta": 1.0, "xi": 2.0, "l": 16,
                                        "epsilon0": 0.05}),
    "large-disorder": ({**P2_MODEL, "rho": {"uniform": [0.0, 50.0]}},
                       {"l0": 6, "m0": 5.0, "xi": 3.0}),
    "decay": (DELTA0_MODEL, {"l": 3.0, "n_lowest": 1, "rate_max": -0.2,
                             "r2_min": 0.8, "frac_min": 0.0}),
}
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


def admitted_config(command) -> dict:
    model, params = ADMITTED[command]
    return {"model": model, "params": params, "seed": 1, "trials": 2,
            "threads": 1}


def numeric_leaves(node, path=()):
    """The path of every number (bool excepted) in a JSON value."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)
        else:
            yield from numeric_leaves(value, path + (key,))


def with_literal(config, path, literal: str) -> str:
    """The JSON text of `config` with the number at `path` written as
    `literal`."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    text = json.dumps(config)
    assert text.count('"@"') == 1
    return text.replace('"@"', literal)


class TestNonFiniteNumbersRefused:
    @pytest.mark.parametrize("command", list(ADMITTED))
    def test_admitted(self, tmp_path, command):
        cfg = write_config(tmp_path, "c.json", admitted_config(command))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) in (0, 2)

    @pytest.mark.parametrize("command", list(ADMITTED))
    def test_every_leaf_exit_3_one_line(self, tmp_path, capsys, monkeypatch,
                                        command):
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        config = admitted_config(command)
        leaves = list(numeric_leaves(config))
        assert len(leaves) >= 10
        cfg, out = tmp_path / "c.json", tmp_path / "o"
        for path in leaves:
            for literal in NON_FINITE:
                cfg.write_text(with_literal(config, path, literal))
                assert main([command, "--config", str(cfg),
                             "--out", str(out)]) == 3, (path, literal)
                assert capsys.readouterr().err == (
                    f"error: cannot read config: number {literal} is not "
                    "finite\n")
                assert not out.exists()


    # 10^400 overflows a float; past 4300 digits int() itself refuses
    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_exit_3_one_line(self, tmp_path, capsys, monkeypatch,
                                          digits):
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        literal = "1" + "0" * digits
        cfg, out = tmp_path / "c.json", tmp_path / "o"
        for command in ADMITTED:
            config = admitted_config(command)
            for path in numeric_leaves(config):
                cfg.write_text(with_literal(config, path, literal))
                assert main([command, "--config", str(cfg),
                             "--out", str(out)]) == 3, (command, path)
                assert capsys.readouterr().err == (
                    f"error: cannot read config: integer of {digits + 1} "
                    "digits is too large\n")
                assert not out.exists()


def with_integers_as_floats(node):
    """`node` with every integer in it (bool excepted) made a float, which
    JSON writes as N.0."""
    if isinstance(node, dict):
        return {key: with_integers_as_floats(value)
                for key, value in node.items()}
    if isinstance(node, list):
        return [with_integers_as_floats(value) for value in node]
    if isinstance(node, int) and not isinstance(node, bool):
        return float(node)
    return node


def run_spellings(tmp_path, capsys, command, spellings):
    """Run each config of `spellings` (name -> payload) and return, per
    run, its exit code, stdout (with the output directory as <out>),
    stderr and every report but the summary, whose config hash covers the
    literal."""
    results = []
    for name, payload in spellings.items():
        cfg, out = write_config(tmp_path, f"{name}.json", payload), \
            tmp_path / name
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        std = capsys.readouterr()
        reports = {path.name: path.read_bytes()
                   for path in sorted(out.iterdir())
                   if not path.name.endswith("_summary.json")}
        results.append((rc, std.out.replace(str(out), "<out>"), std.err,
                        reports))
    return results


class TestIntegersWrittenAsFloats:
    """draft-07 admits N.0 where the schema asks for an integer, and the run
    treats it as N: the same exit code, stdout, stderr and report bytes.
    Only the summary differs, as its config hash covers the literal."""

    @pytest.mark.parametrize("command", list(ADMITTED))
    def test_same_outputs(self, tmp_path, capsys, command):
        config = admitted_config(command)
        floats = with_integers_as_floats(config)
        assert json.dumps(floats) != json.dumps(config)
        first, second = run_spellings(tmp_path, capsys, command,
                                      {"int": config, "float": floats})
        assert first[3]
        assert first == second


def with_integral_floats_as_integers(node):
    """`node` with every float in it that has an integral value made an
    integer, which JSON writes without a point."""
    if isinstance(node, dict):
        return {key: with_integral_floats_as_integers(value)
                for key, value in node.items()}
    if isinstance(node, list):
        return [with_integral_floats_as_integers(value) for value in node]
    if isinstance(node, float) and node.is_integer():
        return int(node)
    return node


# each spells as N.0 a number that a runner wrote or printed as the config
# spelled it
SPELLED_AS_CONFIG = {
    "analyze-potential-ls": ("analyze-potential", DELTA0_MODEL,
                             {"ls": [2.0]}),
    "resonance-eps": ("resonance", P2_MODEL,
                      {"y": [200, 0], "l1": 3.0, "l2": 10.0,
                       "eps_list": [1.0]}),
    "msa-probe-energies": ("msa-probe", DELTA0_MODEL,
                           {"l": 2.0, "m": 0.3, "interval": [0.0, 1.0],
                            "energy_grid": [0.0, 1.0]}),
    "wegner-interval": ("wegner", DELTA0_MODEL,
                        {"ls": [2.0], "interval": [2.0, 3.0]}),
    "msa-schedule-xi": ("msa-schedule", P2_MODEL, {"msa": {
        "xi": 3.0, "kappa": 1.5, "beta": 0.6, "q": 0.5, "m0": 0.5,
        "l0": 25000.0}}),
}


class TestIntegralFloatsWrittenAsIntegers:
    """The mirror of `TestIntegersWrittenAsFloats`: a number-typed leaf
    with an integral value written as an integer, N for N.0, gives the
    same exit code, stdout, stderr and reports as N.0."""

    @pytest.mark.parametrize("command", list(ADMITTED))
    def test_same_outputs(self, tmp_path, capsys, command):
        config = admitted_config(command)
        integers = with_integral_floats_as_integers(config)
        assert json.dumps(integers) != json.dumps(config)
        first, second = run_spellings(tmp_path, capsys, command,
                                      {"float": config, "int": integers})
        assert first[3]
        assert first == second

    @pytest.mark.parametrize("case", list(SPELLED_AS_CONFIG))
    def test_number_spelled_as_config(self, tmp_path, capsys, case):
        command, model, params = SPELLED_AS_CONFIG[case]
        config = {"model": model, "params": params, "seed": 1, "trials": 2,
                  "threads": 1}
        integers = with_integral_floats_as_integers(config)
        first, second = run_spellings(tmp_path, capsys, command,
                                      {"float": config, "int": integers})
        assert first[3] or "[FAIL]" in first[1]
        assert first == second


class TestRunExperimentAPI:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(Exception):
            run_experiment({"kind": "nope", "model": DELTA0_MODEL}, tmp_path)

    def test_config_hash_ignores_threads(self, tmp_path):
        from alloymsa.cli import config_hash
        a = config_hash({"kind": "wegner", "seed": 1, "threads": 1})
        b = config_hash({"kind": "wegner", "seed": 1, "threads": 8})
        c = config_hash({"kind": "wegner", "seed": 2, "threads": 1})
        assert a == b and a != c


class TestUnusableInputsExit3OneLine:
    """Inputs the run cannot use exit 3 with one line on stderr, before any
    trial: an output location that cannot be written, a seed past 64 bits
    and a capacity that is not a positive integer; and in the first trial,
    a potential past the doubles."""

    @staticmethod
    def run(tmp_path, capsys, monkeypatch, command, *args, out=None):
        monkeypatch.setattr(mc, "run_trials", pytest.fail)
        cfg = write_config(tmp_path, "c.json", admitted_config(command))
        rc = main([command, "--config", str(cfg),
                   "--out", str(out or tmp_path / "o"), *args])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("nested", [False, True])
    def test_out_under_or_at_a_file(self, tmp_path, capsys, monkeypatch,
                                    nested):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if nested else afile
        err = self.run(tmp_path, capsys, monkeypatch, "decay", out=out)
        assert err.startswith(f"error: cannot create the output directory "
                              f"{out}: ")
        assert afile.read_text() == "kept\n"

    def test_report_that_cannot_be_written(self, tmp_path, capsys,
                                           monkeypatch):
        out = tmp_path / "o"
        (out / "positivity.csv").mkdir(parents=True)
        err = self.run(tmp_path, capsys, monkeypatch, "analyze-potential",
                       out=out)
        assert err.startswith(f"error: cannot write {out / 'positivity.csv'}: ")

    @pytest.mark.parametrize("seed", [2**64, 2**65])
    def test_seed_past_64_bits(self, tmp_path, capsys, monkeypatch, seed):
        err = self.run(tmp_path, capsys, monkeypatch, "decay",
                       "--seed", str(seed))
        assert err.startswith("error: config schema at $.seed: ")
        config = {**admitted_config("decay"), "seed": seed}
        cfg = write_config(tmp_path, "s.json", config)
        assert main(["decay", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", admitted_config("decay"))
        assert main(["decay", "--config", str(cfg), "--seed", str(2**64 - 1),
                     "--out", str(tmp_path / "o")]) in (0, 2)

    # u(0) w_0 = 1e200 w_0, w_0 uniform on [0, 1e200], passes the doubles
    @pytest.mark.parametrize("command", ["decay", "wegner", "msa-probe"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_potential_past_the_doubles(self, tmp_path, capsys, command,
                                        threads):
        params = {"ls": [5]} if command == "wegner" else {"l": 5.0}
        model = {"d": 1, "u": {"d": 1, "values": [[[0], 1e200]], "C": 1e201,
                               "alpha": 1.0, "truncation_radius": 0,
                               "truncation_residual": 0.0},
                 "rho": {"uniform": [0.0, 1e200]}}
        config = {**admitted_config(command), "model": model,
                  "params": {**ADMITTED[command][1], **params}}
        cfg = write_config(tmp_path, "c.json", config)
        assert main([command, "--config", str(cfg), "--threads", str(threads),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "error: operator diagonal must be finite (a potential past the "
            "doubles), got inf\n")

    @pytest.mark.parametrize("cap", ["abc", "-3", "0", "1.5"])
    def test_capacity_not_a_positive_integer(self, tmp_path, capsys,
                                             monkeypatch, cap):
        monkeypatch.setenv("ALLOYMSA_CAPACITY", cap)
        err = self.run(tmp_path, capsys, monkeypatch, "wegner")
        assert err == ("error: ALLOYMSA_CAPACITY must be a positive integer, "
                       f"got {cap!r}\n")
