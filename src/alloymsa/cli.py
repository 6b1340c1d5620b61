"""Batch experiment runner: JSON configs in, CSV/JSON reports out.

Every run embeds the config hash and the computed constants in its
summary, and identical config+seed produce byte-identical outputs across
reruns and thread counts.  Exit codes: 0 pass, 2 contract violation,
3 precondition/parameter error, 4 capacity error.
`--threads N` forks N worker processes that inherit the closure (never pickled).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, mc
from .errors import AlloyMSAError, ParameterError
from .genfun import (companion_radius, find_leading_index,
                     positivity_certificate, tail_bound)
from .initial_scale import (admissible_lengths, large_disorder_probe,
                            lifshitz_parameters, lifshitz_probe)
from .lattice import (Configuration, DisorderModel, SingleSitePotential,
                      make_box, restrict_hamiltonian, uniform_density)
from .msa import (MSAParameters, estimate_singularity_probability,
                  scale_schedule, schedule_to_json_dict, validate_parameters)
from .resonance import estimate_resonance_probabilities
from .spectral import decay_fit, eigensolve, shell_maxima
from .wegner import run_wegner_cell

KINDS = (
    "genfun", "wegner", "resonance", "msa_schedule", "msa_singularity",
    "lifshitz", "large_disorder", "localization_decay",
)

# draft-07: checking a schema against its metaschema costs a fraction of
# the latest draft's, and it runs on every validation
SCHEMA_DRAFT = "http://json-schema.org/draft-07/schema#"
NUMBER = {"type": "number"}
NUMBERS = {"type": "array", "items": NUMBER}

# per kind, the params its runner converts, iterates or requires; checked
# before any trial
PARAMS_SCHEMA = {
    "genfun": {"properties": {"ls": NUMBERS}},
    "wegner": {"properties": {"ls": NUMBERS, "exteriors": NUMBER}},
    "resonance": {"required": ["y", "l1", "l2"],
                  "properties": {"x": NUMBERS, "y": NUMBERS, "l1": NUMBER,
                                 "l2": NUMBER, "eps_list": NUMBERS}},
    "msa_schedule": {"required": ["msa"], "properties": {
        "k_max": NUMBER,
        "msa": {"type": "object",
                "required": ["xi", "kappa", "beta", "q", "m0", "l0"],
                "additionalProperties": False,
                "properties": {"xi": NUMBER, "kappa": NUMBER, "beta": NUMBER,
                               "q": NUMBER, "m0": NUMBER, "l0": NUMBER,
                               "zeta_nr": {"type": ["number", "null"]}}}}},
    "msa_singularity": {"required": ["l", "m"],
                        "properties": {"l": NUMBER, "m": NUMBER,
                                       "p_hi_max": {"type": ["number", "null"]}}},
    "lifshitz": {"properties": {
        "zeta": NUMBER, "xi": NUMBER, "epsilon0": NUMBER, "l": NUMBER,
        "l_range": {**NUMBERS, "minItems": 2, "maxItems": 2}}},
    "large_disorder": {"required": ["l0", "m0", "xi"],
                       "properties": {"l0": NUMBER, "m0": NUMBER, "xi": NUMBER}},
    "localization_decay": {"properties": {
        key: NUMBER for key in ("l", "n_lowest", "rate_max", "r2_min", "frac_min")}},
}

CONFIG_SCHEMA = {
    "$schema": SCHEMA_DRAFT,
    "type": "object",
    "required": ["kind", "model"],
    "properties": {
        "kind": {"enum": list(KINDS)},
        "model": {
            "type": "object",
            "required": ["d", "u", "rho"],
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "u": {"type": "object", "required": ["values", "C", "alpha"],
                      "properties": {"values": {"type": "array"},
                                     "C": NUMBER, "alpha": NUMBER}},
                "rho": {"type": "object",
                        "anyOf": [{"required": ["uniform"]},
                                  {"required": ["pieces"]}],
                        "properties": {"uniform": {**NUMBERS, "minItems": 2,
                                                   "maxItems": 2}}},
            },
        },
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "trials": {"type": "integer", "minimum": 1},
        "threads": {"type": "integer", "minimum": 1},
        "out": {"type": "string"},
    },
}


def _fmt(x) -> str:
    if isinstance(x, float):
        # float() first: numpy scalars subclass float but repr as np.float64(...)
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def config_hash(config: dict) -> str:
    # threads and output location must not change the science
    hashed = {k: v for k, v in config.items() if k not in ("threads", "out")}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_model(model_cfg: dict) -> tuple[SingleSitePotential, DisorderModel]:
    u_cfg = dict(model_cfg["u"])
    u_cfg.setdefault("d", model_cfg["d"])
    u = SingleSitePotential.from_json_dict(u_cfg)
    if u.dimension != model_cfg["d"]:
        raise ParameterError("potential dimension disagrees with model d")
    rho_cfg = model_cfg["rho"]
    if "uniform" in rho_cfg:
        lo, hi = rho_cfg["uniform"]
        model = uniform_density(float(lo), float(hi))
    else:
        model = DisorderModel.from_json_dict(rho_cfg)
    return u, model


@dataclass
class ReportBundle:
    kind: str
    summary: dict
    files: dict[str, Path]

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.summary["contracts"])


def run_experiment(config: dict, out_dir: Path) -> ReportBundle:
    jsonschema.validate(config, CONFIG_SCHEMA)
    kind = config["kind"]
    params = config.get("params", {})
    # wrapped, so that an error's path starts at params
    jsonschema.validate({"params": params}, {
        "$schema": SCHEMA_DRAFT, "properties": {"params": PARAMS_SCHEMA[kind]}})
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[kind]
    u, model = load_model(config["model"])
    seed = int(config.get("seed", 0))
    trials = int(config.get("trials", 2000))
    threads = int(config.get("threads", 1))
    summary = {
        "kind": kind,
        "config_hash": config_hash(config),
        "version": __version__,
        "constants": {},
        "contracts": [],
    }
    files: dict[str, Path] = {}
    runner(u, model, params, seed, trials, threads, out_dir, summary, files)
    summary["outputs"] = {k: v.name for k, v in sorted(files.items())}
    summary_path = out_dir / f"{kind}_summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    files["summary"] = summary_path
    return ReportBundle(kind=kind, summary=summary, files=files)


def _scales(params: dict, default: list) -> list:
    """params["ls"], or `default`; an empty list would leave no contract."""
    ls = params.get("ls", default)
    if not ls:
        raise ParameterError("ls must list at least one scale")
    return ls


def _contract(summary: dict, name: str, passed: bool, detail: str = "") -> None:
    summary["contracts"].append({"name": name, "passed": bool(passed),
                                 "detail": detail})


def _run_genfun(u, model, params, seed, trials, threads, out_dir, summary, files):
    lead = find_leading_index(u, params.get("zero_tolerance"))
    summary["constants"]["I0"] = list(lead.leading)
    summary["constants"]["c_u"] = lead.c_u
    summary["constants"]["C_hat"] = tail_bound(u, 0.0, 0.0)
    path = out_dir / "leading_index.json"
    path.write_text(json.dumps(lead.to_json_dict(), sort_keys=True, indent=2) + "\n")
    files["leading_index"] = path
    rows = []
    for l in _scales(params, [2.0, 4.0]):
        cert = positivity_certificate(u, lead, float(l))
        rows.append([l, cert.radius, cert.min_value, cert.slack,
                     int(cert.holds), " ".join(map(str, cert.worst_x))])
        _contract(summary, f"positivity_l={l}", cert.holds,
                  f"min={cert.min_value:.6g}")
    csv = out_dir / "positivity.csv"
    write_csv(csv, ["l", "R_l", "min_value", "slack", "holds", "worst_x"], rows)
    files["positivity"] = csv


def _run_wegner(u, model, params, seed, trials, threads, out_dir, summary, files):
    lead = find_leading_index(u)
    interval = params.get("interval", [1.9, 2.1])  # checked by the estimator
    n_ext = int(params.get("exteriors", 0))
    rows = []
    plot = []
    for l in _scales(params, [2, 4, 6, 8]):
        l = float(l)
        dom = make_box((0,) * u.dimension,
                       max(companion_radius(u, lead, l), l + u.truncation_radius) + 0.25)
        for e_idx in range(max(n_ext, 1)):
            if n_ext == 0:
                exterior = None
            else:
                rng = mc.trial_rng(seed ^ 0xE0, e_idx)
                exterior = Configuration(dom, model.sample(rng, dom.count))
            rep = run_wegner_cell(u, lead, model, l, interval, exterior,
                                  trials, mc.splitmix64(seed, e_idx),
                                  threads=threads)
            rows.append([u.dimension, l, rep.radius, interval[0], interval[1],
                         trials, rep.empirical_mean, rep.std_error, rep.bound,
                         rep.c_w_chain, rep.bv_norm])
            ok = rep.empirical_mean - 3 * rep.std_error <= rep.bound
            _contract(summary, f"wegner_l={l}_ext={e_idx}", ok,
                      f"mean={rep.empirical_mean:.4g} bound={rep.bound:.4g}")
            if e_idx == 0 and rep.empirical_mean > 0:
                plot.append([math.log(2 * l + 1), math.log(rep.empirical_mean),
                             rep.std_error / rep.empirical_mean])
    csv = out_dir / "wegner.csv"
    write_csv(csv, ["d", "l", "R_l", "interval_lo", "interval_hi", "trials",
                    "mean", "std_error", "bound", "chain", "bv_norm"], rows)
    files["wegner"] = csv
    if plot:
        p = out_dir / "wegner_plot.csv"
        write_csv(p, ["log_2l_plus_1", "log_mean", "yerr"], plot)
        files["plotdata"] = p


def _run_resonance(u, model, params, seed, trials, threads, out_dir, summary, files):
    lead = find_leading_index(u)
    x = tuple(params.get("x", (0,) * u.dimension))
    y = tuple(params["y"])
    l1 = float(params["l1"])
    l2 = float(params["l2"])
    eps_list = params.get("eps_list", [1e-3, 1e-2, 1e-1])
    reports = estimate_resonance_probabilities(
        u, lead, model, x, y, l1, l2, [float(eps) for eps in eps_list], trials,
        seed, threads=threads)
    rows = []
    for eps, rep in zip(eps_list, reports):
        rows.append([" ".join(map(str, x)), " ".join(map(str, y)), l1, l2,
                     eps, trials, rep.p_lo, rep.p_hi, rep.theory_bound,
                     rep.delta1, rep.delta2])
        ok = rep.p_hi <= rep.theory_bound + 3 * rep.std_error
        _contract(summary, f"resonance_eps={eps}", ok,
                  f"p_hi={rep.p_hi:.4g} bound={rep.theory_bound:.4g}")
    csv = out_dir / "resonance.csv"
    write_csv(csv, ["x", "y", "l1", "l2", "eps", "trials", "p_lo", "p_hi",
                    "theory_bound", "delta1", "delta2"], rows)
    files["resonance"] = csv


def _run_msa_schedule(u, model, params, seed, trials, threads, out_dir,
                      summary, files):
    p = MSAParameters(**params["msa"])
    lead = find_leading_index(u)
    report = validate_parameters(p, lead, u, model)
    summary["constants"].update({
        "l_star": report.l_star, "l_bar": report.l_bar,
        "l_bar_sharp": report.l_bar_sharp,
        "thresholds": {k: v for k, v in report.thresholds.items()},
    })
    _contract(summary, "parameters_valid", report.ok,
              "; ".join(report.violated) or "all interval constraints hold")
    if not report.ok:
        return
    schedule = scale_schedule(p, int(params.get("k_max", 25)))
    data = schedule_to_json_dict(schedule, report)
    path = out_dir / "schedule.json"
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    files["schedule"] = path
    masses = schedule.masses
    loss = float(np.sum(masses[:-1] - masses[1:]))
    _contract(summary, "mass_floor", bool(np.all(masses >= schedule.m_inf)),
              f"min m_k = {masses.min():.6g} vs m_inf = {schedule.m_inf:.6g}")
    _contract(summary, "mass_loss_series",
              loss <= (1 - p.q) * p.m0 + 1e-9,
              f"loss={loss:.6g} budget={(1 - p.q) * p.m0:.6g}")
    rows = [[k, float(ll), float(mm)]
            for k, (ll, mm) in enumerate(zip(schedule.lengths, masses))]
    csv = out_dir / "schedule_plot.csv"
    write_csv(csv, ["k", "l_k", "m_k"], rows)
    files["plotdata"] = csv


def _run_msa_singularity(u, model, params, seed, trials, threads, out_dir,
                         summary, files):
    l = float(params["l"])
    m = float(params["m"])
    interval = params.get("interval", [-0.1, 0.1])  # checked by the estimator
    grid = params.get("energy_grid", 101)
    rep = estimate_singularity_probability(u, model, l, m, interval, grid,
                                           trials, seed, threads=threads)
    summary["constants"]["p_hi"] = rep.p_hi
    bound = params.get("p_hi_max")
    if bound is not None:
        _contract(summary, "singularity_regression", rep.p_hi <= float(bound),
                  f"p_hi={rep.p_hi:.4g} cap={bound}")
    rows = [[E, count, trials] for E, count in sorted(rep.per_energy.items())]
    csv = out_dir / "singularity.csv"
    write_csv(csv, ["E", "not_certified_regular", "trials"], rows)
    files["singularity"] = csv


def _run_lifshitz(u, model, params, seed, trials, threads, out_dir, summary,
                  files):
    zeta = float(params.get("zeta", 1.0))
    xi = float(params.get("xi", 2.0))
    eps0 = float(params.get("epsilon0", model.omega_plus / 12.0))
    if "l" in params:
        l = float(params["l"])
    else:
        lo, hi = params.get("l_range", [15, 45])
        lp0 = lifshitz_parameters(u, model, float(hi), zeta, xi, eps0)
        ls = admissible_lengths(zeta, lp0.beta0, float(lo), float(hi))
        if not ls:
            raise ParameterError("no admissible l in the requested range")
        l = float(ls[0])
    lp = lifshitz_parameters(u, model, l, zeta, xi, eps0)
    rep = lifshitz_probe(u, model, lp, l, trials, seed, threads=threads)
    summary["constants"].update({
        "beta0": rep.beta0, "delta": rep.delta, "l_tilde": rep.l_tilde,
        "n_subcubes": rep.n_subcubes,
    })
    _contract(summary, "lifshitz_chain_bound",
              rep.p_emp <= rep.chain_bound + 3 * rep.std_error,
              f"p_emp={rep.p_emp:.4g} chain={rep.chain_bound:.4g}")
    csv = out_dir / "lifshitz.csv"
    write_csv(csv, ["l", "zeta", "beta0", "delta", "trials", "p_emp",
                    "chain_bound", "paper_bound", "lambda1_mean"],
              [[rep.l, rep.zeta, rep.beta0, rep.delta, rep.trials, rep.p_emp,
                rep.chain_bound, rep.paper_bound, rep.lambda1_mean]])
    files["lifshitz"] = csv


def _run_large_disorder(u, model, params, seed, trials, threads, out_dir,
                        summary, files):
    lead = find_leading_index(u)
    rep = large_disorder_probe(u, model, lead, float(params["l0"]),
                               float(params["m0"]), float(params["xi"]))
    summary["constants"].update({
        "delta0": rep.delta0, "chain": rep.chain, "target": rep.target,
        "rhs_printed": rep.rhs_printed,
        "rhs_negative_exponent": rep.rhs_negative_exponent,
        "max_bv_printed": rep.max_bv_printed,
        "max_bv_negative_exponent": rep.max_bv_negative_exponent,
        "notes": rep.notes,
    })
    _contract(summary, "bound_closes_negative_exponent",
              rep.satisfies_negative_exponent,
              f"rhs={rep.rhs_negative_exponent:.4g} target={rep.target:.4g}")
    path = out_dir / "large_disorder.json"
    path.write_text(json.dumps(summary["constants"], sort_keys=True, indent=2)
                    + "\n")
    files["large_disorder"] = path


def _run_decay(u, model, params, seed, trials, threads, out_dir, summary,
               files):
    l = float(params.get("l", 20.0))
    n_lowest = int(params.get("n_lowest", 5))
    rate_max = float(params.get("rate_max", -0.2))
    r2_min = float(params.get("r2_min", 0.8))
    frac_min = float(params.get("frac_min", 0.9))
    box = make_box((0,) * u.dimension, l)
    if not 1 <= n_lowest <= box.count:
        raise ParameterError(
            f"n_lowest must lie in [1, {box.count}], got {n_lowest}")
    domain = make_box((0,) * u.dimension, l + u.truncation_radius + 0.25)

    def worker(i, rng):
        cfg = Configuration(domain, model.sample(rng, domain.count))
        op = restrict_hamiltonian(u, cfg, box)
        res = eigensolve(op, want_vectors=True)
        good = 0
        fits = []
        for j in range(n_lowest):
            rate, r2 = decay_fit(res.eigenvectors[:, j], box)
            fits.append((rate, r2))
            if rate <= rate_max and r2 >= r2_min:
                good += 1
        # only trial 0's ground state is plotted; keep that column alone
        psi = np.abs(res.eigenvectors[:, 0]) if i == 0 else None
        return good == n_lowest, fits, psi

    results = mc.run_trials(trials, worker, seed, threads)
    frac = sum(1.0 for ok, _, _ in results if ok) / max(len(results), 1)
    summary["constants"]["fraction_localized"] = frac
    _contract(summary, "decay_regression", frac >= frac_min,
              f"fraction={frac:.3f} threshold={frac_min}")
    rows = []
    for t, (_ok, fits, _psi) in enumerate(results):
        for j, (rate, r2) in enumerate(fits):
            rows.append([t, j, rate, r2])
    csv = out_dir / "decay.csv"
    write_csv(csv, ["trial", "eigenvector", "rate", "r2"], rows)
    files["decay"] = csv
    psi = results[0][2]
    shell = shell_maxima(psi, box, box.points[int(np.argmax(psi))])
    prows = [[r, math.log(v)] for r, v in sorted(shell.items()) if v > 1e-14]
    p = out_dir / "decay_plot.csv"
    write_csv(p, ["dist_inf", "log_abs_psi"], prows)
    files["plotdata"] = p


_RUNNERS = {
    "genfun": _run_genfun,
    "wegner": _run_wegner,
    "resonance": _run_resonance,
    "msa_schedule": _run_msa_schedule,
    "msa_singularity": _run_msa_singularity,
    "lifshitz": _run_lifshitz,
    "large_disorder": _run_large_disorder,
    "localization_decay": _run_decay,
}

_SUBCOMMAND_TO_KIND = {
    "analyze-potential": "genfun",
    "wegner": "wegner",
    "resonance": "resonance",
    "msa-schedule": "msa_schedule",
    "msa-probe": "msa_singularity",
    "lifshitz": "lifshitz",
    "large-disorder": "large_disorder",
    "decay": "localization_decay",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="alloymsa",
        description="Batch experiments on the discrete alloy-type Anderson model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_TO_KIND:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    config["kind"] = _SUBCOMMAND_TO_KIND[args.command]
    if args.seed is not None:
        config["seed"] = args.seed
    if args.trials is not None:
        config["trials"] = args.trials
    if args.threads is not None:
        config["threads"] = args.threads
    else:
        config.setdefault("threads", mc.resolve_threads(None))
    out_dir = args.out or Path(config.get("out", "alloymsa-out"))

    try:
        bundle = run_experiment(config, out_dir)
    except jsonschema.ValidationError as exc:
        print(f"error: config schema at {exc.json_path}: {exc.message}",
              file=sys.stderr)
        return 3
    except AlloyMSAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    for c in bundle.summary["contracts"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['detail']}")
    print(f"summary: {bundle.files['summary']}")
    return 0 if bundle.passed else 2


if __name__ == "__main__":
    sys.exit(main())
