"""Batch experiment runner: JSON configs in, CSV/JSON reports out.

`KINDS` is the one table of experiment kinds: each maps to its
subcommand, its runner and the schema of its params, which is checked
before any trial.  A runner receives one `Run`: the model, the params,
the Monte-Carlo settings (seed, trials, threads), and the summary and
output files it reports into through `Run.contract`, `Run.write_csv`
and `Run.write_json`.  Every run embeds the config hash and the computed
constants in its summary, and identical config+seed produce
byte-identical outputs across reruns and thread counts.  Exit codes:
0 pass, 2 contract violation, 3 precondition/parameter error (a usage
error, or an output directory or report that cannot be written, too),
4 capacity error.
`--threads N` runs the trials in N processes, this one and N - 1 forked
children that inherit the closure (never pickled); see `mc`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, mc
from .errors import AlloyMSAError, ParameterError
from .genfun import find_leading_index, positivity_certificate, tail_bound
from .initial_scale import (admissible_lengths, beta_floor,
                            large_disorder_probe, lifshitz_probe)
from .lattice import (DisorderModel, SingleSitePotential, make_box,
                      restrict_hamiltonian, sample_configuration,
                      uniform_density)
from .msa import (MSAParameters, estimate_singularity_probability,
                  scale_schedule, schedule_to_json_dict, validate_parameters)
from .resonance import estimate_resonance_probabilities
from .spectral import checked_interval, decay_fit, decay_shells, eigensolve
from .wegner import estimate_partial_expectation, wegner_bound

# draft-07: checking a schema against its metaschema costs a fraction of
# the latest draft's, and it runs on every validation
SCHEMA_DRAFT = "http://json-schema.org/draft-07/schema#"
NUMBER = {"type": "number"}
NUMBERS = {"type": "array", "items": NUMBER}
# draft-07 counts 3.0 as an integer; runners convert with int()
INTEGER = {"type": "integer"}
INTEGERS = {"type": "array", "items": INTEGER}
COUNT = {"type": "integer", "minimum": 0}
PAIR = {**NUMBERS, "minItems": 2, "maxItems": 2}
# a potential table entry [[k_1, ..., k_d], u(k)]
TABLE_ENTRY = {"type": "array", "minItems": 2, "maxItems": 2,
               "items": [{**INTEGERS, "minItems": 1}, NUMBER]}
# a polynomial density piece: its interval and coefficients, ascending in x
DENSITY_PIECE = {"type": "object", "required": ["interval", "coeffs"],
                 "properties": {"interval": PAIR,
                                "coeffs": {**NUMBERS, "minItems": 1}}}


def _fmt(x) -> str:
    if isinstance(x, float):
        # float() first: numpy scalars subclass float but repr as np.float64(...)
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write a report; ParameterError when the file cannot be written."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from None


def _finite_number(text: str) -> float:
    """A JSON number literal as a float; ParameterError for NaN, Infinity,
    -Infinity (which Python's json accepts) and literals such as 1e999
    that overflow, since no parameter has a meaning at a non-finite value."""
    value = float(text)
    if not math.isfinite(value):
        raise ParameterError(f"number {text} is not finite")
    return value


def _finite_integer(text: str) -> int:
    """A JSON integer literal as an int; ParameterError for one too large
    to be read as a float, as every numeric parameter is somewhere, and
    for one past Python's limit on the digits of an int."""
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):
        raise ParameterError(f"integer of {len(text.lstrip('-'))} digits "
                             "is too large") from None
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print argparse's usage and
    message and exit 3, a parameter error: argparse's own 2 means a failed
    contract here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def config_hash(config: dict) -> str:
    # threads and output location must not change the science
    hashed = {k: v for k, v in config.items() if k not in ("threads", "out")}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_model(model_cfg: dict) -> tuple[SingleSitePotential, DisorderModel]:
    u_cfg = dict(model_cfg["u"])
    # the potential's d sizes its computed truncation tail
    if u_cfg.setdefault("d", model_cfg["d"]) != model_cfg["d"]:
        raise ParameterError(f"potential d = {u_cfg['d']!r} disagrees with "
                             f"model d = {model_cfg['d']!r}")
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
class Run:
    """One experiment as its runner sees it: the inputs, and the summary
    and output files (key -> path) it reports into."""

    u: SingleSitePotential
    model: DisorderModel
    params: dict
    seed: int
    trials: int
    threads: int
    out_dir: Path
    summary: dict
    files: dict[str, Path] = field(default_factory=dict)

    def contract(self, name: str, passed: bool, detail: str = "") -> None:
        self.summary["contracts"].append({"name": name, "passed": bool(passed),
                                          "detail": detail})

    def write_csv(self, key: str, name: str, header: list[str],
                  rows: list[list]) -> None:
        path = self.out_dir / name
        write_csv(path, header, rows)  # the module function
        self.files[key] = path

    def write_json(self, key: str, name: str, data: dict) -> None:
        path = self.out_dir / name
        _write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")
        self.files[key] = path


def run_experiment(config: dict, out_dir: Path) -> Run:
    jsonschema.validate(config, CONFIG_SCHEMA)
    kind = config["kind"]
    _, runner, params_schema = KINDS[kind]
    params = config.get("params", {})
    # wrapped, so that an error's path starts at params
    jsonschema.validate({"params": params}, {
        "$schema": SCHEMA_DRAFT, "properties": {"params": params_schema}})
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create the output directory {out_dir}: "
                             f"{exc.strerror}") from None
    u, model = load_model(config["model"])
    run = Run(u=u, model=model, params=params,
              seed=int(config.get("seed", 0)),
              trials=int(config.get("trials", 2000)),
              threads=int(config.get("threads", 1)), out_dir=out_dir,
              summary={"kind": kind, "config_hash": config_hash(config),
                       "version": __version__, "constants": {},
                       "contracts": []})
    runner(run)
    run.summary["outputs"] = {k: v.name for k, v in sorted(run.files.items())}
    run.write_json("summary", f"{kind}_summary.json", run.summary)
    return run


def _scales(params: dict, default: list) -> list:
    """params["ls"], or `default`; an empty list would leave no contract."""
    ls = params.get("ls", default)
    if not ls:
        raise ParameterError("ls must list at least one scale")
    return ls


def _run_genfun(run: Run) -> None:
    u = run.u
    lead = find_leading_index(u, run.params.get("zero_tolerance"))
    run.summary["constants"]["I0"] = list(lead.leading)
    run.summary["constants"]["c_u"] = lead.c_u
    run.summary["constants"]["C_hat"] = tail_bound(u, 0.0, 0.0)
    run.write_json("leading_index", "leading_index.json", lead.to_json_dict())
    rows = []
    for l in map(float, _scales(run.params, [2.0, 4.0])):
        cert = positivity_certificate(u, lead, l)
        rows.append([l, cert.radius, cert.min_value, cert.slack,
                     int(cert.holds), " ".join(map(str, cert.worst_x))])
        run.contract(f"positivity_l={l}", cert.holds, f"min={cert.min_value:.6g}")
    run.write_csv("positivity", "positivity.csv",
                  ["l", "R_l", "min_value", "slack", "holds", "worst_x"], rows)


def _run_wegner(run: Run) -> None:
    u, model, trials = run.u, run.model, run.trials
    lead = find_leading_index(u)
    interval = checked_interval(run.params.get("interval", [1.9, 2.1]))
    rows = []
    plot = []
    for l in map(float, _scales(run.params, [2, 4, 6, 8])):
        rep = wegner_bound(u, lead, model, l, interval)
        estimates = estimate_partial_expectation(
            u, lead, model, l, interval, int(run.params.get("exteriors", 0)),
            trials, run.seed, threads=run.threads)
        for e_idx, (mean, stderr) in enumerate(estimates):
            rows.append([u.dimension, l, rep.radius, interval[0], interval[1],
                         trials, mean, stderr, rep.bound, rep.c_w_chain,
                         rep.bv_norm])
            run.contract(f"wegner_l={l}_ext={e_idx}",
                         mean - 3 * stderr <= rep.bound,
                         f"mean={mean:.4g} bound={rep.bound:.4g}")
            if e_idx == 0 and mean > 0:
                plot.append([math.log(2 * l + 1), math.log(mean),
                             stderr / mean])
    run.write_csv("wegner", "wegner.csv",
                  ["d", "l", "R_l", "interval_lo", "interval_hi", "trials",
                   "mean", "std_error", "bound", "chain", "bv_norm"], rows)
    if plot:
        run.write_csv("plotdata", "wegner_plot.csv",
                      ["log_2l_plus_1", "log_mean", "yerr"], plot)


def _run_resonance(run: Run) -> None:
    u, params, trials = run.u, run.params, run.trials
    lead = find_leading_index(u)
    x = tuple(int(c) for c in params.get("x", (0,) * u.dimension))
    y = tuple(int(c) for c in params["y"])
    l1 = float(params["l1"])
    l2 = float(params["l2"])
    eps_list = [float(eps) for eps in params.get("eps_list", [1e-3, 1e-2, 1e-1])]
    reports = estimate_resonance_probabilities(
        u, lead, run.model, x, y, l1, l2, eps_list, trials, run.seed,
        threads=run.threads)
    rows = []
    for eps, rep in zip(eps_list, reports):
        rows.append([" ".join(map(str, x)), " ".join(map(str, y)), l1, l2,
                     eps, trials, rep.p_lo, rep.p_hi, rep.theory_bound,
                     rep.delta1, rep.delta2])
        run.contract(f"resonance_eps={eps}",
                     rep.p_hi <= rep.theory_bound + 3 * rep.std_error,
                     f"p_hi={rep.p_hi:.4g} bound={rep.theory_bound:.4g}")
    run.write_csv("resonance", "resonance.csv",
                  ["x", "y", "l1", "l2", "eps", "trials", "p_lo", "p_hi",
                   "theory_bound", "delta1", "delta2"], rows)


def _run_msa_schedule(run: Run) -> None:
    p = MSAParameters(**{key: float(value)
                         for key, value in run.params["msa"].items()})
    lead = find_leading_index(run.u)
    report = validate_parameters(p, lead, run.u, run.model)
    run.summary["constants"].update({
        "l_star": report.l_star, "l_bar": report.l_bar,
        "l_bar_sharp": report.l_bar_sharp,
        "thresholds": report.thresholds,
    })
    run.contract("parameters_valid", report.ok,
                 "; ".join(report.violated) or "all interval constraints hold")
    if not report.ok:
        return
    schedule = scale_schedule(p, int(run.params.get("k_max", 25)))
    run.write_json("schedule", "schedule.json",
                   schedule_to_json_dict(schedule, report))
    rows = [[k, float(ll), float(mm)]
            for k, (ll, mm) in enumerate(zip(schedule.lengths, schedule.masses))]
    run.write_csv("plotdata", "schedule_plot.csv", ["k", "l_k", "m_k"], rows)


def _run_msa_singularity(run: Run) -> None:
    params = run.params
    interval = params.get("interval", [-0.1, 0.1])  # checked by the estimator
    grid = params.get("energy_grid", 101)
    rep = estimate_singularity_probability(
        run.u, run.model, float(params["l"]), float(params["m"]), interval,
        list(map(float, grid)) if isinstance(grid, list) else int(grid),
        run.trials, run.seed, threads=run.threads)
    run.summary["constants"]["p_hi"] = rep.p_hi
    if params.get("p_hi_max") is not None:
        bound = float(params["p_hi_max"])
        run.contract("singularity_regression", rep.p_hi <= bound,
                     f"p_hi={rep.p_hi:.4g} cap={bound}")
    rows = [[E, count, run.trials] for E, count in sorted(rep.per_energy.items())]
    run.write_csv("singularity", "singularity.csv",
                  ["E", "not_certified_regular", "trials"], rows)


def _run_lifshitz(run: Run) -> None:
    u, model, params = run.u, run.model, run.params
    zeta = float(params.get("zeta", 1.0))
    xi = float(params.get("xi", 2.0))
    eps0 = float(params.get("epsilon0", model.omega_plus / 12.0))
    if "l" in params:
        l = float(params["l"])
    else:
        lo, hi = params.get("l_range", [15, 45])
        ls = admissible_lengths(zeta, beta_floor(u), float(lo), float(hi))
        if not ls:
            raise ParameterError("no admissible l in the requested range")
        l = float(ls[0])
    rep = lifshitz_probe(u, model, l, zeta, xi, eps0, run.trials, run.seed,
                         threads=run.threads)
    run.summary["constants"].update({
        "beta0": rep.beta0, "delta": rep.delta, "l_tilde": rep.l_tilde,
        "n_subcubes": rep.n_subcubes,
    })
    run.contract("lifshitz_chain_bound",
                 rep.p_emp <= rep.chain_bound + 3 * rep.std_error,
                 f"p_emp={rep.p_emp:.4g} chain={rep.chain_bound:.4g}")
    run.write_csv("lifshitz", "lifshitz.csv",
                  ["l", "zeta", "beta0", "delta", "trials", "p_emp",
                   "chain_bound", "paper_bound", "lambda1_mean"],
                  [[l, zeta, rep.beta0, rep.delta, run.trials, rep.p_emp,
                    rep.chain_bound, rep.paper_bound, rep.lambda1_mean]])


def _run_large_disorder(run: Run) -> None:
    params = run.params
    lead = find_leading_index(run.u)
    rep = large_disorder_probe(run.u, run.model, lead, float(params["l0"]),
                               float(params["m0"]), float(params["xi"]))
    run.summary["constants"].update({
        "delta0": rep.delta0, "chain": rep.chain, "target": rep.target,
        "rhs_printed": rep.rhs_printed,
        "rhs_negative_exponent": rep.rhs_negative_exponent,
        "max_bv_printed": rep.max_bv_printed,
        "max_bv_negative_exponent": rep.max_bv_negative_exponent,
        "notes": rep.notes,
    })
    run.contract("bound_closes_negative_exponent",
                 rep.satisfies_negative_exponent,
                 f"rhs={rep.rhs_negative_exponent:.4g} target={rep.target:.4g}")
    run.write_json("large_disorder", "large_disorder.json",
                   run.summary["constants"])


def _run_decay(run: Run) -> None:
    u, model, params = run.u, run.model, run.params
    l = float(params.get("l", 20.0))
    n_lowest = int(params.get("n_lowest", 5))
    rate_max = float(params.get("rate_max", -0.2))
    r2_min = float(params.get("r2_min", 0.8))
    frac_min = float(params.get("frac_min", 0.9))
    box = make_box((0,) * u.dimension, l)
    if not 1 <= n_lowest <= box.count:
        raise ParameterError(
            f"n_lowest must lie in [1, {box.count}], got {n_lowest}")

    def worker(i, rng):
        op = restrict_hamiltonian(u, sample_configuration(u, model, box, rng),
                                  box)
        res = eigensolve(op, vectors=n_lowest)
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

    results = mc.run_trials(run.trials, worker, run.seed, run.threads)
    frac = sum(1.0 for ok, _, _ in results if ok) / len(results)
    run.summary["constants"]["fraction_localized"] = frac
    run.contract("decay_regression", frac >= frac_min,
                 f"fraction={frac:.3f} threshold={frac_min}")
    rows = []
    for t, (_ok, fits, _psi) in enumerate(results):
        for j, (rate, r2) in enumerate(fits):
            rows.append([t, j, rate, r2])
    run.write_csv("decay", "decay.csv", ["trial", "eigenvector", "rate", "r2"],
                  rows)
    shells = decay_shells(results[0][2], box)
    prows = [[r, math.log(v)] for r, v in shells.items()]
    run.write_csv("plotdata", "decay_plot.csv", ["dist_inf", "log_abs_psi"],
                  prows)


# kind -> (subcommand, runner, params schema).  The schema lists the params
# its runner converts, iterates or requires.
KINDS = {
    "genfun": ("analyze-potential", _run_genfun, {"properties": {
        "ls": NUMBERS, "zero_tolerance": {**NUMBER, "minimum": 0}}}),
    "wegner": ("wegner", _run_wegner, {"properties": {
        "ls": NUMBERS, "exteriors": COUNT}}),
    "resonance": ("resonance", _run_resonance, {
        "required": ["y", "l1", "l2"],
        "properties": {"x": INTEGERS, "y": INTEGERS, "l1": NUMBER, "l2": NUMBER,
                       "eps_list": NUMBERS}}),
    "msa_schedule": ("msa-schedule", _run_msa_schedule, {
        "required": ["msa"], "properties": {
            "k_max": COUNT,
            "msa": {"type": "object",
                    "required": ["xi", "kappa", "beta", "q", "m0", "l0"],
                    "additionalProperties": False,
                    "properties": {"xi": NUMBER, "kappa": NUMBER,
                                   "beta": NUMBER, "q": NUMBER, "m0": NUMBER,
                                   "l0": NUMBER}}}}),
    "msa_singularity": ("msa-probe", _run_msa_singularity, {
        "required": ["l", "m"],
        "properties": {"l": NUMBER, "m": NUMBER, "interval": PAIR,
                       "energy_grid": {"anyOf": [
                           {"type": "integer", "minimum": 1},
                           {**NUMBERS, "minItems": 1}]},
                       "p_hi_max": {"type": ["number", "null"]}}}),
    "lifshitz": ("lifshitz", _run_lifshitz, {"properties": {
        "zeta": NUMBER, "xi": NUMBER, "epsilon0": NUMBER, "l": NUMBER,
        "l_range": PAIR}}),
    "large_disorder": ("large-disorder", _run_large_disorder, {
        "required": ["l0", "m0", "xi"],
        "properties": {"l0": NUMBER, "m0": NUMBER, "xi": NUMBER}}),
    "localization_decay": ("decay", _run_decay, {"properties": {
        "n_lowest": INTEGER,
        **{key: NUMBER for key in ("l", "rate_max", "r2_min", "frac_min")}}}),
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
                      "properties": {
                          "d": {"type": "integer", "minimum": 1},
                          "values": {"type": "array", "minItems": 1,
                                     "items": TABLE_ENTRY},
                          "C": NUMBER, "alpha": NUMBER,
                          "truncation_radius": COUNT,
                          "truncation_residual": NUMBER}},
                "rho": {"type": "object",
                        "anyOf": [{"required": ["uniform"]},
                                  {"required": ["pieces"]}],
                        "properties": {
                            "uniform": PAIR,
                            "pieces": {"type": "array", "minItems": 1,
                                       "items": DENSITY_PIECE}}},
            },
        },
        "params": {"type": "object"},
        # the Monte-Carlo streams read a seed as 64 bits: a larger one
        # would alias a smaller one
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "trials": {"type": "integer", "minimum": 1},
        "threads": {"type": "integer", "minimum": 1},
        "out": {"type": "string"},
    },
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="alloymsa",
        description="Batch experiments on the discrete alloy-type Anderson model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (name, _, _) in KINDS.items():
        p = sub.add_parser(name)
        p.set_defaults(kind=kind)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(),
                            parse_float=_finite_number,
                            parse_int=_finite_integer,
                            parse_constant=_finite_number)
    except (OSError, json.JSONDecodeError, ParameterError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    if not isinstance(config, dict):
        print("error: config must be a JSON object, got "
              f"{type(config).__name__}", file=sys.stderr)
        return 3
    config["kind"] = args.kind
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
        run = run_experiment(config, out_dir)
    except jsonschema.ValidationError as exc:
        print(f"error: config schema at {exc.json_path}: {exc.message}",
              file=sys.stderr)
        return 3
    except AlloyMSAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    contracts = run.summary["contracts"]
    for c in contracts:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['detail']}")
    print(f"summary: {run.files['summary']}")
    return 0 if all(c["passed"] for c in contracts) else 2


if __name__ == "__main__":
    sys.exit(main())
