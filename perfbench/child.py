"""Runs the alloymsa CLI in this process with the benchmark's hooks.

usage: python3 perfbench/child.py HOOK_OUT MODE [alloymsa arguments...]

MODE 0 times only the entry to and exit from `mc.run_trials`.  MODE 1
also records a span around every public function the per-layer metrics
name, and around `scipy.linalg.eigh` and `scipy.linalg.lu_factor`.
MODE env only imports the CLI and records the interpreter, numpy, scipy
and BLAS in HOOK_OUT.  Otherwise HOOK_OUT receives, as JSON, the time
spent importing `alloymsa.cli` and the recorded spans.

The environment variable PERFBENCH_SRC names the source tree the CLI
must be imported from; an `alloymsa` found anywhere else is refused.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from spans import Tracer, now

WRONG_SOURCE = 97


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _eigh_shape(args, kwargs, result):
    return {"n": int(args[0].shape[0]),
            "vectors": not kwargs.get("eigvals_only", False)}


def _verdict(args, kwargs, result):
    return {"verdict": result}


def _install(tracer: Tracer, full: bool) -> None:
    """Wrap the hooked functions and rebind every module-level name that
    refers to them: modules import functions by name, so patching only the
    defining module would miss most calls."""
    import jsonschema
    import scipy.linalg

    from alloymsa import (cli, genfun, lattice, mc, msa, resonance, spectral,
                          wegner)

    original_run_trials = mc.run_trials

    def run_trials(n_trials, worker, master_seed, threads=1):
        if full:
            worker = tracer.wrap("mc.worker", worker, parent=tracer.current())
        return original_run_trials(n_trials, worker, master_seed, threads)

    def trials_done(args, kwargs, result):
        threads = args[3] if len(args) > 3 else kwargs.get("threads", 1)
        return {"trials": len(result), "threads": mc.resolve_threads(threads)}

    modules = [m for name, m in sys.modules.items()
               if name == "alloymsa" or name.startswith("alloymsa.")]

    def hook(owner, attr, name, annotate=None, fn=None):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, fn or original, annotate)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    hook(mc, "run_trials", "mc.run_trials", trials_done, run_trials)
    if not full:
        return
    hook(lattice.DisorderModel, "sample", "lattice.sample")
    hook(lattice, "assemble_potential", "lattice.assemble_potential")
    hook(lattice, "free_box_matrix", "lattice.free_box_matrix", _matrix_bytes)
    hook(lattice, "restrict_hamiltonian", "lattice.restrict_hamiltonian")
    hook(spectral, "eigensolve", "spectral.eigensolve")
    hook(spectral, "greens_column", "spectral.greens_column")
    hook(spectral, "count_eigenvalues_in", "spectral.count_eigenvalues_in")
    hook(spectral, "decay_fit", "spectral.decay_fit")
    hook(scipy.linalg, "eigh", "spectral.eigh", _eigh_shape)
    hook(scipy.linalg, "lu_factor", "spectral.lu_factor")
    hook(msa, "uniform_regularity_test", "msa.uniform_regularity_test", _verdict)
    hook(genfun, "find_leading_index", "genfun.find_leading_index")
    hook(genfun, "companion_radius", "genfun.companion_radius")
    hook(genfun, "positivity_certificate", "genfun.positivity_certificate")
    hook(wegner, "wegner_constant_chain", "wegner.wegner_constant_chain")
    hook(resonance, "perturbation_radius", "resonance.perturbation_radius")
    hook(cli, "run_experiment", "cli.run_experiment")
    hook(cli, "write_csv", "cli.write_csv")
    hook(jsonschema, "validate", "cli.validate")


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    hook_out, mode, cli_args = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = now()
    import alloymsa.cli
    import_s = now() - t0
    source = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if not Path(alloymsa.cli.__file__).resolve().is_relative_to(source):
        print(f"alloymsa imported from {alloymsa.cli.__file__}, not {source}",
              file=sys.stderr)
        return WRONG_SOURCE
    if mode == "env":
        hook_out.write_text(json.dumps(_environment()))
        return 0
    tracer = Tracer()
    _install(tracer, full=(mode == "1"))
    try:
        return alloymsa.cli.main(cli_args)
    finally:
        hook_out.write_text(json.dumps({"import_s": import_s,
                                        "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
