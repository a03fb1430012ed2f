"""Regenerate the expected outputs in ``perfbench/expected/``.

Run from the repository root when a change alters modelled numbers on
purpose::

    python3 perfbench/refresh_expected.py

* ``cli.json`` -- the markdown of the report sections of the experiments
  cli-warm reports, and the winner ``repro tune stencil`` finds;
* ``sweep.json`` -- per sweep-mixed configuration, the metrics that do not
  depend on the seeded request parameters (found by running each
  configuration under two seeds and keeping the metrics that agree).
"""

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.import_repro()
    from repro.experiments import run_experiment
    from repro.workloads import get_workload

    cli = {eid: run_experiment(eid, quick=True).to_markdown()
           for eid in run.EXPERIMENT_IDS}
    run.SCRATCH.mkdir(exist_ok=True)
    tune_dir = tempfile.mkdtemp(dir=run.SCRATCH)
    try:
        _, out = run.run_cli(["tune", "stencil", "--json", "--tune-dir",
                              tune_dir])
    finally:
        shutil.rmtree(tune_dir, ignore_errors=True)
    cli["tune:stencil"] = json.loads(out)["best"]
    (run.EXPECTED / "cli.json").write_text(
        json.dumps(cli, indent=1, sort_keys=True) + "\n")

    sweep = {}
    for config in run.sweep_configs():
        kernel, gpu, backend, size, verify, executor = config
        workload = get_workload(kernel)
        results = []
        for seed in (11, 12):
            params = dict(size)
            if kernel in run.SEEDED_PARAM:
                params[run.SEEDED_PARAM[kernel]] = seed
            results.append(workload.run(workload.make_request(
                gpu=gpu, backend=backend, params=params, verify=verify,
                executor=executor)).metrics)
        first, second = results
        sweep[run.config_key(*config)] = {
            k: v for k, v in sorted(first.items())
            if run.same_value(v, second.get(k))}
    (run.EXPECTED / "sweep.json").write_text(
        json.dumps(sweep, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
