#!/usr/bin/env python
"""BabelStream-style memory bandwidth survey across GPUs and backends.

Runs the five BabelStream kernels functionally on a reduced vector (to check
numerics on the simulated device) and then surveys the modelled bandwidth of
the paper's 2^25-element configuration on H100 and MI300A for every backend
that targets each GPU — the Figure 4 view, plus the performance-portability
summary of Table 5's BabelStream block.

Run with:  python examples/memory_bandwidth_survey.py
"""

from repro.backends import get_backend, list_backends
from repro.core.device import DeviceContext
from repro.harness.plotting import Series, line_chart
from repro.kernels.babelstream import BABELSTREAM_OPS, run_babelstream_functional
from repro.metrics.portability import arithmetic_mean_phi, efficiency
from repro.workloads import get_workload


def main() -> None:
    print("Functional verification of the five device kernels (reduced size):")
    errors = run_babelstream_functional(DeviceContext("h100"), n=1024,
                                        tb_size=32, dot_blocks=4)
    for name, err in errors.items():
        print(f"  {name}: max relative error {err:.2e}")

    print("\nModelled bandwidth at 2^25 elements (GB/s):")
    babelstream = get_workload("babelstream")
    request = babelstream.make_request(verify=False)
    results = {}
    for gpu in ("h100", "mi300a"):
        for backend in list_backends():
            if not get_backend(backend).supports(gpu):
                continue
            res = babelstream.run(request.replace(gpu=gpu, backend=backend))
            results[(gpu, backend)] = {op: res.metrics[f"{op}_gbs"]
                                       for op in BABELSTREAM_OPS}

    series = []
    for (gpu, backend), bandwidths in sorted(results.items()):
        s = Series(f"{gpu}/{backend}")
        for op in BABELSTREAM_OPS:
            s.add(op, bandwidths[op])
        series.append(s)
    print(line_chart(series, title="BabelStream bandwidth (Eq. 2)", unit=""))

    print("\nMojo efficiency vs the vendor baseline (Table 5, BabelStream block):")
    efficiencies = []
    for gpu, baseline in (("h100", "cuda"), ("mi300a", "hip")):
        for op in BABELSTREAM_OPS:
            e = efficiency(results[(gpu, "mojo")][op], results[(gpu, baseline)][op])
            efficiencies.append(e)
            print(f"  {gpu:8s} {op:6s} {e:.2f}")
    print(f"  Φ(BabelStream) = {arithmetic_mean_phi(efficiencies):.2f} "
          f"(paper: 0.96)")


if __name__ == "__main__":
    main()
