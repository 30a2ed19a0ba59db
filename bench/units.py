"""Names and units of the reported metrics, in the order they are printed.

``BENCHMARK.json`` lists the same names; a test holds the two together.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "criticality.maximize_per_report": "count",
    "criticality.reports": "count",
    "criticality.self_s": "s",
    "landscape.maximize_calls": "count",
    "landscape.maximize_self_s": "s",
    "landscape.fun_evals": "count",
    "landscape.uncertified_ratio": "ratio",
    "landscape.unconverged_ratio": "ratio",
    "landscape.self_s": "s",
    "mixture.calls": "count",
    "mixture.self_s": "s",
    "montecarlo.sample_calls": "count",
    "montecarlo.sample_self_s": "s",
    "rng.generators": "count",
    "rng.self_s": "s",
    "montecarlo.contract_rows": "count",
    "montecarlo.contract_self_s": "s",
    "montecarlo.peak_alloc_mb": "MB",
    "montecarlo.disorder_draws": "count",
    "montecarlo.disorder_s": "s",
    "montecarlo.estimator_self_s": "s",
    "montecarlo.self_s": "s",
    "verify.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.max_nodes_s3": "count",
    "quadrature.self_s": "s",
    "quadrature.peak_alloc_mb": "MB",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "model.load_s": "s",
    "model.self_s": "s",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_sum_s": "s",
}
