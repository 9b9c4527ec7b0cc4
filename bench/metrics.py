"""Workload and metric names, units and directions, shared by the runner and
the self-test.

``LAYERS`` also records, for each per-layer metric, the end-to-end metrics
and workloads it should move, so a change to one layer says beforehand where
its gain must show.
"""

WORKLOADS = ("recovery-deep", "returns-certified", "language-exact", "dimension-shallow")

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "frac", "accuracy_frac": "frac",
}

# name -> (unit, better, [(end-to-end metric, workload) it should move])
_BUILD = [("setup_s", w) for w in ("recovery-deep", "returns-certified", "dimension-shallow")]
_BUILD_RSS = _BUILD + [("peak_rss_mb", w) for w in
                       ("recovery-deep", "returns-certified", "dimension-shallow")]
_DEEP = [("run_s", "recovery-deep")]
_RETURNS = [("item_p50_ms", "returns-certified")]
_LANG_ITEM = [("item_p50_ms", "language-exact")]
_LANG_RUN = [("run_s", "language-exact")]
LAYERS = {
    "cantor.build_plan_s": ("s", "lower", _BUILD_RSS),
    "cantor.pool_builds": ("count", "lower", _BUILD_RSS),
    "cantor.pool_build_s": ("s", "lower", _BUILD_RSS),
    "cantor.pool_sample_calls": ("count", "lower", _DEEP + _RETURNS),
    "cantor.pool_sample_s": ("s", "lower", _DEEP + _RETURNS),
    "cantor.sample_digits_per_s": ("digits/s", "higher", _DEEP + _RETURNS),
    "cantor.sample_point_s": ("s", "lower", [("item_p50_ms", "dimension-shallow")]),
    "cantor.measure_calls": ("count", "lower", [("run_s", "dimension-shallow")]),
    "cantor.measure_s": ("s", "lower", [("run_s", "dimension-shallow")]),
    "recurrence.z_array_calls": ("count", "lower", _DEEP),
    "recurrence.z_array_digits": ("digits", "lower", _DEEP),
    "recurrence.z_array_s": ("s", "lower", _DEEP),
    "recurrence.digit_period_calls": ("count", "lower", _DEEP),
    "recurrence.digit_period_s": ("s", "lower", _DEEP),
    "recurrence.estimate_r_s": ("s", "lower", _DEEP),
    "recurrence.estimate_r_hat_s": ("s", "lower", _DEEP),
    "recurrence.neg_log_distance_calls": ("count", "lower", [("run_s", "returns-certified")]),
    "recurrence.neg_log_distance_s": ("s", "lower", [("run_s", "returns-certified")]),
    "recurrence.fallback_frac": ("frac", "lower", _DEEP + _LANG_RUN),
    "recurrence.extract_returns_s": ("s", "lower", _RETURNS),
    "recurrence.compare_distance_power_calls": ("count", "lower", _RETURNS),
    "recurrence.compare_distance_power_s": ("s", "lower", _RETURNS),
    "recurrence.verify_bracketing_s": ("s", "lower", _RETURNS),
    "recurrence.classify_prefix_s": ("s", "lower", _RETURNS),
    "recurrence.stream_digits": ("digits", "lower", _LANG_RUN),
    "expansion.approximate_beta_s": ("s", "lower",
                                     [("setup_s", "language-exact")] + _BUILD),
    "expansion.orbit_digits_per_s": ("digits/s", "higher", _LANG_RUN),
    "expansion.word_sum_bounds_calls": ("count", "lower", _LANG_ITEM),
    "expansion.word_sum_bounds_s": ("s", "lower", _LANG_ITEM),
    "expansion.beta_power_bounds_s": ("s", "lower", _LANG_ITEM),
    "algebraic.floor_element_calls": ("count", "lower", _LANG_RUN),
    "algebraic.floor_element_s": ("s", "lower", _LANG_RUN),
    "algebraic.power_bounds_calls": ("count", "lower", _LANG_RUN),
    "numerics.shrink_calls": ("count", "lower", _LANG_ITEM),
    "numerics.powi_calls": ("count", "lower", _LANG_ITEM),
    "numerics.powi_s": ("s", "lower", _LANG_ITEM),
    "symbolic.cylinder_us_golden": ("us", "lower", _LANG_ITEM),
    "symbolic.cylinder_us_rational": ("us", "lower", _LANG_ITEM),
    "symbolic.count_admissible_s": ("s", "lower", _LANG_RUN),
    "symbolic.enumerate_words_per_s": ("words/s", "higher", _LANG_RUN),
    "symbolic.automaton_for_calls": ("count", "lower",
                                     [("setup_s", "language-exact")] + _BUILD),
    "symbolic.automaton_builds": ("count", "lower",
                                  [("setup_s", "language-exact")] + _BUILD),
    "dimension.boxcount_s": ("s", "lower", [("run_s", "dimension-shallow")]),
    "trace.overhead_frac": ("frac", "lower",
                            [("run_s", w) for w in ("recovery-deep", "returns-certified",
                                                    "language-exact", "dimension-shallow")]),
}
