"""Names and defaults the command line offers, importable without numpy.

Each is stated once, here. The modules that own them (``scenarios``,
``geometry``, ``tracker``) import them from this module and re-export
them, so ``shadow-track`` builds its argument parser, and answers
``--version`` and ``--help``, without loading numpy or the solver.
"""

SCENARIO_IDS = ("rednoise", "planar", "sonar", "range-bearing")

# Noise handling for single-site polar fixes.
MODE_IGNORE_CORRELATION = "ignore-correlation"
MODE_PROPAGATE = "propagate"

# A fix whose condition weight falls below this is treated as a gap.
DROP_WEIGHT = 1e-6

POLICY_COALESCE = "coalesce-gaps"
POLICY_ZERO_WEIGHT = "zero-weight-placeholder"
POLICY_FORECAST = "forecast-insert"
POLICIES = (POLICY_COALESCE, POLICY_ZERO_WEIGHT, POLICY_FORECAST)

# TrackerConfig's defaults for its eta and forecast_info_scale.
TRACKER_ETA = 1000.0
FORECAST_INFO_SCALE = 0.25
