"""Names and defaults the command line offers, importable without numpy.

Each is stated once, here, and only this module lists the public ones.
``scenarios``, ``geometry`` and ``tracker`` import them and keep them as
attributes, so ``shadow-track`` builds its argument parser, and answers
``--version`` and ``--help``, without loading numpy or the solver.
"""

__all__ = [
    "SCENARIO_IDS", "MODE_IGNORE_CORRELATION", "MODE_PROPAGATE",
    "POLICY_COALESCE", "POLICY_ZERO_WEIGHT", "POLICY_FORECAST", "POLICIES",
]

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
