"""References the good knobs and use_good_hook so CFG601 sees them tested.

(Not named ``test_*.py`` -- pytest must not collect fixture trees.)
"""

GOOD = "good_knob"
GOOD_TIER = "good_tier_knob"
GOOD_COMPUTE = "good_compute_knob"
HOOK = "use_good_hook"
