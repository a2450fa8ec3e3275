"""Named numerical tolerances of the package's invariant checks.

Tests of the library assert against these same constants.  The bounds that
only the tests' dense linear-algebra oracle checks are in
`tests/labeled_linalg.py`.
Energies are in units of hbar*omega throughout.
"""

# state / operator invariants
NORM_ATOL = 1e-12          # pure-state 2-norm deviation from 1
# the level below which an outcome probability counts as negative
# (thermo._weighted_sum); the library checks no trace, and only the tests'
# dense oracle (labeled_linalg.require_density) holds a density operator's
# trace deviation from 1 to it
TRACE_ATOL = 1e-12

# thermodynamics
PROB_SUM_ATOL = 1e-10      # deviation from 1 of an ensemble's probability sum
ENERGY_EPS = 1e-9          # stored energy below which efficiency is undefined
ERGOTROPY_FLOOR = -1e-12   # ergotropy may round slightly negative; clamp to 0
PASSIVITY_ATOL = 1e-10     # ergotropy below this counts as passive

# cross-engine agreement (numeric pipeline vs closed forms)
ENGINE_AGREE_ATOL = 1e-9
