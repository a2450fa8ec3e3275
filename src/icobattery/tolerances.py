"""Named numerical tolerances used by every invariant check in the package.

All tolerances live here so that tests and library code assert against the
same constants.  Energies are in units of hbar*omega throughout.
"""

# state / operator invariants
NORM_ATOL = 1e-12          # pure-state 2-norm deviation from 1
HERMITIAN_ATOL = 1e-12     # max-entry |A - A^dag|
UNITARY_ATOL = 1e-10       # max-entry |U^dag U - I|
TRACE_ATOL = 1e-12         # density-operator trace deviation from 1
PSD_EIG_FLOOR = -1e-12     # smallest admissible density eigenvalue
PROJECTOR_ATOL = 1e-10     # max-entry |P^2 - P| and |P - P^dag|

# spectral routines
EIG_RECONSTRUCT_ATOL = 1e-10   # |V diag(w) V^dag - H| after eigendecomposition

# thermodynamics
PROB_SUM_ATOL = 1e-10      # deviation from 1 of an ensemble's probability sum
ENERGY_EPS = 1e-9          # stored energy below which efficiency is undefined
ERGOTROPY_FLOOR = -1e-12   # ergotropy may round slightly negative; clamp to 0
PASSIVITY_ATOL = 1e-10     # ergotropy below this counts as passive

# cross-engine agreement (numeric pipeline vs closed forms)
ENGINE_AGREE_ATOL = 1e-9
