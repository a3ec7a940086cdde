"""Pseudo-spectral lab for 2D generalized MHD with fractional dissipation.

Submodules:
    spectral      grids, the one real transform pair, half-spectrum fields
                  and the one Parseval sum (every spectrum is a half spectrum)
    dynamics      the (omega, a) solver: tendencies, IF-RK4 stepping, runs
    diagnostics   per-state records, conservation audits, CSV round trip
    analysis      regime classifier, exponent algebra, Gronwall audit
    inequalities  interpolation-inequality corpus and positivity checks
    config        run-configuration file grammar
    cli           command-line harness (run / scan / verify / classify)
"""

__version__ = "0.1.0"

# No name is re-exported and no submodule is loaded here: import a name from
# its submodule, so that a command loads only the modules it runs.
