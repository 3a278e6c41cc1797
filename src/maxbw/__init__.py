"""Bandwidth, pilot overhead, and power allocation for noncoherent wideband links.

The central question: given a received power budget and a channel coherence
block, how much bandwidth is actually beneficial once channel estimation has
to be paid for in-band? The `core` module answers it for a single link,
`beamform` maps antenna arrays onto the same scalar problem, `linkbudget`
turns deployment parameters into received power densities, `baselines`
provides the reference schemes to compare against, and `allocate` splits
pooled budgets across users without making anyone worse off.

Names resolve lazily (PEP 562): `import maxbw` loads none of these modules,
and the first read of `maxbw.X`, by attribute, `from maxbw import X` or
`from maxbw import *`, imports the one module that defines X and keeps the
value here. So a CLI command compiles and runs only the modules it uses.
"""

import sys

__version__ = "0.1.0"

# every public submodule, with the names the package re-exports from it
_EXPORTS = {
    "allocate": ("Allocation", "AllocationEntry", "UserLink", "allocate_group",
                 "allocate_pair", "baseline_rates"),
    "baselines": (),
    "beamform": ("ArrayConfig", "closed_form_mimo", "mimo_rate", "solve_with_gains", "substitute"),
    "cli": (),
    "core": ("CoherenceBlock", "EstimationQuality", "OperatingPoint", "PowerDensity",
             "alpha_given_rho", "closed_form_first_order", "closed_form_refined",
             "condition_residuals", "discretize", "effective_snr", "estimation_quality",
             "exhaustive_search", "rate", "rate_fixed_bandwidth", "solve_continuous"),
    "errors": ("ConfigError", "SolverError"),
    "fading": ("FadingModel",),
    "linkbudget": ("LinkBudget", "PathLossModel", "eirp_table", "path_loss_db",
                   "power_density"),
    "scenario": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        # not importlib.import_module: -X importtime logs only this path
        __import__(f"{__name__}.{name}")
        value = sys.modules[f"{__name__}.{name}"]
    elif name in _ORIGIN:
        value = getattr(__getattr__(_ORIGIN[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
