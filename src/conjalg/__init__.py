"""Conjugacy machinery for finite dynamical systems and Mobius disk maps.

`import conjalg` loads no layer and no numpy.  Each exported name is
imported from its home module on first access (PEP 562) and then bound
here, and so is each submodule, `conjalg.verify` and `conjalg.cli` too.
`conjalg.diskmaps` loads no numpy; the other layers do.
"""

import importlib as _importlib

__version__ = "0.1.0"

# the defaults of `conj --seed` and `conj norms --trunc`, kept here so that
# the command line parser is built without loading `verify` or `reps`
DEFAULT_SEED = 20240901
DEFAULT_TRUNC = 64

_EXPORTS = {
    "charspace": ("Character", "CharacterCatalog", "build_catalog", "catalog_equal",
                  "eval_character"),
    "diskmaps": ("DiskClassification", "MobiusMap", "analytically_conjugate", "classify",
                 "mobius_apply", "mobius_compose", "mobius_derivative", "mobius_inverse",
                 "normal_form", "semicrossed_iso_verdict", "verify_conjugacy_witness"),
    "dynsys": ("ConjugacyWitness", "FiniteDynSys", "OrbitStructure", "are_conjugate",
               "brute_force_conjugate", "canonical_form", "fixed_points", "orbit_structure",
               "relabel"),
    "reps": ("FixedDerivativeRep", "OffFixedRep", "PencilRep", "TruncatedRep",
             "build_fixed_derivative", "build_offfixed", "build_pencil", "extract_characters",
             "norm_estimate", "rep_matrix", "spectral_radius_estimate"),
    "skewpoly": ("SkewPoly", "coefficient", "l1_norm", "skew_add", "skew_mul", "skew_scale",
                 "transport"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "verify"}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _HOME:
        value = getattr(_importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
