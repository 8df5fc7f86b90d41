"""The public surface: every ``__all__`` and every pointwise signature.

A public name leaves ``__all__`` only with a change that names it, and the
point decorator (``measures._pointwise``) must keep the parameter names and
defaults of every function and method it wraps.
"""

import importlib
import inspect

from kendall_walks import measures

_ALL = {
    "kendall_walks": [
        "AlphaConv", "AssociatedWalkEnsemble", "Beta", "CheckResult", "Convolution", "Dirac",
        "DistSpecError", "Distribution", "EnvelopeSpec", "FiniteMixture", "Gamma", "Kendall",
        "MaxConv", "MuAlpha", "ParameterError", "Pareto", "PowerLawEnvelope", "ResourceError",
        "RngStream", "Scaled", "SupportError", "SymPareto", "SymmetricConv", "TransformError",
        "Uniform01", "VerificationReport", "WalkConfig", "WalkEnsemble", "WalkPath",
        "WeakKendall", "atom_prob", "convolve_atomic", "convolve_sample", "empirical_chf",
        "envelope_check", "envelope_prob", "increment_cdf", "increment_joint_prob",
        "invert_transform", "joint_density", "kernel", "kernel_sample", "ks_statistic",
        "ks_two_sample", "mixture_power_pdf", "moment_check", "mu1_cdf", "mu1_nfold_pdf",
        "mu1_pdf", "mu1_ppf", "nstep_beta_cdf", "nstep_cdf", "nstep_delta1_cdf",
        "nstep_delta1_pdf", "nstep_gamma_cdf", "nstep_pdf", "nstep_uniform_cdf",
        "parse_convolution", "phi", "phi_prime", "philox_key", "run_verification",
        "sample_mu_alpha", "scale_law", "simulate", "simulate_associated", "sym_nstep_pdf",
        "symmetrized_atom", "transience_partial_sum", "transience_sum", "worker_count",
    ],
    "kendall_walks.measures": [
        "Beta", "Dirac", "Distribution", "FiniteMixture", "Gamma", "MuAlpha", "Pareto",
        "RngStream", "Scaled", "SymPareto", "Uniform01", "mu1_cdf", "mu1_pdf", "mu1_ppf",
        "sample_mu_alpha", "scale_law", "symmetrized_atom",
    ],
    "kendall_walks.closedforms": [
        "atom_prob", "envelope_prob", "increment_cdf", "increment_joint_prob", "joint_density",
        "mixture_power_pdf", "mu1_nfold_pdf", "mu1_nfold_pdf_quadrature", "nstep_beta_cdf",
        "nstep_delta1_cdf", "nstep_delta1_pdf", "nstep_gamma_cdf", "nstep_uniform_cdf",
        "sym_nstep_pdf", "transience_partial_sum", "transience_sum",
    ],
    "kendall_walks.williamson": [
        "invert_transform", "nstep_cdf", "nstep_pdf", "phi", "phi_prime",
    ],
    "kendall_walks.convolution": [
        "AlphaConv", "Convolution", "Kendall", "MaxConv", "SymmetricConv", "WeakKendall",
        "convolve_atomic", "convolve_sample", "kernel", "parse_convolution",
    ],
    "kendall_walks.verify": [
        "CONVOLUTION_KINDS", "CheckResult", "DEFAULT_CONFIG", "EnvelopeSpec", "KS_COEFF",
        "PowerLawEnvelope", "SCHEMA_VERSION", "SUITES", "VerificationReport", "empirical_chf",
        "envelope_check", "ks_statistic", "ks_two_sample", "moment_check", "run_axioms_suite",
        "run_chf_suite", "run_envelope_suite", "run_ks_suite", "run_moments_suite",
        "run_verification",
    ],
    "kendall_walks.walks": [
        "AssociatedWalkEnsemble", "WalkConfig", "WalkEnsemble", "WalkPath", "simulate",
        "simulate_associated", "worker_count",
    ],
    "kendall_walks.cli": ["build_parser", "format_dist", "main", "parse_dist", "run"],
}

_ALL_FOUR = ("cdf", "pdf", "ppf", "scaled_alpha_moment")
# the law methods each class defines itself, and the signature of each method
_LAW_METHODS = {
    "Dirac": _ALL_FOUR, "Pareto": _ALL_FOUR, "Beta": _ALL_FOUR, "Gamma": _ALL_FOUR,
    "Uniform01": _ALL_FOUR, "Scaled": _ALL_FOUR,
    "SymPareto": ("cdf", "pdf", "ppf"),
    "FiniteMixture": ("cdf", "pdf", "scaled_alpha_moment"),
    "MuAlpha": ("cdf", "pdf"),
}
_METHOD_SIGNATURE = {"cdf": "(self, x)", "pdf": "(self, x)", "ppf": "(self, u)",
                     "scaled_alpha_moment": "(self, x, alpha)"}
_NSTEP = "(n: 'int', alpha: 'float', x)"
_POINTWISE = {
    "Distribution.cdf_left": "(self, x)",
    **{f"{law}.{method}": _METHOD_SIGNATURE[method]
       for law, methods in _LAW_METHODS.items() for method in methods},
    "measures.mu1_cdf": "(x)",
    "measures.mu1_pdf": "(x)",
    "measures.mu1_ppf": "(u)",
    "closedforms.envelope_prob": "(n, r: 'float')",
    "closedforms.joint_density": "(k: 'int', u, v)",
    "closedforms.mixture_power_pdf": _NSTEP,
    "closedforms.mu1_nfold_pdf": "(n: 'int', x)",
    "closedforms.nstep_beta_cdf": "(n: 'int', alpha: 'float', a: 'float', b: 'float', x)",
    "closedforms.nstep_delta1_cdf": _NSTEP,
    "closedforms.nstep_delta1_pdf": _NSTEP,
    "closedforms.nstep_gamma_cdf": "(n: 'int', alpha: 'float', a: 'float', b: 'float', x)",
    "closedforms.nstep_uniform_cdf": _NSTEP,
    "closedforms.sym_nstep_pdf": _NSTEP,
    "closedforms.transience_sum": "(alpha: 'float', x)",
    "williamson.invert_transform": "(phi_fn, alpha: 'float', x, dphi=None)",
    "williamson.nstep_cdf":
        "(law: 'Distribution', alpha: 'float', n: 'int', x, left: 'bool' = False)",
    "williamson.nstep_pdf": "(law: 'Distribution', alpha: 'float', n: 'int', x)",
    "williamson.phi": "(law: 'Distribution', alpha: 'float', t)",
    "williamson.phi_prime": "(law: 'Distribution', alpha: 'float', t)",
}


def test_every_all_is_pinned():
    for name, names in _ALL.items():
        assert sorted(importlib.import_module(name).__all__) == names, name


def test_pointwise_signatures_are_pinned():
    # every function and law method that carries the point decorator, with
    # the signature it shows; a law class in measures gets it on definition
    found = {}
    for short in ("measures", "closedforms", "williamson"):
        module = importlib.import_module(f"kendall_walks.{short}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if getattr(obj, "_pointwise", False):
                found[f"{short}.{name}"] = str(inspect.signature(obj))
            if inspect.isclass(obj) and issubclass(obj, measures.Distribution):
                for attr, fn in vars(obj).items():
                    if getattr(fn, "_pointwise", False):
                        found[f"{name}.{attr}"] = str(inspect.signature(fn))
    assert found == _POINTWISE
