"""Public namespace sanity checks."""

import importlib.metadata
import pathlib

import pytest

import spreadlab

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_all_exports_resolve():
    missing = [name for name in spreadlab.__all__ if not hasattr(spreadlab, name)]
    assert missing == []
    assert len(spreadlab.__all__) == len(set(spreadlab.__all__))


def test_public_names_are_pinned():
    # an export added or dropped shows up here as a deliberate diff
    assert sorted(spreadlab.__all__) == [
        "AmbientMismatchError",
        "BHP_EXACT",
        "BoundReport",
        "BudgetExceededError",
        "CertificateCheck",
        "ConstructionSizeMismatchError",
        "DRAKE_FREEMAN",
        "EJSSS_EXACT",
        "Field",
        "FieldMismatchError",
        "HyperplaneProfile",
        "HypothesisViolatedError",
        "IdentityViolationError",
        "InvalidParamsError",
        "KURZ_EXACT",
        "MAIN_THEOREM",
        "NS_EXACT",
        "NotPrimeError",
        "OutOfRegimeError",
        "OverflowLimitError",
        "PartialSpread",
        "SOURCES",
        "SPREAD_EXACT",
        "SearchResult",
        "SpreadLabError",
        "SpreadParams",
        "Subspace",
        "SubspacePartition",
        "TRIVIAL_OVERLAP",
        "UnverifiedSpreadError",
        "UpperBound",
        "VerificationResult",
        "best_known",
        "build_lower_bound_spread",
        "c1_c2",
        "check_certificate",
        "compare_bounds",
        "delta",
        "descent_certificate",
        "descent_x",
        "drake_freeman",
        "enumerate_subspaces",
        "ext_field",
        "field_for_order",
        "field_new",
        "gaussian_binomial",
        "greedy_result",
        "greedy_spread",
        "h_of",
        "hyperplane_profile",
        "in_main_regime",
        "lemma_main_bound",
        "lower_bound",
        "main_bound",
        "max_partial_spread",
        "omega_floor",
        "partition_from_spread",
        "prime_power",
        "spread_from_dict",
        "theta",
        "verify_partial_spread",
    ]


def test_version_matches_distribution():
    # pyproject.toml declares the version every build stamps into the
    # package metadata; a source-tree run (PYTHONPATH=src) has no metadata.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert spreadlab.__version__ == declared


@pytest.mark.skipif(
    not any(importlib.metadata.distributions(name="spreadlab")),
    reason="no spreadlab distribution metadata is installed",
)
def test_installed_metadata_matches_version():
    assert importlib.metadata.version("spreadlab") == spreadlab.__version__


def test_flat_namespace_pipeline():
    params = spreadlab.SpreadParams(2, 7, 3)
    spread = spreadlab.build_lower_bound_spread(params)
    assert spreadlab.verify_partial_spread(spread).ok
    part = spreadlab.partition_from_spread(spread)
    prof = spreadlab.hyperplane_profile(part)
    assert sum(prof.s_b.values()) == spreadlab.theta(7, 2)
    assert spread.size == spreadlab.best_known(params).exact.value
