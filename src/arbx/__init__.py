"""arbx: no-arbitrage exchange-rate ensembles on market graphs.

Model a market as a connected undirected graph of goods, verify that a rate
ensemble admits no profitable round trip, complete a full matrix from a
minimal set of quotes, extract price potentials, and propagate basis-rate
perturbations. All types are immutable after construction and all operations
are pure functions, safe to share across threads.

The namespace is lazy (PEP 562): ``import arbx`` loads no submodule and so
not numpy. A public name, or a submodule such as ``arbx.graph``, is imported
on first access, which lets ``arbx.cli`` choose the BLAS thread default
before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# every submodule, with the public names it defines
_EXPORTS = {
    "basis": (
        "BasisAssignment", "BasisSpec", "EpsilonBasis", "PriceVector", "canonical_basis",
        "complete", "decompose", "dimension", "dimension_by_rank", "epsilon_matrices",
        "is_basis", "matrix_from_prices", "price_vector", "row_basis",
    ),
    "cli": (),
    "dynamics": (
        "PerturbationOperator", "PerturbationVector", "apply_exact", "build_operator",
        "propagate_log", "propagate_multiplicative_first_order",
    ),
    "errors": (
        "ArbxError", "BadParamsError", "DuplicateEdgeError", "GraphIndexError",
        "GraphMismatchError", "LengthMismatchError", "NotABasisError", "NotAnEdgeError",
        "NotArbitrageFreeError", "NotAWalkError", "NotClosedError", "NotCompleteError",
        "NotConnectedError", "OracleSizeError", "ParseError", "ReciprocalConflictError",
        "SpecMismatchError", "TreeMismatchError",
    ),
    "exchange": (
        "DEFAULT_TOL", "ArbitrageWitness", "CheckResult", "LogRateMatrix", "PairViolation",
        "RateMatrix", "check_antisymmetry", "check_no_arbitrage", "check_no_arbitrage_oracle",
        "cycle_gain", "cycle_log_gain", "exp_of", "log_of",
    ),
    "graph": (
        "ORACLE_MAX_VERTICES", "FundamentalCycle", "MarketGraph", "SpanningTree",
        "enumerate_simple_cycles", "fundamental_cycles", "generate_graph", "is_connected",
        "new_graph", "spanning_tree",
    ),
    "io": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _OWNER.keys() | _EXPORTS.keys())
