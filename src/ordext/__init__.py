"""Finite partial orders: validation, linear extension, structured constructions.

The package stores relations in strict form over an ordered ground
sequence, extends any finite partial order to a total one (optionally
through a forced incomparable pair), and builds bipartition, block, and
dense-interleaving orders.  Every operation is deterministic given its
inputs and a tie-break policy.
"""

from importlib import import_module

# The public names of each module.  `import ordext` loads none of the modules:
# `__getattr__` imports a name's module the first time the name is read.
_EXPORTS = {
    "constructions": (
        "Bijection", "Partition", "bipartition_order", "dense_interleave", "is_dense",
        "partition_block_order",
    ),
    "core": (
        "LinearOrder", "Poset", "check_ground", "check_token", "incomparable_pairs", "is_comparable",
        "order_from_enumeration", "restrict", "transitive_closure", "validate",
    ),
    "errors": (
        "AntisymmetryViolation", "CapExceeded", "ClosureCreatesReflexivePair", "DuplicateElement",
        "EmptyBlock", "EmptySubset", "InvalidToken", "NotBijective", "NotClosed", "NotDisjoint",
        "NotIncomparable", "OrderError", "ParseError", "UnknownElement",
    ),
    "extension": (
        "DEFAULT_COUNT_CAP", "DEFAULT_ENUM_LIMIT", "Enumeration", "ExtensionCertificate", "ForcedPair",
        "count_linear_extensions", "enumerate_linear_extensions", "extend_with_pair",
        "linear_extension", "szpilrajn",
    ),
    "formats": ("format_relation", "parse_bijection", "parse_partition", "parse_relation", "parse_sequence"),
    "policy": ("TieBreakPolicy", "TieBreaker"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines `name` and keep the value here (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
