"""Exceptions with concrete witnesses.

Every domain error names the elements that caused it (the cycle, the
overlapping token, the comparable pair) so callers get an actionable
diagnostic instead of a bare failure.  `ParseError` is kept outside the
domain hierarchy: the CLI maps domain errors to exit code 1 and parse or
usage problems to exit code 2.
"""


class OrderError(Exception):
    """Base class for domain errors raised by order operations."""


class ParseError(Exception):
    """Malformed input text; carries the offending path and line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidToken(OrderError):
    def __init__(self, token: object, reason: str):
        self.token = token
        self.reason = reason
        super().__init__(f"invalid element token {token!r}: {reason}")


class DuplicateElement(OrderError):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"duplicate element {token!r}")


class UnknownElement(OrderError):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"unknown element {token!r}")


class AntisymmetryViolation(OrderError):
    """The relation contains a cycle, listed as x, ..., x."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("antisymmetry violation: cycle " + " < ".join(self.cycle))


class NotClosed(OrderError):
    """Witness triple (x, y, z): x < y and y < z hold but x < z is missing."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        x, y, z = self.triple
        super().__init__(
            f"relation is not transitively closed: {x} < {y} and {y} < {z} "
            f"hold but {x} < {z} is missing"
        )


class ClosureCreatesReflexivePair(OrderError):
    """Closing the relation would relate an element to itself: the input has a cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(
            "closure would create a reflexive pair: cycle " + " < ".join(self.cycle)
        )


class NotIncomparable(OrderError):
    """Endpoints of a forced pair are already comparable."""

    def __init__(self, first: str, second: str, held: tuple[str, str] | None = None):
        self.first = first
        self.second = second
        self.held = held
        if held is not None:
            x, y = held
            detail = f"{x} < {y} already holds"
        elif first == second:
            detail = "the endpoints are equal"
        else:
            detail = "they are already comparable"
        super().__init__(f"cannot force {first} before {second}: {detail}")


class NotDisjoint(OrderError):
    def __init__(self, token: str, where: str):
        self.token = token
        self.where = where
        super().__init__(f"not disjoint: {token!r} appears in both {where}")


class EmptySubset(OrderError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"subset {name} is empty")


class EmptyBlock(OrderError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"partition block {index} is empty")


class NotBijective(OrderError):
    def __init__(self, reason: str, token: str | None = None):
        self.reason = reason
        self.token = token
        super().__init__(f"mapping is not a bijection: {reason}")


class CapExceeded(OrderError):
    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"ground size {size} exceeds the counting cap {cap}")
