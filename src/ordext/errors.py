"""Exceptions with concrete witnesses.

Every domain error names the elements that caused it (the cycle, the
overlapping token, the comparable pair) so callers get an actionable
diagnostic instead of a bare failure.  The base class `OrderError` keeps
the witness: each subclass builds its message and hands the witness to
it as keywords, which become the error's attributes.  `ParseError` is
kept outside the domain hierarchy: the CLI maps domain errors to exit
code 1 and parse or usage problems to exit code 2.  Numbers of any length
are read by `_integer` and written by `_decimal`, neither touching the
interpreter's cap on the digits of an int (`sys.set_int_max_str_digits`).
"""

import copyreg

_SHORT = 10**640  # below it, `str` is within the least digit cap the interpreter accepts


def _integer(text: str) -> int:
    """`int(text)` at any length: a text of 640 digits or more that `int` refuses is cut before
    its middle digit, a `_` there dropped.  Both halves are numbers exactly when the whole is one
    with no cap, so they are read, in halves again if need be, and combined."""
    try:
        return int(text)
    except ValueError:
        digits = [i for i, c in enumerate(text) if c.isdecimal()]
        cut = digits[len(digits) // 2] if len(digits) >= 640 else 0
        high, low = text[:cut].removesuffix("_"), text[cut:]
        if not high[-1:].isdecimal():  # under 640 digits, or a cut not between two digits
            raise
        n = abs(_integer(high)) * 10 ** (len(digits) - len(digits) // 2) + _integer(low)
        return -n if "-" in high else n


def _decimal(n: int) -> str:
    """`str(n)` at any length, leaving the interpreter's cap on the digits of an int written
    (`sys.set_int_max_str_digits`) as it is: a long int is written in two halves."""
    if -_SHORT < n < _SHORT:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half its digits, since log10(2) > 0.3
    high, low = divmod(abs(n), 10**half)
    return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


class OrderError(Exception):
    """Base class for domain errors; each `witness` keyword becomes an attribute."""

    def __init__(self, *args: object, **witness: object):
        super().__init__(*args)
        vars(self).update(witness)

    def __reduce__(self):
        """For `pickle` and `copy`: rebuilt from `args` and the witness, not by the subclass's constructor."""
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


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
        super().__init__(f"invalid element token {token!r}: {reason}", token=token, reason=reason)


class DuplicateElement(OrderError):
    def __init__(self, token: str):
        super().__init__(f"duplicate element {token!r}", token=token)


class UnknownElement(OrderError):
    def __init__(self, token: str):
        super().__init__(f"unknown element {token!r}", token=token)


class AntisymmetryViolation(OrderError):
    """The relation contains a cycle, listed as x, ..., x."""

    def __init__(self, cycle):
        cycle = tuple(cycle)
        super().__init__("antisymmetry violation: cycle " + " < ".join(cycle), cycle=cycle)


class NotClosed(OrderError):
    """Witness triple (x, y, z): x < y and y < z hold but x < z is missing."""

    def __init__(self, triple):
        x, y, z = triple
        super().__init__(
            f"relation is not transitively closed: {x} < {y} and {y} < {z} "
            f"hold but {x} < {z} is missing",
            triple=(x, y, z),
        )


class ClosureCreatesReflexivePair(OrderError):
    """Closing the relation would relate an element to itself: the input has a cycle."""

    def __init__(self, cycle):
        cycle = tuple(cycle)
        super().__init__("closure would create a reflexive pair: cycle " + " < ".join(cycle), cycle=cycle)


class NotIncomparable(OrderError):
    """Endpoints of a forced pair are already comparable."""

    def __init__(self, first: str, second: str, held: tuple[str, str] | None = None):
        if held is not None:
            x, y = held
            detail = f"{x} < {y} already holds"
        elif first == second:
            detail = "the endpoints are equal"
        else:
            detail = "they are already comparable"
        message = f"cannot force {first} before {second}: {detail}"
        super().__init__(message, first=first, second=second, held=held)


class NotDisjoint(OrderError):
    def __init__(self, token: str, where: str):
        super().__init__(f"not disjoint: {token!r} appears in both {where}", token=token, where=where)


class EmptySubset(OrderError):
    def __init__(self, name: str):
        super().__init__(f"subset {name} is empty", name=name)


class EmptyBlock(OrderError):
    def __init__(self, index: int):
        super().__init__(f"partition block {index} is empty", index=index)


class NotBijective(OrderError):
    def __init__(self, reason: str, token: str | None = None):
        super().__init__(f"mapping is not a bijection: {reason}", reason=reason, token=token)


class CapExceeded(OrderError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"ground size {size} exceeds the counting cap {_decimal(cap)}", size=size, cap=cap)
