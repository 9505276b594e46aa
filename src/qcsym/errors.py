"""Exception types shared across the workbench."""


class TermLanguageError(Exception):
    """Base class for errors raised by the symbolic layer."""


class ParseError(TermLanguageError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    pass


class DivisionError(TermLanguageError):
    """Division by something outside the invertible fragment of the language."""


class PoleError(TermLanguageError):
    """A substitution or evaluation made a denominator vanish."""


class AmbiguousGradingError(TermLanguageError):
    """Two collect keys cannot be proven distinct under the active assumptions."""

    def __init__(self, key1, key2):
        super().__init__(
            f"cannot split: keys {key1} and {key2} may coincide under the "
            f"given assumptions"
        )
        self.keys = (key1, key2)


class ResonanceError(TermLanguageError):
    """A right-hand-side exponent hits the homogeneous exponent of the ODE."""


class OperatorFormError(TermLanguageError):
    """Operator not in the normalizable unit-time-component form."""


class VerificationError(TermLanguageError):
    """A derivation step produced a nonzero residual or a fixture mismatch."""

    def __init__(self, step: str, detail: str = ""):
        super().__init__(f"step '{step}' failed" + (f": {detail}" if detail else ""))
        self.step = step


class TableError(TermLanguageError):
    """Degenerate or non-reducible input to a coincidence table."""


class NumericError(Exception):
    """Base class for numeric-module failures."""


class UnboundFunctionError(NumericError):
    pass


class EvalPoleError(NumericError):
    pass


class InstabilityError(NumericError):
    pass


class PositivityError(NumericError):
    pass
