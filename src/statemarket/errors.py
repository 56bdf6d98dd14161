"""Exception hierarchy shared across the package, and the checks of input
data that more than one module applies.

Three bases map onto the CLI exit codes: validation problems (bad input,
unmet preconditions), solver failures, and verification failures.
"""

import contextlib
import json
from pathlib import Path

import numpy as np


class StateMarketError(Exception):
    pass


class ValidationError(StateMarketError):
    """Input or precondition violation; CLI exit code 1."""


class SolverFailure(StateMarketError):
    """A solver could not produce a usable result; CLI exit code 2."""


class VerificationFailure(StateMarketError):
    """A produced result failed its checks beyond tolerance; CLI exit code 3."""


@contextlib.contextmanager
def reading(path, kind: str):
    """Read the UTF-8 JSON input file ``path`` and yield its payload.

    A file that is not UTF-8 or not JSON, and a missing key or index, a value
    of the wrong type or an integer too large for a float met while the
    ``with`` body converts the payload, become a ValidationError naming the
    file. A missing or unreadable file raises OSError; other errors pass."""
    try:
        yield json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, IndexError, TypeError,
            AttributeError, OverflowError) as exc:
        raise ValidationError(f"{path} is not a valid {kind} file ({exc!r})") from None


def number(value) -> float:
    """A number read from a JSON file, as a float. Any other value, a string
    or a boolean included, is a TypeError, which ``reading`` reports as a
    malformed file."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def text(value) -> str:
    """A name or label read from a JSON file. Any other value, a number or a
    list included, is a TypeError, which ``reading`` reports as a malformed
    file."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def numbers(value):
    """``number`` applied to each entry of a list, nested to any depth."""
    return [numbers(v) for v in value] if isinstance(value, list) else number(value)


def check_lp(c, lo, hi, a, senses, b, constant: float = 0.0) -> None:
    """Raise ValueError unless these arrays are an LP's data: the objective
    ``c`` and ``constant`` and the rows ``a``, ``b`` finite, bounds
    ``lo <= hi`` and not both the same infinity, senses "<=", ">=" or "=",
    and shapes (n,), (n,), (n,), (m, n), (m,), (m,). ``LinearProgram``
    checks a hand-made LP with it and ``WelfareProgram`` an assembled
    program, the two places where LP data enters."""
    if not (c.ndim == 1 and c.shape == lo.shape == hi.shape):
        raise ValueError("objective and bounds must have matching shapes")
    if not (b.ndim == 1 and senses.shape == b.shape and a.shape == (b.size, c.size)):
        raise ValueError("matrix, senses and rhs must have shapes (m, n), (m,) and (m,)")
    if not (np.all(np.isfinite(c)) and np.isfinite(constant)):
        raise ValueError("objective coefficients must be finite")
    crossed = np.flatnonzero(~(lo <= hi))  # also true for a NaN bound
    if crossed.size:
        raise ValueError(f"column {crossed[0]}: lower bound exceeds its upper bound")
    pinned = np.flatnonzero(np.isinf(lo) & (lo == hi))
    if pinned.size:
        raise ValueError(f"column {pinned[0]}: both bounds are {lo[pinned[0]]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("row coefficients must be finite")
    unknown = senses[(senses != "<=") & (senses != ">=") & (senses != "=")]
    if unknown.size:
        raise ValueError(f"unknown row sense {str(unknown[0])!r}")


# --- scenario ingestion ---

class MissingColumn(ValidationError):
    pass


class NonPositiveWeight(ValidationError):
    pass


class WeightSumMismatch(ValidationError):
    pass


class NonFiniteCoordinate(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NetworkError(ValidationError):
    pass


class MalformedResponse(ValidationError):
    pass


class MemberCountMismatch(ValidationError):
    pass


class EmptySubset(ValidationError):
    pass


# --- quantizer ---

class EmptyState(ValidationError):
    pass


class InstanceTooLarge(ValidationError):
    pass


class SExceedsSupport(ValidationError):
    pass


class DimensionNotOne(ValidationError):
    pass


class DimensionNotTwo(ValidationError):
    pass


class NonPositiveM(ValidationError):
    pass


# --- market assembly ---

class InconsistentDimensions(ValidationError):
    pass


class EmptyMarket(ValidationError):
    pass


# --- clearing ---

class TooManyBinaries(ValidationError):
    pass


class Infeasible(SolverFailure):
    pass


class NumericalFailure(SolverFailure):
    pass


class Unbounded(SolverFailure):
    pass
