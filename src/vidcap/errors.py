"""Exception hierarchy shared by the whole pipeline.

Exit-code mapping for the CLI: ParameterError -> 1 (usage); DataError and its
subclasses, DimensionError and OSError -> 2 (data); NumericError -> 3.
"""

from contextlib import contextmanager


class VidcapError(Exception):
    pass


class ParameterError(VidcapError):
    """Invalid hyperparameter or configuration value."""


class DimensionError(VidcapError):
    """Shape mismatch between tensors; message names both shapes."""


class DataError(VidcapError):
    """Malformed, inconsistent or missing input data."""


class FormatError(DataError):
    """Binary or text file does not follow its declared format."""


class NumericError(VidcapError):
    """Non-finite value appeared where finite math was required."""


@contextmanager
def naming(prefix: str, kinds=VidcapError, as_=None):
    """Put `prefix` (the stage, file, model or video the block works on) in
    front of the message of an error of `kinds` that escapes the block. The
    error is raised again as `as_`, or as its own type when `as_` is None,
    from None: the message already says where it came from."""
    try:
        yield
    except kinds as e:
        raise (as_ or type(e))(f"{prefix}{e}") from None
