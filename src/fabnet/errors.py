"""Exception types shared across the package, and a UTF-8 decode raising them."""


class FabnetError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(FabnetError):
    """Operands have incompatible or malformed shapes."""


class GraphError(FabnetError):
    """A tensor or node does not belong to the tape being used."""


class ConfigError(FabnetError):
    """A configuration value is invalid or inconsistent."""


class FormatError(FabnetError):
    """A checkpoint file is corrupt, truncated, or of the wrong version."""


class ManifestError(FabnetError):
    """A dataset manifest is missing, malformed, or inconsistent."""


class ImageFormatError(FabnetError):
    """An image file is not a decodable binary PPM/PGM."""


class SplitError(FabnetError):
    """A dataset cannot be split as requested."""


class DivergenceError(FabnetError):
    """Training produced a non-finite loss, or an optimizer step left a
    non-finite parameter value.

    The message names the epoch and batch, and the parameter if one is
    at fault.
    """


def decode_utf8(raw: bytes, what: str, error: type) -> str:
    """``raw`` as UTF-8 text; raises ``error`` naming ``what`` if it is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid UTF-8: {exc}") from exc
