"""Exact-regenerating storage codes (MSR/MBR) with CRC integrity checks."""

from .errors import (
    ClusterExhausted,
    DecodeFailure,
    DuplicatePosition,
    InvalidParams,
    LengthMismatch,
    NoMajority,
    OverlappingSets,
    PayloadTooLarge,
    RegencodeError,
    SelfRepair,
    SingularMatrix,
    TooShort,
    ZeroInverse,
)
from .galois import GF, DEFAULT_PRIMITIVE_POLYS
from .integrity import CODED, REPLICATED, CrcParams
from .mbr import MbrParams
from .msr import MsrParams

__all__ = [
    "GF",
    "DEFAULT_PRIMITIVE_POLYS",
    "CrcParams",
    "REPLICATED",
    "CODED",
    "MsrParams",
    "MbrParams",
    "RegencodeError",
    "InvalidParams",
    "ZeroInverse",
    "LengthMismatch",
    "SingularMatrix",
    "DecodeFailure",
    "DuplicatePosition",
    "TooShort",
    "NoMajority",
    "SelfRepair",
    "ClusterExhausted",
    "PayloadTooLarge",
    "OverlappingSets",
]
