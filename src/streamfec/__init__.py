"""Rate-optimal low-latency streaming erasure codes for sliding-window channels."""

from .gf import GF, Field, FieldElement, FieldError, FieldMismatchError, frobenius
from .matrix import Mat, LinalgError, NoSolution, Underdetermined, cauchy_parity
from .codes import (MdsCode, MrdCode, CodeError, build_mds, verify_mds,
                    build_gabidulin, certify_gabidulin)
from .construction import (StreamParams, DerivedParams, GeneratorSet, ParamError,
                           capacity, validate_and_derive, build_code, constituents, encode_block)
from .channel import (ERASED, ErasurePattern, ChannelError, is_admissible,
                      enumerate_block_patterns, sample_stream_pattern, apply)
from .decoder import (DecodeReport, SymbolReport, DecoderError, StructuralFailureError,
                      oracle_decode, classify_pattern, decode_structured, deadline_table)
from .stream import (StreamEncoder, StreamReport, StreamError, encode_stream,
                     plan_stream, stream_decode, delay_check, simulate)

__version__ = "0.1.0"
