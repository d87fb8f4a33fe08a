"""MiniSrv frontend: parses `.msv` sources and lowers them to code facts.

MiniSrv is the small service language used to author analysis corpora.
The grammar reference lives in ``docs/minisrv.md``; the AST node classes
are in ``privflow.minisrv.nodes``.
"""

from .parser import ParseError, parse_source
from .lower import LoweringError, lower

__all__ = ["ParseError", "parse_source", "LoweringError", "lower"]
