"""Palindromically rich words: analysis, rewriting, and search.

A word of length n is rich when it has n + 1 distinct palindromic factors,
the empty word included — the maximum possible. This package provides the
combinatorics behind that notion (palindrome indexing, standard extensions,
flexed palindromes), occurrence-reducing rewrites with full traces, an
elimination pipeline that shrinks a rich word while keeping chosen markers,
exact length bounds for common-superword construction, exhaustive
enumeration, and a budgeted search for a rich word containing two given
rich words.
"""

from . import bounds, eliminate, errors, extensions, palindromes, reduction, search, words

__version__ = "0.1.0"

# Each module's ``__all__`` is its public list. Build ours before the star
# imports: ``from .eliminate import *`` rebinds ``eliminate`` here from the
# submodule to the function, which is what ``richwords.eliminate`` names.
__all__ = ["__version__"]
__all__ += words.__all__
__all__ += palindromes.__all__
__all__ += extensions.__all__
__all__ += reduction.__all__
__all__ += eliminate.__all__
__all__ += bounds.__all__
__all__ += search.__all__
__all__ += errors.__all__

from .words import *
from .palindromes import *
from .extensions import *
from .reduction import *
from .eliminate import *
from .bounds import *
from .search import *
from .errors import *
