"""framelex: a lazy reader and browser for FrameNet-1.7-format corpora.

The entry point is :func:`open_lexicon`, which returns a
:class:`FrameLexicon` over a corpus directory.  Frame, lexical unit,
relation, and annotation data load from disk on first touch and stay
cached; ``lexicon.store.fileAccessLog`` records every file read.
"""

from .errors import (
    CorpusError,
    FramelexError,
    IntegrityError,
    LookupFailure,
    ParseError,
    PatternError,
    UsageError,
)
from .lexicon import FrameLexicon, open_lexicon
from .records import Record, attribute_names, record_type
from .render import (
    DisplayOptions,
    render_annotation_set,
    render_document,
    render_frame,
    render_frame_element,
    render_fulltext_sentence,
    render_lexicographic_sentence,
    render_lu,
    render_semtype,
)
from .store import Store, open_store

__version__ = "0.1.0"

__all__ = [
    "CorpusError",
    "DisplayOptions",
    "FrameLexicon",
    "FramelexError",
    "IntegrityError",
    "LookupFailure",
    "ParseError",
    "PatternError",
    "Record",
    "Store",
    "UsageError",
    "attribute_names",
    "open_lexicon",
    "open_store",
    "record_type",
    "render_annotation_set",
    "render_document",
    "render_frame",
    "render_frame_element",
    "render_fulltext_sentence",
    "render_lexicographic_sentence",
    "render_lu",
    "render_semtype",
    "__version__",
]
