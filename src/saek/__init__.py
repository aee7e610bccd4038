"""saek: intent classification and structured argument extraction for
spoken-style Korean questions and commands, plus corpus tooling.

The public names below resolve on first use (PEP 562), so ``import saek``
loads nothing else, and the engine path never loads the corpus tooling.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Analyzer": "analyze",
    "Argument": "extract",
    "ArgumentCategory": "lexicon",
    "Classification": "classify",
    "Classifier": "classify",
    "CorpusEntry": "corpus",
    "CorpusStats": "corpus",
    "Engine": "engine",
    "Eojeol": "analyze",
    "EvalReport": "corpus",
    "Extractor": "extract",
    "IntentLabel": "classify",
    "Lexicon": "lexicon",
    "NormalizedUtterance": "analyze",
    "OutputRecord": "engine",
    "default_lexicon": "lexicon",
    "evaluate": "corpus",
    "fleiss_kappa": "corpus",
    "load": "corpus",
    "load_lexicon": "lexicon",
    "stats": "corpus",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + module, __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
