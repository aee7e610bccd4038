from pathlib import Path

import pytest

import fuzz_grammar
from saek import Analyzer, Classifier, Engine, Extractor, default_lexicon

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def analyzer(lexicon):
    return Analyzer(lexicon)


@pytest.fixture(scope="session")
def classifier(lexicon):
    return Classifier(lexicon)


@pytest.fixture(scope="session")
def extractor(lexicon):
    return Extractor(lexicon)


@pytest.fixture(scope="session")
def engine(lexicon):
    return Engine(lexicon)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def reference(engine):
    """Each distinct reference input with its record, analyzed once for the
    relation and property tests."""
    return {text: engine.process(text) for text in fuzz_grammar.generate(seed=1, per_family=1000)}
