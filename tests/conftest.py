from pathlib import Path

import pytest

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
