import pytest
from hypothesis import settings

from quasifold import (Atlas, GALLERY_NAMES, NumberFieldDomain,
                       RationalDomain, RationalFunctionDomain,
                       document_to_triple, load_gallery)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("quasifold", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("quasifold")


@pytest.fixture(scope="session")
def rational():
    return RationalDomain()


@pytest.fixture(scope="session")
def golden():
    # Q(phi) with phi^2 = phi + 1
    return NumberFieldDomain(["-1", "-1", "1"], "phi", "1.618033988749895")


@pytest.fixture(scope="session")
def quartic():
    # Q(alpha) with alpha^4 = 5 alpha^2 - 5; alpha = 2 sin(72 deg)
    return NumberFieldDomain(["5", "0", "-5", "0", "1"], "alpha",
                             "1.902113032590307")


@pytest.fixture(scope="session")
def parameter():
    return RationalFunctionDomain("a", default_sample="1.41421356237309")


@pytest.fixture(scope="session")
def gallery():
    """name -> (document, triple, normal fan result) for all five entries."""
    out = {}
    for name in GALLERY_NAMES:
        doc = load_gallery(name)
        triple, fan_result = document_to_triple(doc)
        out[name] = (doc, triple, fan_result)
    return out


@pytest.fixture(scope="session")
def gallery_atlases(gallery):
    return {name: Atlas.compile(triple)
            for name, (_, triple, _) in gallery.items()}


@pytest.fixture
def d1_document():
    """Generators [1, 1/97], rays 1 and -50/97, witnesses (1, 0) and
    (0, -50): a valid triple whose group witnesses run past +-10."""
    return {
        "domain": {"kind": "rational"},
        "quasilattice": {"generators": [["1", "1/97"]]},
        "fan": {"rays": [["1"], ["-50/97"]], "max_cones": [[1], [2]]},
        "witnesses": [[1, 0], [0, -50]],
    }
