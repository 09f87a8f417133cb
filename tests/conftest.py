import pytest


@pytest.fixture(scope="session")
def suite_results():
    """One full run of the seeded lemma/obstruction suites, shared by tests."""
    from twisthom.suites import run_suites
    return run_suites(seed=0)


def _reference_word_image(r, w):
    """alpha(w) from ``r.generator_images`` alone: ``Matrix`` products, with
    each inverse letter taken as the entrywise conjugate transpose.  Shares no
    code with the library's compiled word images."""
    from twisthom.matrices import Matrix
    from twisthom.numbers import Cyclo

    gens = r.generator_images
    out = Matrix.identity(r.dim, Cyclo.one(), Cyclo.zero())
    for g, e in w:
        m = gens[g]
        if e == -1:
            m = Matrix(m.cols, m.rows, [[m[j, i].conjugate() for j in range(m.rows)]
                                        for i in range(m.cols)])
        out = out @ m
    return out


@pytest.fixture(scope="session")
def word_reference():
    """The independent word-image reference ``(rep, word) -> Matrix``."""
    return _reference_word_image
