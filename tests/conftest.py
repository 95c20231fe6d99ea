import numpy as np
import pytest

from gossipopt.oracles import write_synthetic_libsvm


@pytest.fixture(scope="session")
def synthetic_libsvm_path(tmp_path_factory) -> str:
    """Session-wide synthetic sparse binary dataset (LIBSVM format, d=123)."""
    path = tmp_path_factory.mktemp("data") / "sparse123.libsvm"
    write_synthetic_libsvm(str(path), m=8000, d=123, seed=7)
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
