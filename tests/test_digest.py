"""The digest a CLI report gives of each input: the text ``sha256:`` and the
hex SHA-256 of the bytes, from CPython's own SHA-256 below
``io._OWN_SHA256_BELOW`` bytes while no ``hashlib`` is loaded, and from
OpenSSL's ``hashlib`` otherwise."""

import hashlib
import random
import sys

import pytest

from arbx.io import _OWN_SHA256_BELOW as T
from arbx.io import _digest, file_digest

SHA256 = hashlib.sha256
FORMER_T = 920_000  # the threshold before it was measured again up to 2 MB; sizes about it now take the own SHA-256


def expected(data: bytes) -> str:
    return "sha256:" + SHA256(data).hexdigest()


@pytest.mark.parametrize("size", [0, FORMER_T - 1, FORMER_T, FORMER_T + 1, T - 1, T, T + 1])
def test_the_sha256_and_hashlib_loaded_only_from_the_threshold(size, monkeypatch):
    monkeypatch.delitem(sys.modules, "hashlib")
    data = random.Random(size).randbytes(size)
    assert _digest(data) == expected(data)
    assert ("hashlib" in sys.modules) == (size >= T)


@pytest.mark.parametrize("size", [0, FORMER_T - 1, T - 1])
def test_without_the_own_modules_hashlib_digests(size, monkeypatch):
    monkeypatch.delitem(sys.modules, "hashlib")
    for name in ("_sha256", "_sha2"):
        monkeypatch.setitem(sys.modules, name, None)  # a later import of it raises ImportError
    data = random.Random(size).randbytes(size)
    assert _digest(data) == expected(data)
    assert "hashlib" in sys.modules


def test_a_loaded_hashlib_digests(monkeypatch):
    calls = []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(len(data)) or SHA256(data))
    assert _digest(b"abc") == expected(b"abc")
    assert calls == [3]


def test_file_digest_loads_hashlib_whatever_the_size(monkeypatch, tmp_path):
    path = tmp_path / "small.csv"
    path.write_bytes(b"src,dst,rate\n1,2,1.5\n")
    monkeypatch.delitem(sys.modules, "hashlib")
    assert file_digest(path) == expected(path.read_bytes())
    assert "hashlib" in sys.modules
