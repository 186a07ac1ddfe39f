"""The fuzz generators' output, pinned by digest.

`random_chain_map` draws one `rng.random()` per nullspace basis vector, so
these digests also pin the order of the basis `F2Matrix.nullspace` returns.
A digest changes only if a generator, or the linear algebra under it, draws
or builds something different.
"""

import hashlib
import random

import pytest

from lenslab.f2homalg.fuzz import random_cone_triple, random_octet

DRAWS = 40

DIGESTS = {
    (random_octet, 0): "0b88f451e7b9639d74d77b8247a77086c379ce3c5cca27b1fe087b46d2fa4a7b",
    (random_octet, 1): "85f415022ef3c49864b070812f548dd8f62ce5d233c241fc0823bebb7a157bae",
    (random_octet, 20240917): "48a380499d0b1b541e7970e8dc4e21ed428355f87ea2e8e1109beb43f1250e16",
    (random_octet, "fuzz:1"): "a567aefc13f1be95cee61ae3250601b4ec269636d580c001f22be8244d3fe26a",
    (random_cone_triple, 0): "83e0161d629f99ca922baa6a283df51ff1e77eb74ee77377823cfb8715d8ae50",
    (random_cone_triple, 1): "79af1b50adfa62c8061b09ffc3c22a4fcc861fc65f00753c685796520da2995c",
    (random_cone_triple, 20240917): "0e0bb7094c72c5ec5d9dc6aed3600843eef3837e5e0be1965ccabd52e7a7da96",
    (random_cone_triple, "fuzz:1"): "503eb554a759abfbf56d30f821f5c07aa5d203e5be617f5d39bf142b5951a7fd",
}


def digest(generator, seed) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(DRAWS):
        h.update(repr(generator(rng)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "generator, seed", DIGESTS, ids=[f"{g.__name__}-{s}" for g, s in DIGESTS]
)
def test_generator_digest(generator, seed):
    assert digest(generator, seed) == DIGESTS[generator, seed]


# The small dims of the generators' own tests, where a seed octet or a
# summand of the cone is often the whole instance.
SMALL_DIGESTS = {
    (random_octet, 0, 1):
        "9eaec3489fd0a7dc2c8016fceba96e09a2bd138019d04791cff69092bba74eb4",
    (random_octet, 0, 3):
        "0e4fa788f040f7a76db85fdf24a4b816e21605ec8654ab170fa290fa7a9c4369",
    (random_octet, "small:1", 1):
        "04301e5ee3da29d49e757e094e1c8643764d83ad8254997ce287761c9da6fe5b",
    (random_octet, "small:1", 3):
        "fd65fb536db7724fb64f43a6438199c6ca5ff5e49ec7a20ae2eff05406b38822",
    (random_cone_triple, 0, 1):
        "87865e58e024941776cf83c72ba7fefd92ddf4e75d7c1d8e48fc9dc9c2076df6",
    (random_cone_triple, 0, 3):
        "309309cc0dfb70402efc879f45a3551f5394c58802bfa8815970ea7bb4231beb",
    (random_cone_triple, "small:1", 1):
        "d71c43c06366d750e687a2fd89f89e249f02b35d87d3bb50ff47cc39975d874c",
    (random_cone_triple, "small:1", 3):
        "d10bb9d74e060c01acb1192ed9cfaed5c0e98b34477c28503f93b5de78db4146",
}


@pytest.mark.parametrize(
    "generator, seed, max_dim", SMALL_DIGESTS,
    ids=[f"{g.__name__}-{s}-max_dim{m}" for g, s, m in SMALL_DIGESTS],
)
def test_generator_digest_at_small_dims(generator, seed, max_dim):
    digest_of = digest(lambda rng: generator(rng, max_dim), seed)
    assert digest_of == SMALL_DIGESTS[generator, seed, max_dim]
