"""Golden digests of the headline claim results.

Each of the 24 results of the headline ``PAIRS`` x {precise, pliant} at
seed 7 is hashed field by field (every dataclass field, every array byte,
every float bit) and compared with its digest committed below, so a
mismatch names the result that moved.  Any refactor or optimisation of
the simulator must leave them unchanged; a change that is *meant* to move
results has to update the table and say why.

The float bits come from numpy's ``Generator`` streams, which numpy does
not promise to keep across releases (NEP 19), so the table holds for the
numpy version recorded next to it; CI installs that version.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.cluster import compare_policies
from repro.core import PliantPolicy, PrecisePolicy
from repro.core.runtime import ColocationConfig

from tests.integration.test_headline_results import PAIRS

GOLDEN_SEED = 7
#: service/app/policy -> sha256 of that result, computed with numpy 2.4.6
#: from the engine before its epoch-loop memoisation landed.
GOLDEN_DIGESTS: dict[str, str] = {
    "nginx/canneal/precise":
        "2c3d90ca9f845c67cd4e5e1d72c4b68201bbddd430c649d247ac47acdc46bff4",
    "nginx/canneal/pliant":
        "02b83f9ed75a322b05e8e3fd9d95c6afaae25fb43eb6886ace34ccef90b04b6e",
    "nginx/bayesian/precise":
        "e9c669ca990bba34f79b74923c3cbd257011437c0bf81ce076329d8e61042ca5",
    "nginx/bayesian/pliant":
        "a1bef7da921dbfcc05d6ad54895b30dc3c9a819b46a26d3645269a0c8a4ca80c",
    "nginx/kmeans/precise":
        "d5a1816433ae047aaf8d73f8558c485a3c4cc13964885570a9bb58f131968a29",
    "nginx/kmeans/pliant":
        "259b0146d5ce2f740b412ecda20bbddcc39d15c4bf9e74aaf0d608d5892ba842",
    "nginx/water_spatial/precise":
        "ac2097ebb5ed5045c145ace1294942499e44083c1b225e5c9c61fdb25330206d",
    "nginx/water_spatial/pliant":
        "39f73476ff17053de2f2a2a6f3b1189797cbb1f5bf49b958c61b72b873651b06",
    "memcached/canneal/precise":
        "aad04a4e1603e93fae62386cab3df88dc9fbdb5daed82ef8e0b72ec651b6d8fd",
    "memcached/canneal/pliant":
        "553f06bd28580d5bbca0cedf5064ff920e0b61591a4c84795adc1cea8e4e46a9",
    "memcached/snp/precise":
        "21d407ebf33aba3203a616fa3a4878e7d1cfc7aa40666861b0198d908bbb30e8",
    "memcached/snp/pliant":
        "c12b62910221d726ecdb69fff5b1a2c18c82910b813e1f78d6c08cf3cf70ff0e",
    "memcached/plsa/precise":
        "c689063df8c87d17f5f1861b3575560b34dc154a635e734ed7f0d2a3d9f45eda",
    "memcached/plsa/pliant":
        "703cf5c90d2d08e8a5e0dcc540a7e2d4cf9d27da72063b8ef6e420c4b21c6a6e",
    "memcached/raytrace/precise":
        "83ebfe179fb4b9075f8f8e967bf0baa56bfaa7ff95c4a37ee8c362fcdf2da920",
    "memcached/raytrace/pliant":
        "cb27d8e003059dc972b56ef4e28e1425ba44c36bded99006e6840d962ecb8529",
    "mongodb/canneal/precise":
        "47b1714e64497b66abb824c1da0396542fc22e7f6968815396dd9a002b926e2b",
    "mongodb/canneal/pliant":
        "5abe2b8a755b6a50cae50a09dd19acc3142734eebe329b0a1a5cfed50d24bfae",
    "mongodb/snp/precise":
        "2569368626af263f59b6618044182ec1ecdfd3d189499ecdd0549cf5bc11cd00",
    "mongodb/snp/pliant":
        "048ced0474d7184379a225160287edca2cd6244dab0910dc15d9be95389e609d",
    "mongodb/streamcluster/precise":
        "847b9c12becff2a99714caf1bffc0dc5d970b2ddd4577801f6fb5989831a74f5",
    "mongodb/streamcluster/pliant":
        "93044c6f483328fb2c64ffe0519262fc97ce73be9bbae5f5a8cff0d22cbc29bb",
    "mongodb/hmmer/precise":
        "fe3af7a0833b920021f34ffe28968d2ce3c2735c82ca970236251b95ad135398",
    "mongodb/hmmer/pliant":
        "4bb4a152eac3788167a820fc68e076bba74e76404712c8cd0fa5cc7c4925a7f6",
}


def _feed(h, value) -> None:
    """Hash ``value`` structurally, with type tags and separators."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode() + b"=")
            _feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(f"ndarray{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(f"dict{len(value)}".encode())
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(b"float" + value.hex().encode())
    elif isinstance(value, np.generic):
        # numpy 1.x and 2.x repr scalars differently; hash the Python value.
        _feed(h, value.item())
        return
    else:
        h.update(f"{type(value).__name__}{value!r}".encode())
    h.update(b"\0")


def result_digest(result) -> str:
    """Digest of every field of one :class:`ColocationResult`."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def headline_digests(seed: int = GOLDEN_SEED) -> dict[str, str]:
    """``service/app/policy`` -> digest of every headline result."""
    digests = {}
    for service, app in PAIRS:
        results = compare_policies(
            service,
            [app],
            [PrecisePolicy(), PliantPolicy(seed=seed)],
            config=ColocationConfig(seed=seed),
        )
        for policy in ("precise", "pliant"):
            digests[f"{service}/{app}/{policy}"] = result_digest(results[policy])
    return digests


def test_digest_sees_one_ulp():
    result = compare_policies(
        "memcached", ["kmeans"], [PrecisePolicy()], config=ColocationConfig(seed=1)
    )["precise"]
    before = result_digest(result)
    result.epoch_p99[-1] = np.nextafter(result.epoch_p99[-1], np.inf)
    assert result_digest(result) != before


def test_headline_results_match_golden_digest():
    digests = headline_digests()
    moved = sorted(
        key for key in GOLDEN_DIGESTS | digests
        if digests.get(key) != GOLDEN_DIGESTS.get(key)
    )
    assert moved == [], f"{len(moved)} of {len(GOLDEN_DIGESTS)} results moved"
