"""Golden fixtures: sha256 of the serialized artifacts of reference runs.

The hashes pin the exact bytes ``save_json`` writes for the report, the
binary pair and the symplectic code of each run, so any change to the
canonical forms, the search orders or the serialization shows up here.
They were generated before the row-reduction kernels moved to numpy and
must not change when the linear algebra is reimplemented.
"""

import hashlib
import json

import pytest

from agstab import artifacts, curves, expansion, fields
from agstab.pipeline import PipelineConfig, pipeline_build

RUNS = {
    "hermitian-m1": (
        dict(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1),
        {
            "report": "1524bb81c0a3bf36554398466b17d2e4fadb245e5646f3fae9fe835616a65bc5",
            "pair": "d51d7e874a935a6aac04cfc5ac62d25040e585c4409b75985dec89fdb717fce0",
            "fcode": "f4197fed4a94231efe679d38fd13ce8aac3422585786beca74e2e66baf4e6c39",
        },
    ),
    "hermitian-m2": (
        dict(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30),
        {
            "report": "28b0a6b387bcd3b24bed334ce1a2caac4742d29c819d6283a86904a50b4ba006",
            "pair": "688d866b438c071dc66059113f5aacc0675c0fa5f719941216bf19d417b26ce9",
            "fcode": "978f5582340890a2540aa9a3eff08662eae542210bede7c2e030b8dca6e26f5b",
        },
    ),
    "line-q16": (
        dict(m=2, curve_kind="line", q=16, a=5, a_prime=3),
        {
            "report": "49a38d7c00b856f3b6632aa1780ff52dbb307d8d938c08684a42c11a08d6f1c6",
            "pair": "196dee52a5d0db12f49339c4db97f8c3c3a63144701872839c7e10c74bfb76d4",
            "fcode": "d373e094155c43f27fef2d97cedf370805c5460671ea8c4bd6320d96685b49a9",
        },
    ),
    # [[3072, 282, >=215]]; pinned before the blocked elimination kernels.
    # The largest run: compose assembles F's 6144-bit RREF from the chain
    # and eliminates only the extension rows; F^omega is never built.
    "hermitian-m3": (
        dict(m=3, curve_kind="hermitian", q=8, a=269, a_prime=250),
        {
            "report": "2572b968213baff17f06e350c01e95bdf128042a60f5e201730f0c7cd2783388",
            "pair": "d27889be2a3a8448ebe15f2aaa5434fc36bcf1add599e05078e841949e3ea2e7",
            "fcode": "5fb15edb425ade67d725900d7e40c16e2744f7f5f54d14e48c0a57ee13516dd5",
        },
    ),
}

# Generators of the binary D' of the q=8 Hermitian chain (a=269,
# a'=250).  Its twist vector is all-ones, so D' = expand(E)^perp with E
# the degree-250 evaluation code.
HERM_M3_D_PRIME_SHA256 = "7834d84b2fd0749d9ce724704514daa42c1b8df70247ad9df8a4e307561830fa"


def _artifact_sha256(obj, tmp_path) -> str:
    path = artifacts.save_json(obj, tmp_path / "artifact.json")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pipeline_artifacts_are_bit_identical(name, tmp_path):
    params, want = RUNS[name]
    run = pipeline_build(PipelineConfig(**params))
    got = {
        "report": _artifact_sha256(artifacts.report_to_obj(run.report), tmp_path),
        "pair": _artifact_sha256(artifacts.pair_to_obj(run.pair), tmp_path),
        "fcode": _artifact_sha256(artifacts.fcode_to_obj(run.fcode), tmp_path),
    }
    assert got == want
    # The serialized forms also round-trip through the loaders.
    assert artifacts.pair_from_obj(json.loads(json.dumps(artifacts.pair_to_obj(run.pair)))) == run.pair


def test_hermitian_m3_d_prime_generators():
    curve = curves.enumerate_curve("hermitian", 8)
    field = curve.field
    emap = expansion.ExpansionMap(field=field, basis=fields.self_dual_basis(field))
    ev = curves.evaluation_code(curve, 250)
    assert (ev.n, ev.k_dim) == (512, 223)
    d_ev = expansion.expand_code(ev, emap)
    d_prime = d_ev.dual()
    assert (d_prime.n, d_prime.k_dim) == (3072, 1734)
    assert d_prime.contains(d_ev)
    width = (d_prime.n + 7) // 8
    blob = b"".join(r.to_bytes(width, "little") for r in d_prime.bit_rows)
    assert hashlib.sha256(blob).hexdigest() == HERM_M3_D_PRIME_SHA256
