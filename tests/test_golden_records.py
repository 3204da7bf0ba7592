"""Golden records: engine output pinned byte for byte.

For every family, a fixed list of fuzzed (graph, family, color stream)
triples is run and the record text plus the final coloring of each run are
hashed.  The digests pin the records of the engine from before its object
choice was made incremental; a refactor that keeps records byte-identical
leaves them unchanged.  Decode is checked to invert every run on the way,
and a run breaking its family's contract fails the test.
Graphs stay small so the suite pays little for the n x steps cost of a run.
"""

import hashlib
import random

import pytest

from recolor.engine import decode, run

from _util import fuzzed_instance

TRIPLES = 40

GOLDEN = {
    "acyclic-gamma":
        "4e74d1539b98d057be6278ce16dbed1416030f83b3c1187636365ca4a42841d6",
    "acyclic-v1":
        "dbf5229dd0d1138d0e06fc5faba98de7d300b43a2c8f376e5dbc07e13d4e993b",
    "acyclic-v2":
        "1f843e833900c4fb43ee77722863d7d773de1491947448f759ca692b8dfcf553",
    "nonrepetitive-vertex":
        "3a2239fb99092de5a0185e934fd15093014b1418334e8173ef0d2da93151b6a2",
    "nonrepetitive-edge":
        "d37189c5720959bae82b762bad35e4c199c6b389ad0f6f781d7895972bb648c9",
    "facial-thue-vertex":
        "fa356cce6547d9cd23e7710a4e40a55108136a39ac589f565ac2d7974dee97f0",
    "facial-thue-edge":
        "9351a67bbd65dc8d37f15dbcd6eebf5a3e61756a7818a57c398df3481dc69fce",
}


# Kappa 2-3: most steps fire, and over many triples the types above the
# first (longer repetitions, bicolored cycles) fire and are ranked too.
# Pinned on the engine whose detection enumerated every witness of a type
# before scanning it.
HIT_HEAVY_TRIPLES = 200
HIT_HEAVY = {
    "acyclic-gamma":
        "0816d35991d5547ee98bcddb899c0d28ca994c79edca43203544451c728a2b92",
    "acyclic-v1":
        "809114e08a23d38e07b87494d020f8e41761afe53896677d9332ec18940573ac",
    "acyclic-v2":
        "e22de773131c62d0232d4cc5bc9aa953086908edfd9942083e5773293b6cb0f0",
    "facial-thue-edge":
        "115680216a8adbf73a21fa09deb43291a81897e77770a48d5d4e86060262c5f3",
    "facial-thue-vertex":
        "78e189687a63f824211cb1e30d733b3f09f50dd394d34f42d2506cce32ace879",
    "nonrepetitive-edge":
        "9547135e36dd41d0641c5fc32af15af1a1c8135637ac21ae681791a58307f9b0",
    "nonrepetitive-vertex":
        "682da1e1e9d1f58aa5541408cb42d61c8e1b209c96024a33619b81f1ef175838",
}


def family_digest(name: str, seed: str = "golden", kappas=None,
                  triples: int = TRIPLES) -> str:
    rng = random.Random(f"{seed} {name}")
    digest = hashlib.sha256()
    for _ in range(triples):
        g, fam, inp = fuzzed_instance(name, rng, kappas)
        res = run(g, fam, inp)
        values = decode(g, fam, res.coloring, res.record)
        assert tuple(values) == inp.make_vector()[: res.steps_used]
        coloring = "".join(f"{v} {res.coloring.color_of(v)}\n"
                           for v in sorted(res.coloring.colored))
        for part in (res.record.to_text(), coloring, res.status.value):
            digest.update(part.encode())
            digest.update(b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_match_golden_digest(name):
    assert family_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(HIT_HEAVY))
def test_hit_heavy_records_match_golden_digest(name):
    digest = family_digest(name, "hit-heavy", (2, 3), HIT_HEAVY_TRIPLES)
    assert digest == HIT_HEAVY[name]
