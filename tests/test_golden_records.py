"""Golden records: engine output pinned byte for byte.

For every family, a fixed list of fuzzed (graph, family, color stream)
triples is run and the record text plus the final coloring of each run are
hashed.  The digests pin the records of the engine from before its object
choice was made incremental; a refactor that keeps records byte-identical
leaves them unchanged.  Decode is checked to invert every run on the way.
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
        "618bfe317e546ef0174e2e9e949c791885419e4fde4cb6370079cf9f39b8b598",
}


def family_digest(name: str) -> str:
    rng = random.Random(f"golden {name}")
    digest = hashlib.sha256()
    for _ in range(TRIPLES):
        g, fam, inp = fuzzed_instance(name, rng)
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
