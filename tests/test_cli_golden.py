"""Command-line transcripts pinned byte for byte.

Each case runs `recolor.cli.main` on one argv over small input files
written from the strings below and hashes (exit code, stdout, stderr).
The set covers `bound` for every problem, `table`, `count-records` from
terms and from a preset, `color` and `roundtrip` for every family,
`verify` for every property, and the refusals of missing inputs.  No
argv prints a path, so the digests do not depend on where the files are
written.  A digest changes only with a deliberate change of the CLI's
output; a refactor must keep every one.
"""

import hashlib

import pytest

from recolor.cli import main

C4 = "4 4\n1 2\n2 3\n3 4\n4 1\n"
P4 = "4 3\n1 2\n2 3\n3 4\n"

# random_triangulation(12, random.Random(21)): its rotation system and
# its graph file
TRI_ROTATION = (
    "12 30\n1: 2 3 5 8 4\n2: 3 1 4\n3: 1 2 4 6 7 11 12 5\n4: 3 2 1 8 5 6\n"
    "5: 4 8 1 3 12 11 7 10 9 6\n6: 5 9 7 3 4\n7: 6 9 10 5 11 3\n8: 5 4 1\n"
    "9: 7 6 5 10\n10: 9 5 7\n11: 7 5 12 3\n12: 11 5 3\n")
TRI_GRAPH = (
    "12 30\n1 2\n1 3\n1 4\n1 5\n1 8\n2 3\n2 4\n3 4\n3 5\n3 6\n3 7\n3 11\n"
    "3 12\n4 5\n4 6\n4 8\n5 6\n5 7\n5 8\n5 9\n5 10\n5 11\n5 12\n6 7\n6 9\n"
    "7 9\n7 10\n7 11\n9 10\n11 12\n")

FILES = {
    "c4": C4,
    "p4": P4,
    "tri.rot": TRI_ROTATION,
    "tri": TRI_GRAPH,
    "c4.phi": "1 1\n2 2\n3 1\n4 2\n",
    "c4-edges.phi": "1 1\n2 2\n3 3\n4 1\n",
    "tri.phi": "".join(f"{v} {v % 4 + 1}\n" for v in range(1, 13)),
    "tri-edges.phi": "".join(f"{e} {e % 5 + 1}\n" for e in range(1, 31)),
    "c4.lists": "1: 5 6 7\n2: 6 7 8\n3: 7 8 9\n4: 8 9 5\n",
}

RUN = "--kappa 5 --seed 3 --budget 60"

# case id -> argv; a token "@name" is the path of FILES[name]
CASES = {
    "bound-acyclic-gamma": "bound --problem acyclic-gamma --delta 5 --gamma 2",
    "bound-acyclic-gamma-exact": "bound --problem acyclic-gamma --delta 4 --exact-n 12",
    "bound-acyclic-v1": "bound --problem acyclic-v1 --delta 27 --alpha 0.3",
    "bound-acyclic-v1-optimize": "bound --problem acyclic-v1 --delta 40 --optimize-alpha",
    "bound-acyclic-v2": "bound --problem acyclic-v2 --delta 27",
    "bound-nonrepetitive-vertex": "bound --problem nonrepetitive-vertex --delta 4",
    "bound-nonrepetitive-edge": "bound --problem nonrepetitive-edge --delta 4 --exact-n 20",
    "bound-facial-thue-vertex": "bound --problem facial-thue-vertex --delta 6",
    "bound-facial-thue-edge": "bound --problem facial-thue-edge",
    "bound-r-acyclic": "bound --problem r-acyclic --delta 4 --r 5",
    "bound-pair-forbidden": "bound --problem pair-forbidden --delta 5 --pattern-shape 4:4,5:6",
    "bound-pair-forbidden-edge": "bound --problem pair-forbidden --delta 5 --pattern-shape 4:4 --form edge",
    "bound-star": "bound --problem star --delta 6",
    "bound-star-no-delta": "bound --problem star",
    "bound-unknown-problem": "bound --problem nope --delta 3",
    "bound-nothing": "bound",
    "table-cs": "table --name cs",
    "table-unknown": "table --name nope",
    "count-records-terms": "count-records --terms 2:1,3:2 --level-cap 4 --tmax 7 --brute",
    "count-records-problem": "count-records --problem nonrepetitive-vertex --delta 3 --exact-n 8 --level-cap 8 --tmax 12",
    "count-records-nothing": "count-records --level-cap 3 --tmax 3",
    "color-acyclic-gamma": f"color --graph @tri --family acyclic-gamma --gamma 2 {RUN}",
    "color-acyclic-v1": f"color --graph @tri --family acyclic-v1 --alpha 0.25 {RUN}",
    "color-acyclic-v2": f"color --graph @tri --family acyclic-v2 {RUN}",
    "color-nonrepetitive-vertex": f"color --graph @c4 --family nonrepetitive-vertex {RUN}",
    "color-nonrepetitive-edge": f"color --graph @c4 --family nonrepetitive-edge {RUN}",
    "color-facial-thue-vertex": f"color --embedding @tri.rot --family facial-thue-vertex {RUN}",
    "color-facial-thue-edge": f"color --graph @tri --embedding @tri.rot --family facial-thue-edge --estar 4 {RUN}",
    "color-vector": "color --graph @c4 --family acyclic-gamma --kappa 3 --vector 1,2,1,3,2",
    "color-lists": "color --graph @c4 --family acyclic-gamma --kappa 3 --seed 5 --budget 40 --lists @c4.lists",
    "roundtrip-acyclic-gamma": f"roundtrip --graph @tri --family acyclic-gamma {RUN}",
    "roundtrip-acyclic-v1": f"roundtrip --graph @tri --family acyclic-v1 --alpha 0.05 {RUN}",
    "roundtrip-acyclic-v2": f"roundtrip --graph @tri --family acyclic-v2 --alpha 0.05 {RUN}",
    "roundtrip-nonrepetitive-vertex": f"roundtrip --graph @tri --family nonrepetitive-vertex {RUN}",
    "roundtrip-nonrepetitive-edge": f"roundtrip --graph @c4 --family nonrepetitive-edge {RUN}",
    "roundtrip-facial-thue-vertex": f"roundtrip --graph @tri --embedding @tri.rot --family facial-thue-vertex {RUN}",
    "roundtrip-facial-thue-edge": f"roundtrip --embedding @tri.rot --family facial-thue-edge --estar 1 {RUN}",
    "verify-proper": "verify --graph @c4 --coloring @c4.phi --property proper",
    "verify-proper-reject": "verify --graph @tri --coloring @tri.phi --property proper",
    "verify-acyclic": "verify --graph @c4 --coloring @c4.phi --property acyclic",
    "verify-nonrepetitive-vertex": "verify --graph @c4 --coloring @c4.phi --property nonrepetitive-vertex",
    "verify-nonrepetitive-edge": "verify --graph @c4 --coloring @c4-edges.phi --property nonrepetitive-edge",
    "verify-facial-thue-vertex": "verify --embedding @tri.rot --coloring @tri.phi --property facial-thue-vertex",
    "verify-facial-thue-edge": "verify --graph @tri --embedding @tri.rot --coloring @tri-edges.phi --property facial-thue-edge",
    "verify-r-acyclic": "verify --graph @c4 --coloring @c4.phi --property r-acyclic --r 4",
    "verify-pair-forbidden": "verify --graph @c4 --coloring @c4.phi --property pair-forbidden --pattern @p4",
    "refuse-color-no-graph": f"color --family acyclic-v1 {RUN}",
    "refuse-verify-no-graph": "verify --coloring @c4.phi --property acyclic",
    "refuse-color-no-embedding": f"color --graph @tri --family facial-thue-vertex {RUN}",
    "refuse-verify-no-embedding": "verify --coloring @tri.phi --property facial-thue-edge",
    "refuse-roundtrip-no-estar": f"roundtrip --embedding @tri.rot --family facial-thue-edge {RUN}",
    "refuse-verify-no-pattern": "verify --graph @c4 --coloring @c4.phi --property pair-forbidden",
    "refuse-color-no-source": "color --graph @c4 --family acyclic-gamma --kappa 3",
    "refuse-color-unknown-family": f"color --graph @c4 --family star {RUN}",
    "refuse-verify-unknown-property": "verify --graph @c4 --coloring @c4.phi --property star",
}

# sha256 of repr((exit code, stdout, stderr)), pinned before the CLI read
# its problems from one table
PINNED = {
    "bound-acyclic-gamma":
        "c4d4014effe0d42b5934fc72cae1b91f16e2f543217a3a7e2581a5099408bb82",
    "bound-acyclic-gamma-exact":
        "4deeea3144e396f7bd9392df67510f3dc118c8e254f0dd253f1c7d5a269afb5a",
    "bound-acyclic-v1":
        "ab850c4391ef2dbb053e4c9738ccace3e1e5a00b1639b621c455ac1285d104b0",
    "bound-acyclic-v1-optimize":
        "40c82905a009b81031fcc42ee738ab759ab6a2097b57082cbe6a146cdf3dba2d",
    "bound-acyclic-v2":
        "6792839c8b5e5b6e5513cd867db77374b26eb501d0782eceff6b9fc6922fa0c5",
    "bound-facial-thue-edge":
        "31c9f46bf1f89f5b9e3aa7f1ff5bcdbdc9f77feedeb4e5bacf8561345a05d165",
    # re-pinned when the closed-form tails came from one declaration: the
    # root_residual line moved from 7.998046669399628e-13 to
    # 7.989164885202626e-13
    "bound-facial-thue-vertex":
        "73cb85ad30420535a52795eef41d048fb42f38c96737f91044e19dc6c2d3af18",
    "bound-nonrepetitive-edge":
        "b8578b2b9692a872ae52112d54bf179762ec75dbbd5ec734c8d9662cd8c37575",
    "bound-nonrepetitive-vertex":
        "f9cb7c3208dacf0e89be29eee4084752ab2f64b054fd3ed531c062e847ecd177",
    "bound-nothing":
        "7e4257c2fc239fae408f7c6ec8290a67f07294924c85098b784f2a1a768d2180",
    "bound-pair-forbidden":
        "b1dcb6823ddf1998574275db1b01d3c6d694acbff904e0827abc8a0ac8b2fcfe",
    "bound-pair-forbidden-edge":
        "39bb9586541b992c13176f2b650e3da4becdd252e5ffd16cc8999f5297b0ae11",
    "bound-r-acyclic":
        "48d171de54671b5bde38597e685ae6316a7858dda3a0c90ce375afb80bbd4fca",
    "bound-star":
        "5bacbfbdd122d42893da32cf2f2301ee3a6532a68d013042675274f36fd46ec2",
    "bound-star-no-delta":
        "63627ff811accab7a60057f85e25193982ef2aa729eeca7793c794d26083398f",
    "bound-unknown-problem":
        "7276ea0740a03b076364ab0fa05ba8611df56ac417399a0db241c4edf4f7d014",
    "color-acyclic-gamma":
        "690e1711fbbe1eed2d4f429f56e14be7a73f29282e0e51a7f15818364950a3d4",
    "color-acyclic-v1":
        "4613b37786f13418caa3c23c70aeb41e2a06c1ca26e947acc3a9e017d5b44af2",
    "color-acyclic-v2":
        "5bea5083d3f89c3f08e8103bef7346b941c8c845bf7166cdcf9a5ac29313132e",
    "color-facial-thue-edge":
        "cb8992400c11c8a74c1cfdc6c20d186fd86ddb11bdc1a70a4e969a64fecd1b37",
    "color-facial-thue-vertex":
        "690e1711fbbe1eed2d4f429f56e14be7a73f29282e0e51a7f15818364950a3d4",
    "color-lists":
        "8bcf442d53886cb5eae521a6a7e09e4e7c8ca4295418b051351c491cea5652de",
    "color-nonrepetitive-edge":
        "b48554aa857388df0230587f910bbbbe250a9daec1420289e1f7ab9148cdf42a",
    "color-nonrepetitive-vertex":
        "fcc5496e2e82af5c0da34df708fdc132cdf2fba9382c8878b52fab2c1a71275e",
    "color-vector":
        "4e9cfbaa40a9e18f5547fe3ca5899973aa2333ad3685fafdbe8e708837d2e573",
    "count-records-nothing":
        "5455c77f3c80e655a9f2dd813ab0cab503fc8dd10c5b486b49e2adc946d1bfda",
    "count-records-problem":
        "17448f88cfd66b83af6e1fff9c6375d240f1f426b0958c37c3cb8c75f9ef2815",
    "count-records-terms":
        "977f71b34f3ac96e341ff0c479e7e8d3b9c686bb85d42959e9b13eb9a795277e",
    "refuse-color-no-embedding":
        "79fa09fd60b8ce5df714c7ab72421901c8d21ad4180b2eaf607ea01d430cf5d1",
    "refuse-color-no-graph":
        "bc6823e1225d89b7a95f0843ab284d1d20c0c2b366da7d31c35fad8c823d009f",
    "refuse-color-no-source":
        "d779d6ff4938bd3c6b226a163d722afb311f5f30775499d0ea4a7e275c7e42f2",
    "refuse-color-unknown-family":
        "4331ebec7226600aaa0962e22ffe5863212bc3225c71e9c91e52df0f8d15189e",
    "refuse-roundtrip-no-estar":
        "bcc1a765306dbf5be0c239ccdfeec6cd50c661d55281776d0eaa415b2b7893aa",
    "refuse-verify-no-embedding":
        "bf3a791a8daf54e274b4f4d60a3004df8fc0688a9d952a453cc3793f168fa72d",
    "refuse-verify-no-graph":
        "44b3dca5cd3a183b6e19117de47424c4874032a87a570ca0b4c602708151d5f6",
    "refuse-verify-no-pattern":
        "dfcea0f1e44e769852a81420ea0610faa560fc3f8e90263ed3997ba27316e9b4",
    "refuse-verify-unknown-property":
        "4bb0cf9ab4241eaf8c682768f88fda7f9e8088676396f5733d30856415650d1f",
    "roundtrip-acyclic-gamma":
        "8a623f95f91f23336227f766041e3622f256c9ae427c9b9594be759a60c00d9b",
    "roundtrip-acyclic-v1":
        "30baad63a03fecf75d168f556f87b0d21ebc4ea8837c36e2b94bb620494251ad",
    "roundtrip-acyclic-v2":
        "30baad63a03fecf75d168f556f87b0d21ebc4ea8837c36e2b94bb620494251ad",
    "roundtrip-facial-thue-edge":
        "62c8811eb7e6bc351880ceb9518e21f669c4e4d47b2e47b461198291a308f3c9",
    "roundtrip-facial-thue-vertex":
        "8a623f95f91f23336227f766041e3622f256c9ae427c9b9594be759a60c00d9b",
    "roundtrip-nonrepetitive-edge":
        "d0291322171075cf53f988b0ae43796bd18e24926a2e2e40bee7c0ef3b9bc81f",
    "roundtrip-nonrepetitive-vertex":
        "b4eca98fe4073ff942a181e6cbb3ff0a29c78fbab5adc3a10a467e8c5992d2a6",
    "table-cs":
        "9068e7ee8bc64fb133713ecb5a9bdba28ca9d03404f46a2c8c5aeac5392fdc1a",
    "table-unknown":
        "f836c450eaeab97d1046e62abc6b016e4346f59670e0dbc9d705573be7948511",
    "verify-acyclic":
        "907a3945b6d02c841bc7c9be4ae9955183635a97e077ed417b95068288b9beef",
    "verify-facial-thue-edge":
        "151645d2dcd9566c720c94172c08d75094e2882b2a0040885111b5db707fc333",
    "verify-facial-thue-vertex":
        "37b93b382593288af5ae043fafad57d70b860e8241dc61f5ca80bc3daa72bb45",
    "verify-nonrepetitive-edge":
        "4fc5823d938654240ec06593e4e2fe4e9598242b7ecde66e8184fd9773faf7d6",
    "verify-nonrepetitive-vertex":
        "0adeaa49a88a5e4a1a5a93dff29f9f05142d1af497cad408a20e2b6e40e19dec",
    "verify-pair-forbidden":
        "00fedf120d7407ce1f62721ce014d112edf3549b1592387c481723d4a8925f46",
    "verify-proper":
        "04a007b6e21c3be7e0e99f1784704c43677be7b58ef569aa087d101b00ad2ca6",
    "verify-proper-reject":
        "6264e04ed454927142c74d8351c8b3af083bdac2da0e711dbbb30c4202c8344d",
    "verify-r-acyclic":
        "df5332fad707eb5f7b86a48a83f2fcdcfd02c31fb10adf3672bd3c9fe5938069",
}


def exit_code(argv):
    """The exit code of one in-process CLI call."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        return exc.code


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_is_pinned(case, tmp_path, capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / t[1:]) if t.startswith("@") else t
            for t in CASES[case].split()]
    code = exit_code(argv)
    out, err = capsys.readouterr()
    digest = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
    assert digest == PINNED.get(case), (case, code, out, err)
