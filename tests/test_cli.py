"""Command-line front end: golden outputs, envelopes, exit codes."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sternseq
from oracles import residue_counts
from sternseq.cli import _STR_DIGITS, run

# as run() does: arguments and answers reach 2^16 bits, past the default
# limit on decimal conversion of Pythons from 3.10.7 on
if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < _STR_DIGITS:
    sys.set_int_max_str_digits(_STR_DIGITS)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,expected", [
    (("stern", "11"), "5\n"),
    (("pair", "11"), "5\t2\n"),
    (("ratio", "11"), "5/2\n"),
    (("index", "5", "2"), "11\n"),
    (("rational", "11"), "5/2\n"),
    (("row", "3", "0", "1"), "0\n1\n1\n2\n1\n3\n2\n3\n1\n"),
    (("brocot", "2"), "0/1\n1/2\n1/1\n2/1\n1/0\n"),
    (("minkowski", "1", "3"), "1/4\n"),
    (("minpoly", "--d", "3"), "0\t4\t-4\t1\t-2\t1\n"),
    (("walks", "--d", "2", "--r", "2"), "2\t1\t1\n1\t2\t1\n1\t1\t2\n"),
    (("a3", "--limit", "20"), "0\n5\n7\n10\n14\n"),
    (("a3row", "5"), "10\n"),
    (("t3zero", "10"), "265\n"),
    (("delta3", "--N", "4"), "1\n"),
    (("hyperbinary", "--d", "3", "--n", "4"), "3\n"),
    (("rowsum", "3"), "23/2\n"),
])
def test_golden_tsv(argv, expected):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("argv,fmt,digest", [
    (("walks", "--d", "9", "--r", "60"), "tsv",
     "e36ae96af146e1303ff3723b23dc1385f049c3bc21922323e6f4becae2a83bba"),
    (("walks", "--d", "9", "--r", "60"), "json",
     "6ed47dce935643629a04b79c86604f1aa4f20ea2b6d9f57a660512369de643e2"),
    (("walks", "--d", "7", "--r", "300"), "tsv",
     "7bbb31373e332fc47e748c8e4c213a7be9de28b333863fcf7ff0dc4e8777eab7"),
    (("walks", "--d", "7", "--r", "300"), "json",
     "4d93ad38e3cca4a30473f927c29c62dce7b089d8f33d216d49b785d5bcd8b217"),
    # at least one command per subcommand, in both formats
    (("stern", "12345678901234567890"), "tsv",
     "3b0230f584b6d2fae44f3025411a89b7e4cf583f6cdb1bf5847e7780ba6808d7"),
    (("stern", "12345678901234567890"), "json",
     "f6ddf16262e6cd36b6e744eb8542c88920f8b76d183c02658fe5be800bd62617"),
    (("pair", "1000003"), "tsv",
     "3610a50c3b52d3f6d5cf9f301c41c31fcb685d3417e998a0aca51717b5f570f7"),
    (("pair", "1000003"), "json",
     "48a22d085a744a4b3bae2ec7ff25770cc1839e5cb79b8f2290150d125221eef8"),
    (("ratio", "1000003"), "tsv",
     "59606c236764bfdf8ad554b287f0fa87a94aebc60c405ec0cb6ba31051ee9816"),
    (("ratio", "1000003"), "json",
     "7a817cb9dce65dcbd8e75d634cd5bd8bfbc3d3e1401b11f69e54d7332878dc1a"),
    (("index", "355", "113"), "tsv",
     "bedcc999922d7c4b965921e8dfb268678ce8fbfaf85dda5f390eea2b5641fe6a"),
    (("index", "355", "113"), "json",
     "b06582f0e0e80b5a29250573e10649756db69ec66d91e66ead9a338aa2ab50a5"),
    (("rational", "1000003"), "tsv",
     "59606c236764bfdf8ad554b287f0fa87a94aebc60c405ec0cb6ba31051ee9816"),
    (("rational", "1000003"), "json",
     "d5d698592bff8240253ffb8aec534217bc51817445605fae62a5e6d880c1fc17"),
    (("row", "8", "3", "5"), "tsv",
     "69bee71322c137f3ed8c10362b2cf5a0e8cc69f7e89ebcf4635a23932e2b66b0"),
    (("row", "8", "3", "5"), "json",
     "cd85cf34b7e6a788d04661e6467726b9b27224333c6d64f4e091b18c7a38f0f6"),
    (("brocot", "5"), "tsv",
     "f4abd3801671bf670a41d3360da3c3a91c8fc283ccd83b11ee17d8a57c6e1809"),
    (("brocot", "5"), "json",
     "57f1b09c0ea44088d3db05639616780d9eecf199d90d6210c5776a73a618ab05"),
    (("minkowski", "113", "355"), "tsv",
     "51da08d9d1eb5abc2b806f45f2a629fe7f50eafcf931caef45e80cf71892de14"),
    (("minkowski", "113", "355"), "json",
     "2887b1ba968afb80bfdb25bf05274a80cc0de491af7bc62664f87b7392664ea7"),
    (("dist", "--d", "7", "--N", "1000003"), "tsv",
     "012f8953f76de8819211b620fb8400e8be17f7dc60d65289b96d0b2fafeaac96"),
    (("dist", "--d", "7", "--N", "1000003"), "json",
     "f199ec419313ea606b1a1c8e0b040da3c76cccbf0b0099ee95010ed5364d30fe"),
    (("dist", "--d", "3", "--N", "4096", "--pairs"), "tsv",
     "6165b2c293ef9253ca7b7779946a3ed0d174f64e1a23d19678b08a571d0d246d"),
    (("dist", "--d", "3", "--N", "4096", "--pairs"), "json",
     "7cccb093b9faa5937cac9760a73248ce9f063b5c7be628b1fa2c05c49f49ef35"),
    (("graph", "--d", "5"), "tsv",
     "b3d062e488e9cbb7322eb824cb53a4a61ca60f6a1cb63a60b1e001dd3af532e2"),
    (("graph", "--d", "5"), "json",
     "589771212dbde17013c7e35bd7129a32d5674aec7d726ef7df443cf5ede6480d"),
    (("graph", "--d", "5", "--dot"), "tsv",
     "e23cb7904d2a23542dbf268a8717618c7c1b0f9bd9856f4bfabdfa673ad718f0"),
    (("graph", "--d", "5", "--dot"), "json",
     "8ca5d3d6fcbc9d171ab0e5bb68d18b65f88226a3cda71f077e8f0f44cca854ea"),
    (("minpoly", "--d", "7"), "tsv",
     "17a0b2eb515a70934a14fe9dc3c51e8881aaaf6204a2c88de0eea8106b6a8b81"),
    (("minpoly", "--d", "7"), "json",
     "efbc4af345c8cbeeb1ccc2985f9280405b02956e37fbd55ff35e419d712f4cf9"),
    (("spectral", "--d", "3"), "tsv",
     "12689134dd0ea47ac9af109a1999d7a2e463ba952bfaf335f8ebecc909ec6613"),
    (("spectral", "--d", "3"), "json",
     "66818900dff1daa197e9e57faaec2cd8f15ac97dee9aa1091a47635d29a0960f"),
    (("walks", "--d", "4", "--r", "10"), "tsv",
     "37fb6f8a7d09389fa6b6beb4c4d07a2da14f6905a38245e03caf58b87c4fa15f"),
    (("walks", "--d", "4", "--r", "10"), "json",
     "92d5433e2faf14cba7d1b72217f29d3f69ebec16952a42d55696f56de9c81cab"),
    (("a3", "--limit", "1000"), "tsv",
     "fba21e7bc6207df04e88ae5320f55c324d930c06784171a8fd7abc8c65ce84bb"),
    (("a3", "--limit", "1000"), "json",
     "53c92247d757dbd1028771da8f6f6533524501abb87e7190d9ca27b39cacec24"),
    (("a3row", "300"), "tsv",
     "c1fa2dde122befd75f733c6328a4d083013c0ddf5311bfcae358433ca5e145e4"),
    (("a3row", "300"), "json",
     "60964f3e96b32c0a904181c91b2589cb9af57e0209bfeb8aa47dce420dd8d420"),
    (("t3zero", "300"), "tsv",
     "fab04ede242da7ee4bb35a46a404c2ffa038cc708bfaa7c9b1cbf8189d3685b2"),
    (("t3zero", "300"), "json",
     "e45cded3e15f91c4bf6246b827cc744f173a8e0dcdc1a738c0e35074ee7c571f"),
    (("delta3", "--N", "123456789"), "tsv",
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    (("delta3", "--N", "123456789"), "json",
     "ae7c8c21730bcac5ea9aac14b886ccb22b935566142fa83be86fba92c95a647e"),
    (("delta3", "--N", "300", "--trace"), "tsv",
     "f49c5d6853df9aad283943c5ec4f6d570f5b7013c3591921df13d4e9ea09497b"),
    (("delta3", "--N", "300", "--trace"), "json",
     "ca520a492f44715caff6d2b983c99a10087c3063ca77654704b463fc8c0d97dd"),
    (("hyperbinary", "--d", "5", "--n", str(10 ** 30)), "tsv",
     "257af47651b1504c3e6b97a665dec4a9dcf7b8559a4e13d1e972b027e18f730f"),
    (("hyperbinary", "--d", "5", "--n", str(10 ** 30)), "json",
     "3174acd16b518cf2521ecf253aa3329bd3f2711d9eeacc3c8d13df65eee7b862"),
    (("rowsum", "10", "--prefix"), "tsv",
     "417bb0e319b1ad1c6aef9fad1de656adf995e0b081e12c7c2b3a85442758371b"),
    (("rowsum", "10", "--prefix"), "json",
     "ef97cb22b2a468f14495ebc80fea4b8ceccbb020179c97c7d333ea9930e0dcd8"),
    (("sum", "--N", "1000", "--exact"), "tsv",
     "d513fe55aac8b0f0b3c753756e5e5f232772e6929f736aa7caeb84ba0f6ad80b"),
    (("sum", "--N", "1000", "--exact"), "json",
     "75eaff1c98bcb6c10e11f2f8ca34400813b3749a248aa94f682e7a3935befb25"),
    (("alpha", "--t", "2", "--N", "100000"), "tsv",
     "a92aad82b276dbf5673fc13527625d0cbaf0bc0c928d61b2483826c83f714d71"),
    (("alpha", "--t", "2", "--N", "100000"), "json",
     "0898c5b15dfa8467b3bccf66a34087a9ef1de7499e2abad13354f8cdeed14d61"),
    (("verify", "--suite", "core"), "tsv",
     "a13a048dc6ab3758b56931c50f521d216720b0eeff884934486d1ca1ed70114e"),
    (("verify", "--suite", "core"), "json",
     "d2625aab083d4debe683115d641e030423cf16b33b944d4581a180d5639d059a"),
    # walks at larger moduli, appended so earlier case ids stay put
    (("walks", "--d", "30", "--r", "5"), "tsv",
     "5a8d1f256b8f46c4021e42bc9362c6de0d64e2e0ebde9feaa3af88d748774792"),
    (("walks", "--d", "40", "--r", "1"), "tsv",
     "c6002db9e20b1451ea6939eb041ab85274f5ae9728fe53fed715f3d893de77a3"),
    # outputs of many blocks, each ending part way through a block
    (("row", "17", "1000003", "654321"), "tsv",
     "add9b1e9924f9f6971896265bbcab96ce34640102b4427e93093f8be32771c1d"),
    (("row", "17", "1000003", "654321"), "json",
     "dbaa9b4c211d590cc51075732577c8f797c20b8d257302a38bc4b09ccc68ca50"),
    (("row", "13", "5", "7"), "tsv",
     "1540229c173ffdda2266af0467773e5783869835be771f23a7f3ae85ce9a54b6"),
    (("brocot", "16"), "tsv",
     "bf506233bf22b1d7e5cd854d774eee13eb574ce25ac2a2537c9536058033d83c"),
    (("brocot", "16"), "json",
     "f653777e06c489a25a105cd73a9ccdaf1660ce40547fc40e8cc00b639ced0585"),
    (("brocot", "13"), "tsv",
     "4d79f626ca7babe4877098886282da28b1c259a7abb019f8153ba81768f66b54"),
    (("delta3", "--N", "74000", "--trace"), "tsv",
     "bde38674c7f92409d90f462e5a218170097111995e74b449222a5e9119f83168"),
    (("delta3", "--N", "74000", "--trace"), "json",
     "a1945575ed688c269debebe7b144dc8e5e00bb4f5fad71822ae8445b34248319"),
    (("graph", "--d", "147", "--dot", "--max-matrix-order", "32768"), "tsv",
     "e26b60c2b2635b0f7d18afe616c9fd63987328ce88f7af57fcae6f5412756a8c"),
    (("graph", "--d", "147", "--dot", "--max-matrix-order", "32768"), "json",
     "4ec271bb6c2f7e20ab9550cab718a0fc290726be39ffcb0609cd528c5fe562de"),
    (("graph", "--d", "30"), "tsv",
     "7e785329a320b5c165da5fba20cca14b1175e8bcb349c80596176c666f6c3060"),
    (("graph", "--d", "30"), "json",
     "ca44af4db69a6151a20df042bea3db3edf0830134f3734090a63dbc856dc9875"),
    (("walks", "--d", "40", "--r", "1"), "json",
     "36788db0105d5fb3e5a2e4a9dc1d2f548bcd7ad67a19fa49704cd2c7b1fec967"),
    (("a3", "--limit", "100000"), "tsv",
     "23c3612b88374eb3b2cd0a7c2ef16b106dcf9e4dd7d0a53cd890e92fa5d30dd5"),
])
def test_golden_walks_digest(argv, fmt, digest):
    """sha256 of the full stdout: any way of computing the walks, or of
    parsing and printing any command, must print these bytes."""
    code, out, err = invoke(*argv, "--format", fmt)
    assert (code, err) == (0, "")
    if argv[0] == "spectral":
        out = _without_residuals(out, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _without_residuals(out, fmt):
    # a root's residual depends on the float seeds of its refinement
    if fmt == "json":
        doc = json.loads(out)
        for root in doc["result"]["roots"]:
            del root["residual"]
        return json.dumps(doc, sort_keys=True) + "\n"
    rows = [line.split("\t") for line in out.splitlines()]
    return "".join("\t".join(f[:4] + f[5:] if f[0] == "root" else f) + "\n"
                   for f in rows)


def _whole_list_outputs():
    """(argv, params, payload, tsv lines) of the commands that write in
    blocks, formatted here from the library's whole lists."""
    def fracs(row):
        return [str(x) if x is sternseq.INFINITY
                else f"{x.numerator}/{x.denominator}" for x in row]

    for r in range(8):
        for a, b in ((0, 0), (0, 1), (7, 3)):
            values = [str(v) for v in sternseq.diatomic_row(r, a, b)]
            yield (("row", r, a, b), {"r": r, "a": str(a), "b": str(b)},
                   {"values": values}, values)
        entries = fracs(sternseq.brocot_row(r))
        yield ("brocot", r), {"r": r}, {"entries": entries}, entries
    for N in range(71):
        trace = [str(v) for v in sternseq.delta3_trace(N)]
        yield (("delta3", "--N", N, "--trace"), {"N": str(N), "trace": True},
               {"N": str(N), "delta": trace[-1], "trace": trace},
               [f"{n}\t{v}" for n, v in enumerate(trace)])
        members = [str(m) for m in sternseq.a3_enumerate(N)]
        yield (("a3", "--limit", N), {"limit": str(N)},
               {"members": members}, members)
    for d in range(2, 8):
        dot = sternseq.graph_export(d)
        yield (("graph", "--d", d, "--dot"), {"d": d, "dot": True},
               {"dot": dot}, dot.splitlines())
        g = sternseq.moddist.graph(d)
        edges = [[*g.vertices[pos], tag, *g.vertices[nxt]]
                 for pos in range(len(g.vertices))
                 for tag, nxt in (("L", g.left[pos]), ("R", g.right[pos]))]
        yield (("graph", "--d", d), {"d": d, "dot": False},
               {"d": d, "vertices": [list(v) for v in g.vertices],
                "edges": edges},
               ["\t".join(map(str, e)) for e in edges])
        for r in (0, 1, 5):
            M = [[str(e) for e in row] for row in sternseq.walk_counts(d, r)]
            yield (("walks", "--d", d, "--r", r), {"d": d, "r": r},
                   {"matrix": M}, ["\t".join(row) for row in M])


def test_blocks_of_two_print_the_whole_lists(monkeypatch):
    """With blocks of two entries every block boundary is exercised:
    the output is still that of the whole lists, in both formats."""
    monkeypatch.setattr(sternseq.cli, "_BLOCK", 2)
    for argv, params, payload, lines in _whole_list_outputs():
        argv = [str(x) for x in argv]
        envelope = {"format_version": "1", "command": argv[0],
                    "params": params, "result": payload}
        expected = {"tsv": "".join(line + "\n" for line in lines),
                    "json": json.dumps(envelope, sort_keys=True) + "\n"}
        for fmt, text in expected.items():
            assert invoke(*argv, "--format", fmt) == (0, text, ""), argv


def test_delta3_trace_output():
    code, out, _ = invoke("delta3", "--N", "8", "--trace")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["0", "0"]
    assert rows[4] == ["4", "1"]
    assert len(rows) == 9


def test_json_envelope():
    code, out, _ = invoke("stern", "11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"format_version", "command", "params", "result"}
    assert doc["format_version"] == "1"
    assert doc["command"] == "stern"
    assert doc["params"] == {"n": "11"}
    assert doc["result"] == {"value": "5"}


def test_json_big_integers_are_strings():
    code, out, _ = invoke("stern", str(2 ** 70 + 1), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["result"]["value"], str)
    assert doc["result"]["value"].isdigit()


def test_json_sum_envelope():
    code, out, _ = invoke("sum", "--N", "8", "--exact", "--format", "json")
    doc = json.loads(out)
    assert doc["result"]["exact"] == "9/1"
    assert doc["result"]["lower"] == "3/1"
    assert doc["result"]["upper"] == "23/2"


@pytest.mark.parametrize("argv", [
    ("spectral", "--d", "3"),
    ("dist", "--d", "3", "--N", "4096", "--pairs"),
    ("graph", "--d", "3", "--dot"),
    ("alpha", "--t", "2", "--N", "4096"),
    ("sum", "--N", "4096", "--exact", "--format", "json"),
    ("verify", "--suite", "core"),
])
def test_repeated_invocations_byte_identical(argv):
    first = invoke(*argv)
    second = invoke(*argv)
    assert first == second
    assert first[0] == 0


def test_dist_reports_densities_and_index():
    code, out, _ = invoke("dist", "--d", "3", "--N", "1024")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split("\t")[:3] == ["0", "265", "1/4"]
    assert any(line.startswith("# index_I\t4") for line in lines)


def test_exit_code_usage_error():
    code, out, err = invoke("no-such-command")
    assert code == 1 and out == "" and err != ""
    code, _, err = invoke("stern")
    assert code == 1 and "usage error" in err
    code, _, err = invoke("stern", "twelve")
    assert code == 1


def test_exit_code_domain_error():
    code, out, err = invoke("rational", "0")
    assert code == 2 and out == "" and "domain error" in err
    code, _, err = invoke("verify", "--suite", "nope")
    assert code == 2
    for command in ("index", "minkowski"):
        code, out, err = invoke(command, "1", "0")
        assert (code, out) == (2, "")
        assert err == "domain error: denominator q must be nonzero, got 1/0\n"


def test_exit_code_resource_limit():
    # row r needs s(2^r); the table cap admits r = 22 and no further
    for r in ("23", "25"):
        code, out, err = invoke("row", r)
        assert code == 3 and out == "" and "resource limit" in err
    # a 19,000-digit seed makes each entry costly to hold and to print
    code, out, err = invoke("row", "14", "9" * 19000, "1")
    assert code == 3 and out == "" and "work cap" in err
    for dot in ((), ("--dot",)):
        code, out, err = invoke("graph", "--d", "100",
                                "--max-matrix-order", "10", *dot)
        assert code == 3 and out == "" and "resource limit" in err
    # the cap rejects before the pair graph or d's factors are built
    for d in ("100", str(10 ** 12), str(10 ** 30)):
        for argv in (("graph", "--d", d), ("dist", "--d", d, "--N", "5")):
            code, out, err = invoke(*argv, "--max-matrix-order", "10")
            assert code == 3 and out == "" and "resource limit" in err


def test_vertex_ceiling_binds_every_matrix_cap(monkeypatch):
    """No --max-matrix-order admits a pair graph of more than 2^18
    vertices: mod 20000 (288,000,000 vertices) exits 3 before any graph
    is built, while the largest graphs a cap of 2^15 admits still
    print."""
    code, out, err = invoke("graph", "--d", "168", "--dot",
                            "--max-matrix-order", str(1 << 15))
    assert (code, err) == (0, "") and out.count(" -> ") == 2 * 18432

    def unbuilt(d):
        raise AssertionError(f"the pair graph mod {d} was built")

    monkeypatch.setattr(sternseq.moddist, "graph", unbuilt)
    for argv in (("graph", "--d", "20000"), ("graph", "--d", "20000", "--dot"),
                 ("dist", "--d", "700", "--N", "5"), ("minpoly", "--d", "700"),
                 ("walks", "--d", "700", "--r", "1")):
        code, out, err = invoke(*argv, "--max-matrix-order", str(10 ** 12))
        assert code == 3 and out == "" and "cap is 262144" in err


def test_verify_all_suites_pass():
    """Every suite, not only the core one of the goldens."""
    code, out, err = invoke("verify", "--suite", "all")
    assert (code, err) == (0, "")
    assert "FAIL" not in out
    assert out.splitlines()[-1] == "passed\t29\tfailed\t0"


def test_dist_honours_a_wider_matrix_cap():
    argv = ("dist", "--d", "80", "--N", "100")
    code, out, err = invoke(*argv)
    assert code == 3 and out == "" and "resource limit" in err
    code, out, err = invoke(*argv, "--max-matrix-order", "10000")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()[1:81]]
    assert [int(c) for _, c, _, _ in rows] == residue_counts(100, 80)


# one command just past each cap; each must raise before it allocates
PAST_A_CAP = [
    ("row", "23", "0", "1"),
    ("brocot", "23"),
    ("sum", "--N", "4194305"),
    ("sum", "--N", "1048577", "--exact"),
    ("alpha", "--t", "1", "--N", "4194305"),
    ("delta3", "--N", "4194305", "--trace"),
    ("a3", "--limit", "16777217"),
    ("hyperbinary", "--d", "8388608", "--n", "8388608"),
    ("walks", "--d", "2", "--r", "65537"),
    ("walks", "--d", "9", "--r", "4000"),
    ("hyperbinary", "--d", "4194304", "--n", str(2 ** 40)),
    ("dist", "--d", "24", "--N", str(2 ** 16000 - 1)),
    ("minpoly", "--d", "200", "--max-matrix-order", "30000"),
    ("spectral", "--d", "200", "--max-matrix-order", "30000"),
    # caps of commands that write in blocks, checked before the first one
    ("row", "14", "9" * 19000, "1"),
    ("graph", "--d", "100", "--dot", "--max-matrix-order", "10"),
]


@pytest.mark.parametrize("argv", PAST_A_CAP)
def test_exit_code_past_each_cap(argv):
    for fmt in ("tsv", "json"):
        code, out, err = invoke(*argv, "--format", fmt)
        assert code == 3 and out == "" and "resource limit" in err


def test_caps_survive_optimize():
    """The caps are `if ... raise`, so python -O keeps them."""
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-O", "-m", "sternseq",
                           *PAST_A_CAP[0]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "resource limit" in proc.stderr


def test_option_surface():
    """The row and exact-sum caps are constants, not flags, dist has no
    count method to pick, and only the commands that build a pair graph
    take --max-matrix-order."""
    for argv in (("row", "3", "--max-row-bits", "10"),
                 ("sum", "--N", "8", "--max-exact-N", "4"),
                 ("stern", "5", "--max-matrix-order", "3"),
                 ("dist", "--d", "3", "--N", "5", "--method", "scan")):
        code, out, err = invoke(*argv)
        assert code == 1 and out == "" and "usage error" in err
    # the pair graph mod 3 has 8 vertices
    for argv in (("dist", "--d", "3", "--N", "5"), ("graph", "--d", "3"),
                 ("minpoly", "--d", "3"), ("spectral", "--d", "3"),
                 ("walks", "--d", "3", "--r", "2")):
        code, out, err = invoke(*argv, "--max-matrix-order", "7")
        assert code == 3 and out == "" and "resource limit" in err


@pytest.mark.parametrize("argv", [
    ("index", str(2 ** 16 + 1), "1"),
    ("minkowski", "1", str(2 ** 16 + 1)),
    ("rowsum", str(2 ** 16 + 1)),
    ("a3row", str(2 ** 16 + 1)),
    ("t3zero", str(2 ** 16 + 1)),
])
def test_exit_code_bit_cap(argv):
    code, out, err = invoke(*argv)
    assert code == 3 and out == "" and "bit cap" in err


def test_answers_past_4300_digits():
    code, out, err = invoke("a3row", "20000")
    assert (code, err) == (0, "")
    assert out == f"{sternseq.a3_row_count(20000)}\n"
    assert len(out) > 6000


def test_spectral_leaves_mpmath_unimported():
    """The command line and the certified spectrum run without mpmath,
    whose import would cost every process its start-up time."""
    src = ("import sys\n"
           "import sternseq.cli\n"
           "sternseq.moddist.spectral(7)\n"
           "print('mpmath' in sys.modules)\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_exit_code_non_convergence(monkeypatch):
    """Root seeds that never leave the circle they start on fail the
    inclusion certificate: exit 4."""
    monkeypatch.setattr(sternseq.moddist, "_SWEEPS", 0)
    with pytest.raises(sternseq.NonConvergenceError, match="degree"):
        sternseq.spectral(7)
    code, out, err = invoke("spectral", "--d", "7")
    assert code == 4 and out == "" and "numerical error" in err


def test_exit_code_double_root_at_two(monkeypatch):
    """A minimal polynomial with 2 as a double root is a failed exact
    claim: ValueError, exit 2."""
    monkeypatch.setattr(sternseq.moddist, "minimal_polynomial",
                        lambda d, max_order=None: [0, 4, -4, 1])
    with pytest.raises(ValueError, match="simple root"):
        sternseq.spectral(3)
    code, out, err = invoke("spectral", "--d", "3")
    assert code == 2 and out == "" and "domain error" in err


def test_verify_failure_exit_code(monkeypatch):
    import sternseq.checks as checks
    monkeypatch.setitem(checks.SUITES, "rigged",
                        lambda: [("always red", False, "")])
    code, out, _ = invoke("verify", "--suite", "rigged")
    assert code == 1
    assert "FAIL" in out


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0
    code, _, _ = invoke("dist", "--help")
    assert code == 0


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sternseq", "stern", "11"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_console_script_target():
    src = ("import sys; sys.argv = ['sternseq', 'pair', '4']; "
           "from sternseq.cli import main; main()")
    proc = subprocess.run([sys.executable, "-c", src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "1\t3\n"


def test_cli_import_leaves_dataclasses_and_checks_unimported():
    """Importing the command line adds neither dataclasses nor inspect
    to a bare interpreter, and the verify suites load only for verify:
    each would cost every process its start-up time."""
    src = ("import sys\n"
           "names = ('dataclasses', 'inspect', 'sternseq.checks')\n"
           "before = {m for m in names if m in sys.modules}\n"
           "import sternseq.cli\n"
           "print(sorted(m for m in names if m in sys.modules) == "
           "sorted(before))\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
