"""Command-line interface: formats, round-trips, exit codes."""

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from conftest import CORPUS_MATRICES, DIAMOND, R10, graphic
import zonoq
from zonoq.cli import run
from zonoq.exact import laurent_from_json, polytq_from_json
from zonoq import graded_count, series

HEXAGON_DOC = {"name": "hexagon", "d": 2, "n": 3,
               "matrix": [[1, 0, 1], [0, 1, 1]]}


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(HEXAGON_DOC))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestQcount:
    def test_hexagon_m1(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["qcount", hexagon_file, "--m", "1"])
        assert code == 0
        assert doc["qcount"] == [[0, "1"], [1, "2"], [2, "3"], [3, "1"]]
        assert doc["m"] == 1 and doc["interior"] is False

    def test_interior(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["qcount", hexagon_file, "--interior"])
        assert code == 0
        assert doc["qcount"] == [[0, "1"]]

    def test_roundtrip(self, hexagon_file, hexagon, capsys):
        _, doc = run_json(capsys, ["qcount", hexagon_file, "--m", "2"])
        assert laurent_from_json(doc["qcount"]) == graded_count(hexagon, 2).value


class TestTutte:
    def test_hexagon(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["tutte", hexagon_file])
        assert code == 0
        assert doc["tutte"] == [[0, 1, "1"], [1, 0, "1"], [2, 0, "1"]]


class TestEhrpoly:
    def test_hexagon(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["ehrpoly", hexagon_file])
        assert code == 0
        assert doc["tpower"] == [[0, 0, "1"], [1, 1, "3"], [2, 2, "3"],
                                 [3, 1, "-1"], [3, 3, "1"]]
        assert doc["qbinom_basis"][0] == [[0, "1"]]
        assert doc["qbinom_basis"][1] == [[1, "2"], [2, "3"], [3, "1"]]


class TestSeries:
    def test_numerator_roundtrip(self, hexagon_file, hexagon, capsys):
        code, doc = run_json(capsys, ["series", hexagon_file])
        assert code == 0 and doc["order"] == 3
        assert polytq_from_json(doc["numerator"]) == series(hexagon).numerator

    def test_interior(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["series", hexagon_file, "--interior"])
        assert code == 0
        assert all(te >= 1 for te, _, _ in doc["numerator"])


class TestPresentation:
    def test_hexagon(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["presentation", hexagon_file])
        assert code == 0
        assert doc["degree1_dim"] == 7
        assert doc["linear_generators"] == ["z_{1} + z_{2} - z_{3}"]
        assert "binomial" in doc["note"]


class TestGorenstein:
    def test_hexagon(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["gorenstein", hexagon_file])
        assert code == 0
        assert doc["verdict"] == "circuit-components"
        assert doc["palindrome"] is True

    def test_not_gorenstein(self, tmp_path, capsys):
        path = tmp_path / "u13.json"
        path.write_text(json.dumps({"matrix": [[1, 1, 1]]}))
        code, doc = run_json(capsys, ["gorenstein", str(path)])
        assert code == 0
        assert doc["verdict"] == "not-gorenstein"
        assert doc["palindrome"] is None
        assert doc["witness"] == [1, 2, 3]

    @pytest.mark.parametrize("matrix", [DIAMOND, [[1, 2, 0], [0, 0, 1]]])
    def test_not_unimodular_exits_2(self, tmp_path, capsys, matrix):
        # the classification is a theorem about unimodular zonotopes only
        path = tmp_path / "nonunimodular.json"
        path.write_text(json.dumps({"matrix": matrix}))
        code = run(["gorenstein", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unimodular" in captured.err


class TestVerify:
    def test_hexagon_passes(self, hexagon_file, capsys):
        code, doc = run_json(capsys, ["verify", hexagon_file, "--m-max", "2"])
        assert code == 0
        assert doc["status"] == "pass" and doc["witnesses"] == []
        assert all(c["status"] in ("pass", "skipped") for c in doc["checks"])
        names = {c["check"] for c in doc["checks"]}
        assert names == {"lattice-vs-tutte", "zonalg-vs-graded",
                         "series-vs-counts", "reciprocity", "degree1-dim",
                         "thickening"}

    @pytest.mark.parametrize("name", ["R10", "cube10"])
    def test_r10_passes(self, tmp_path, capsys, name):
        # the 10-cube's box has at most 252 monomials in any degree, though
        # its full ring has C(19, 10) = 92378 monomials in degree 10
        matrix = R10 if name == "R10" else [[int(i == j) for j in range(10)]
                                            for i in range(10)]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "matrix": matrix}))
        code, doc = run_json(capsys, ["verify", str(path), "--m-max", "1"])
        assert code == 0
        assert doc["status"] == "pass" and doc["witnesses"] == []
        assert {"check": "zonalg-vs-graded", "detail": "m=1", "status": "pass"} \
            in doc["checks"]

    def test_monomial_guard_skips_zonalg(self, hexagon_file, capsys, monkeypatch):
        monkeypatch.setattr(zonoq.zonalg, "MONOMIAL_GUARD", 1)
        code, doc = run_json(capsys, ["verify", hexagon_file, "--m-max", "2"])
        assert code == 0
        assert doc["status"] == "pass" and doc["witnesses"] == []
        statuses = [c["status"] for c in doc["checks"] if c["check"] == "zonalg-vs-graded"]
        assert statuses == ["skipped", "skipped"]

    def test_k6_skips_degree1_dim(self, tmp_path, capsys):
        # n = 15 is past VARIABLE_GUARD=14: the presentation check is skipped
        path = tmp_path / "k6.json"
        K6 = graphic(6, list(itertools.combinations(range(6), 2)))
        path.write_text(json.dumps({"name": "K6", "matrix": K6}))
        code, doc = run_json(capsys, ["verify", str(path), "--m-max", "1"])
        assert code == 0
        assert doc["status"] == "pass" and doc["witnesses"] == []
        assert {"check": "degree1-dim", "detail": "", "status": "skipped"} \
            in doc["checks"]

    def test_diamond_exits_2(self, tmp_path, capsys):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps({"matrix": DIAMOND}))
        code = run(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unimodular" in captured.err

    def test_forced_mismatch_exits_1(self, hexagon_file, capsys, monkeypatch):
        import zonoq.cli as cli
        monkeypatch.setattr(cli, "tutte_thickened", lambda T, d, m: T)
        code, doc = run_json(capsys, ["verify", hexagon_file, "--m-max", "2"])
        assert code == 1
        assert doc["status"] == "fail"
        assert any(w.startswith("thickening") for w in doc["witnesses"])

    @pytest.mark.parametrize("m_max", ["0", "-1"])
    def test_m_max_below_one_exits_2(self, hexagon_file, capsys, m_max):
        code = run(["verify", hexagon_file, "--m-max", m_max])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--m-max" in captured.err and m_max in captured.err


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert run(["tutte", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["tutte", str(path)]) == 2

    def test_rank_deficient(self, tmp_path, capsys):
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps({"matrix": [[1, 1], [1, 1]]}))
        assert run(["tutte", str(path)]) == 2

    def test_dimension_mismatch(self, tmp_path, capsys):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({"d": 3, "matrix": [[1]]}))
        assert run(["qcount", str(path)]) == 2

    @pytest.mark.parametrize("key,value", [("d", "2"), ("n", 3.0), ("d", True)])
    def test_non_integer_dimension(self, tmp_path, capsys, key, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({key: value, "matrix": [[1, 0, 1], [0, 1, 1]]}))
        assert run(["tutte", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' must be an integer" in err and repr(value) in err

    @pytest.mark.parametrize("value", [["x"], 7, None])
    def test_non_string_name(self, tmp_path, capsys, value):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"name": value, "matrix": [[1, 0, 1], [0, 1, 1]]}))
        assert run(["tutte", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'name' must be a string, got {value!r}" in captured.err

    def test_guard_named_in_message(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"matrix": [[1] * 17]}))
        assert run(["tutte", str(path)]) == 2
        assert "guard" in capsys.readouterr().err

    def test_unknown_subcommand(self, hexagon_file, capsys):
        assert run(["frobnicate", hexagon_file]) == 2

    def test_decimal_string_entries(self, tmp_path, capsys):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
        code, doc = run_json(capsys, ["tutte", str(path)])
        assert code == 0
        assert doc["tutte"] == [[2, 0, "1"]]

    def test_float_entries_rejected(self, tmp_path, capsys):
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({"matrix": [[1.5, 0.0], [0.0, 1.0]]}))
        assert run(["tutte", str(path)]) == 2
        assert "integer" in capsys.readouterr().err


class TestByteIdentity:
    """The closed-formula commands print exactly what they printed before the
    q-integer kernel rewrite: one SHA-256 over the concatenated stdout of
    every command on the test corpus and R10.  A second SHA-256 pins the
    exit codes and stdout of the oracle-side commands on the same inputs."""

    ARGVS = ([["qcount", "--m", str(m)] + flag for m in (1, 2, 3)
              for flag in ([], ["--interior"])]
             + [["ehrpoly"], ["series"], ["series", "--interior"]])
    DIGEST = "fbbb1d526cbbb9895a4243a7a2193ae7fb1d52cf8c873f2154d82df009bf4b93"

    def test_stdout_digest(self, tmp_path, capsys):
        digest = hashlib.sha256()
        for name, matrix in [*CORPUS_MATRICES.items(), ("R10", R10)]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, "matrix": matrix}))
            for argv in self.ARGVS:
                assert run([argv[0], str(path), *argv[1:]]) == 0, (name, argv)
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.DIGEST

    # recorded while the zonotopal oracle still eliminated over a thickened
    # copy of M: reading M at multiplicity m must not move a byte
    VERIFY_ARGVS = (["verify", "--m-max", "2"], ["tutte"], ["presentation"],
                    ["gorenstein"])
    VERIFY_DIGEST = "97817b55bdaff4e96d700f196d746fea88c7289a68344ffb3da404f80a6d5daf"

    def test_verify_side_digest(self, tmp_path, capsys):
        digest = hashlib.sha256()
        for name, matrix in [*CORPUS_MATRICES.items(), ("R10", R10)]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, "matrix": matrix}))
            for argv in self.VERIFY_ARGVS:
                code = run([argv[0], str(path), *argv[1:]])
                digest.update(f"{code}\n".encode())
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.VERIFY_DIGEST


class TestParserReuse:
    """The parser is built once per process; a sequence of in-process runs,
    errors among them, prints what a fresh process prints for each."""

    def test_runs_match_fresh_processes(self, hexagon_file, capsys):
        argvs = [["tutte", hexagon_file],
                 ["qcount", hexagon_file, "--m", "2"],
                 ["frobnicate", hexagon_file],
                 ["qcount", hexagon_file, "--m", "two"],
                 ["verify", hexagon_file, "--m-max", "1"],
                 ["verify", hexagon_file, "--m-max", "0"],
                 ["series", hexagon_file, "--interior"],
                 ["qcount", hexagon_file]]
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(zonoq.__file__)))
        codes = []
        for argv in argvs:
            code = run(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "zonoq.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [0, 0, 2, 2, 0, 2, 0, 0]
