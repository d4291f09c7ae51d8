import json
import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from fusionkit.cli import main
from fusionkit.fusion import FusionTable


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestFuse:
    def test_adjoint_squared_text(self, run):
        code, out, _ = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "[2,1]", "--rhs", "[2,1]"
        )
        assert code == 0
        assert out.strip() == "1*[] + 2*[2,1] + 1*[3] + 1*[3,3]"

    def test_identity_on_a1(self, run):
        code, out, _ = run(
            "fuse", "--N", "2", "--k", "1", "--lhs", "[0]", "--rhs", "[1]"
        )
        assert code == 0
        assert out.strip() == "1*[1]"

    def test_weight_operands(self, run):
        code, out, _ = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "{1,1}", "--rhs", "{1,1}"
        )
        assert code == 0
        assert out.strip() == "1*[] + 2*[2,1] + 1*[3] + 1*[3,3]"

    def test_method_all_agrees(self, run):
        # (12,2): a tall case, with factors of 6 and 11 rows
        for N, k, lhs, rhs in (
            ("3", "3", "[2,1]", "[2,1]"),
            ("12", "2", "[2,2,2,2,2,1]", "[2,2,2,2,2,2,2,2,1,1,1]"),
        ):
            code, out, _ = run(
                "fuse", "--N", N, "--k", k, "--lhs", lhs, "--rhs", rhs,
                "--method", "all",
            )
            assert code == 0, N
            lines = out.strip().splitlines()
            assert lines[-1] == "AGREE", N
            assert len({line.split(": ", 1)[1] for line in lines[:-1]}) == 1, N

    def test_json_format(self, run):
        code, out, _ = run(
            "fuse",
            "--N", "3", "--k", "3",
            "--lhs", "[2,1]", "--rhs", "[2,1]",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "fusionkit/expansion/v1"
        assert doc["kind"] == "partition"
        assert {"label": [2, 1], "mult": 2} in doc["terms"]

    def test_parse_error_names_token(self, run):
        code, out, err = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "bogus", "--rhs", "[1]"
        )
        assert code == 2
        assert "bogus" in err

    def test_bad_integer_reported(self, run):
        code, _, err = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "[2,x]", "--rhs", "[1]"
        )
        assert code == 2
        assert "'x'" in err

    def test_negative_weight_operand_exits_2(self, run):
        code, out, err = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "{1,-1}", "--rhs", "[1]"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_operand_above_level(self, run):
        code, _, err = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "[4]", "--rhs", "[1]"
        )
        assert code == 2

    def test_full_column_operand_reduces(self, run):
        code, out, _ = run(
            "fuse", "--N", "3", "--k", "3", "--lhs", "[3,2,1]", "--rhs", "[]"
        )
        assert code == 0
        assert out.strip() == "1*[2,1]"

    def test_unknown_subcommand_exits_2(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_output_deterministic(self, run):
        first = run(
            "fuse", "--N", "4", "--k", "3", "--lhs", "[2,1]", "--rhs", "[2,2]"
        )
        second = run(
            "fuse", "--N", "4", "--k", "3", "--lhs", "[2,1]", "--rhs", "[2,2]"
        )
        assert first == second

    def test_method_all_never_disagrees_on_sweep(self, run):
        from fusionkit.fusion import basis
        from fusionkit.partitions import fusion_context

        for N, k in [(2, 2), (3, 2), (3, 3)]:
            labels = [
                "[" + ",".join(map(str, p)) + "]"
                for p in basis(fusion_context(N, k))
            ]
            for lhs in labels:
                for rhs in labels:
                    code, out, _ = run(
                        "fuse",
                        "--N", str(N), "--k", str(k),
                        "--lhs", lhs, "--rhs", rhs,
                        "--method", "all",
                    )
                    assert code == 0
                    assert out.strip().endswith("AGREE")

    @pytest.mark.parametrize("method", ["jacobi-trudi", "orbit", "kac-walton"])
    def test_every_route_answers_deep_context(self, run, method):
        # 1,100 rows: deeper than Python's recursion limit
        code, out, err = run(
            "fuse", "--N", "1100", "--k", "1", "--lhs", "[1]", "--rhs", "[1]",
            "--method", method,
        )
        assert (code, out, err) == (0, "1*[1,1]\n", "")

    def test_method_all_agrees_at_deep_context(self, run):
        code, out, err = run(
            "fuse", "--N", "1100", "--k", "1", "--lhs", "[1]", "--rhs", "[1]",
            "--method", "all",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "AGREE"

    def test_method_all_agrees_on_deep_column(self, run):
        # a 1,099-row column times a box is the identity at level 1; the
        # Kac-Walton walk branches once per row of the column
        lhs = "[" + ",".join(["1"] * 1099) + "]"
        code, out, err = run(
            "fuse", "--N", "1100", "--k", "1", "--lhs", lhs, "--rhs", "[1]",
            "--method", "all",
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "jacobi-trudi: 1*[]", "orbit: 1*[]", "kac-walton: 1*[]", "AGREE"
        ]

    def test_negative_multiplicity_exits_1(self, run, monkeypatch):
        from fusionkit import weyl

        def fail(*args):
            raise ArithmeticError("negative multiplicity -1 at (3, 1, 0)")

        monkeypatch.setattr(weyl, "_alternating_sum", fail)
        code, out, err = run(
            "fuse", "--N", "3", "--k", "2", "--lhs", "[1]", "--rhs", "[1]",
            "--method", "kac-walton",
        )
        assert code == 1
        assert out == ""
        assert err == "error: negative multiplicity -1 at (3, 1, 0)\n"


class TestTensor:
    def test_methods_agree(self, run):
        for N, lhs, rhs, term in (
            ("3", "[2,1]", "[2,1]", "2*[2,1]"),
            ("4", "[3,2,1]", "[2,2]", "2*[3,2,1]"),
        ):
            code1, out1, _ = run(
                "tensor", "--N", N, "--lhs", lhs, "--rhs", rhs, "--method", "pieri"
            )
            code2, out2, _ = run(
                "tensor", "--N", N, "--lhs", lhs, "--rhs", rhs,
                "--method", "racah-speiser",
            )
            assert code1 == code2 == 0, N
            assert out1 == out2, N
            assert term in out1, N

    def test_deep_rank(self, run):
        for method in ("pieri", "racah-speiser"):
            code, out, _ = run(
                "tensor", "--N", "1100", "--lhs", "[1]", "--rhs", "[1]",
                "--method", method,
            )
            assert (code, out) == (0, "1*[1,1] + 1*[2]\n"), method


class TestOrbitProduct:
    def test_raw_includes_multiplicity_three(self, run):
        code, out, _ = run(
            "orbit-product",
            "--N", "3", "--k", "3",
            "--a", "(2,1,0)", "--b", "(2,1,0)",
        )
        assert code == 0
        assert "3*(2,1,0)" in out

    def test_fixed_has_multiplicity_two(self, run):
        code, out, _ = run(
            "orbit-product",
            "--N", "3", "--k", "3",
            "--a", "(2,1,0)", "--b", "(2,1,0)",
            "--fixed",
        )
        assert code == 0
        assert "2*(2,1,0)" in out

    def test_fixed_at_deep_rank(self, run):
        code, out, _ = run(
            "orbit-product", "--N", "1100", "--k", "1", "--a", "(1)", "--b", "(1)",
            "--fixed",
        )
        assert (code, out) == (0, "1*(2)\n")

    def test_wrong_length(self, run):
        code, _, err = run(
            "orbit-product", "--N", "3", "--k", "3", "--a", "(1,0)", "--b", "(0,0,0)"
        )
        assert code == 2


class TestKostka:
    def test_staircase_strip_answers(self, run):
        # one strip of 30 boxes off the 30-row staircase, among 2^30 strips
        outer = "[" + ",".join(map(str, range(30, 0, -1))) + "]"
        inner = "[" + ",".join(map(str, range(29, -1, -1))) + "]"
        start = time.perf_counter()
        code, out, err = run(
            "kostka", "--N", "30", "--k", "100",
            "--outer", outer, "--inner", inner, "--content", "[30]",
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "1\n", "")

    def test_values(self, run):
        for k, expected in (("3", "1"), ("4", "3")):
            code, out, _ = run(
                "kostka",
                "--N", "4", "--k", k,
                "--outer", "[4,2,2,1]",
                "--inner", "[3,2,1]",
                "--content", "[2,1]",
            )
            assert code == 0
            assert out.strip() == expected

    def test_size_mismatch(self, run):
        code, _, err = run(
            "kostka",
            "--N", "4", "--k", "3",
            "--outer", "[2,1]",
            "--inner", "[]",
            "--content", "[1]",
        )
        assert code == 2

    def test_negative_content_exits_2(self, run):
        code, _, err = run(
            "kostka",
            "--N", "3", "--k", "4",
            "--outer", "[3]",
            "--inner", "[]",
            "--content", "[-1,4]",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_empty_outer_with_inner_cell_exits_2(self, run):
        code, out, err = run(
            "kostka",
            "--N", "3", "--k", "2",
            "--outer", "[]",
            "--inner", "[1]",
            "--content", "[]",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "not contained" in err

    def test_1200_cells_answer(self, run):
        # one horizontal strip per value: the depth does not grow with the cells
        code, out, err = run(
            "kostka",
            "--N", "3", "--k", "5",
            "--outer", "[600,600]",
            "--inner", "[]",
            "--content", "[600,600]",
        )
        assert (code, out, err) == (0, "1\n", "")


class TestWeights:
    def test_adjoint(self, run):
        code, out, _ = run("weights", "--N", "3", "--lambda", "{1,1}")
        assert code == 0
        assert "2*{0,0}" in out

    def test_json(self, run):
        code, out, _ = run(
            "weights", "--N", "3", "--lambda", "{1,1}", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "weight"
        assert sum(t["mult"] for t in doc["terms"]) == 8

    def test_negative_coefficient_exits_2(self, run):
        code, out, err = run("weights", "--N", "3", "--lambda", "{1,-1}")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_forty_boxes(self, run):
        code, out, _ = run(
            "weights", "--N", "3", "--lambda", "{0,20}", "--format", "json"
        )
        assert code == 0
        assert sum(t["mult"] for t in json.loads(out)["terms"]) == 231

    def test_deep_column_answers(self, run):
        # a 1,099-row column: 1,100 weights, each of multiplicity 1
        code, out, err = run(
            "weights", "--N", "1100", "--lambda", "{" + "0," * 1098 + "1}",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        terms = json.loads(out)["terms"]
        assert len(terms) == 1100
        assert {t["mult"] for t in terms} == {1}


def _match_crc32(data):
    """Give an edited table document the crc32 of its edited content."""
    body = [data["N"], data["k"], data["basis"], data["constants"]]
    text = json.dumps(body, separators=(",", ":"))
    data["crc32"] = zlib.crc32(text.encode())


class TestTableCache:
    def test_round_trip(self, run, tmp_path):
        # the hit prints the miss's stdout, with and without the axiom lines
        for i, extra in enumerate(((), ("--verify-axioms",))):
            cache = str(tmp_path / str(i))
            args = ("table", "--N", "3", "--k", "2", "--cache-dir", cache,
                    "--format", "json", *extra)
            code, miss, _ = run(*args)
            assert code == 0
            table = json.loads(miss.splitlines()[0])
            assert table["schema"] == "fusionkit/table/v2"
            path = os.path.join(cache, "table_N3_k2.json")
            assert os.path.exists(path)
            code, hit, err = run(*args)
            assert code == 0
            assert hit == miss
            assert err == ""

    def test_corrupt_cache_recomputes_with_warning(self, run, tmp_path):
        cache = str(tmp_path)
        path = os.path.join(cache, "table_N3_k2.json")
        os.makedirs(cache, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{not json")
        code, out, err = run("table", "--N", "3", "--k", "2", "--cache-dir", cache)
        assert code == 0
        assert "warning" in err

    def test_stale_schema_recomputes_with_warning(self, run, tmp_path):
        cache = str(tmp_path)
        path = os.path.join(cache, "table_N3_k2.json")
        os.makedirs(cache, exist_ok=True)
        for schema in ("fusionkit/table/v0", "fusionkit/table/v1"):
            with open(path, "w") as fh:
                json.dump({"schema": schema, "N": 3, "k": 2}, fh)
            code, out, err = run("table", "--N", "3", "--k", "2", "--cache-dir", cache)
            assert code == 0
            assert "warning" in err and schema in err
            with open(path) as fh:
                assert json.load(fh)["schema"] == "fusionkit/table/v2"

    def _edited_cache(self, run, tmp_path, edit):
        cache = str(tmp_path)
        code, out, _ = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
        )
        assert code == 0
        good = json.loads(out)
        path = os.path.join(cache, "table_N3_k2.json")
        with open(path) as fh:
            data = json.load(fh)
        edit(data)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return cache, path, good

    def test_out_of_range_index_recomputes_with_warning(self, run, tmp_path):
        def edit(data):
            assert data["basis"][0] == [] and data["constants"][0] == [[0, 1]]
            data["constants"][0] = [[-1, 1]]

        cache, path, good = self._edited_cache(run, tmp_path, edit)
        code, out, err = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
        )
        assert code == 0
        assert "warning" in err and "index -1" in err
        assert json.loads(out) == good
        with open(path) as fh:
            assert json.load(fh) == good

    def test_bad_multiplicities_recompute_with_warning(self, run, tmp_path):
        for bad in (0, -2, 1.0, True, "1"):
            def edit(data):
                data["constants"][0] = [[0, bad]]

            cache, path, good = self._edited_cache(run, tmp_path, edit)
            code, out, err = run(
                "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
            )
            assert code == 0
            assert "warning" in err and "multiplicity" in err, bad
            assert json.loads(out) == good

    def test_edited_constant_recomputes_with_warning(self, run, tmp_path):
        def edit(data):
            data["constants"][0] = [[1, 5]]  # [] * [] = 5 * [1]

        cache, path, good = self._edited_cache(run, tmp_path, edit)
        code, out, err = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
        )
        assert code == 0
        assert "warning" in err and "crc32" in err
        assert json.loads(out)["constants"][0] == [[0, 1]]
        assert json.loads(out) == good

    def test_permuted_basis_recomputes_with_warning(self, run, tmp_path):
        def edit(data):
            data["basis"][1], data["basis"][2] = data["basis"][2], data["basis"][1]
            _match_crc32(data)  # so that the basis check is what rejects it

        cache, path, good = self._edited_cache(run, tmp_path, edit)
        code, out, err = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--verify-axioms"
        )
        assert code == 0
        assert "warning" in err and "canonical basis" in err
        assert out.count("PASS") == 6
        with open(path) as fh:
            assert json.load(fh) == good

    def test_non_integer_context_recomputes_with_warning(self, run, tmp_path):
        for bad in (float("inf"), 3.0, "3", True):
            def edit(data):
                data["N"] = bad
                _match_crc32(data)  # so that the type check is what rejects it

            cache, path, good = self._edited_cache(run, tmp_path, edit)
            code, out, err = run(
                "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
            )
            assert code == 0, bad
            assert "warning" in err and "bad context" in err, bad
            assert "Traceback" not in err
            assert out == json.dumps(good) + "\n"

    def _clean_miss(self, run, tmp_path):
        args = ("table", "--N", "3", "--k", "2", "--format", "json")
        code, out, err = run(*args, "--cache-dir", str(tmp_path / "clean"))
        assert code == 0 and err == ""
        return args, out

    def test_non_object_cache_recomputes_with_warning(self, run, tmp_path):
        args, miss = self._clean_miss(run, tmp_path)
        cache = tmp_path / "bad"
        cache.mkdir()
        for doc, why in (
            ("[1,2]", "not an object"),
            ('"x"', "not an object"),
            ("[" * 200_000, "maximum recursion depth"),
        ):
            (cache / "table_N3_k2.json").write_text(doc)
            code, out, err = run(*args, "--cache-dir", str(cache))
            assert code == 0
            assert "warning" in err and why in err
            assert "Traceback" not in err
            assert out == miss

    def test_directory_at_cache_path_recomputes_with_warning(self, run, tmp_path):
        args, miss = self._clean_miss(run, tmp_path)
        cache = tmp_path / "bad"
        (cache / "table_N3_k2.json").mkdir(parents=True)
        code, out, err = run(*args, "--cache-dir", str(cache))
        assert code == 0
        assert "warning" in err
        assert out == miss

    def test_file_as_cache_dir_warns_on_store(self, run, tmp_path):
        args, miss = self._clean_miss(run, tmp_path)
        cache = tmp_path / "plain"
        cache.write_text("not a directory")
        code, out, err = run(*args, "--cache-dir", str(cache))
        assert code == 0
        assert "warning" in err
        assert out == miss
        assert cache.read_text() == "not a directory"

    def test_verify_axioms_flag(self, run):
        code, out, _ = run(
            "table",
            "--N", "3", "--k", "2",
            "--verify-axioms",
        )
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_out_flag_writes_copy(self, run, tmp_path):
        target = os.path.join(str(tmp_path), "copy.json")
        code, _, _ = run(
            "table",
            "--N", "2", "--k", "3",
            "--out", target,
        )
        assert code == 0
        with open(target) as fh:
            assert json.load(fh)["schema"] == "fusionkit/table/v2"

    def test_miss_serializes_once_for_cache_out_and_stdout(
        self, run, tmp_path, monkeypatch
    ):
        calls = []
        to_json_dict = FusionTable.to_json_dict

        def counted(self):
            calls.append(None)
            return to_json_dict(self)

        monkeypatch.setattr(FusionTable, "to_json_dict", counted)
        target = tmp_path / "copy.json"
        code, out, _ = run(
            "table",
            "--N", "3", "--k", "3",
            "--cache-dir", str(tmp_path),
            "--out", str(target),
            "--format", "json",
        )
        assert code == 0
        assert len(calls) == 1
        cached = (tmp_path / "table_N3_k3.json").read_text()
        assert target.read_text() == cached
        assert out == cached + "\n"
        # a hit printed as text serializes nothing
        code, out, _ = run("table", "--N", "3", "--k", "3", "--cache-dir", str(tmp_path))
        assert code == 0 and out == "fusion table N=3 k=3: 10 basis elements\n"
        assert len(calls) == 1
        # without --cache-dir, a text run serializes nothing and writes no file
        home = tmp_path / "home"
        for name, path in (
            ("HOME", home),
            ("XDG_CACHE_HOME", home / "xdg"),
            ("FUSIONKIT_CACHE", home / "fk"),
        ):
            monkeypatch.setenv(name, str(path))
        code, out, _ = run("table", "--N", "3", "--k", "3", "--verify-axioms")
        assert code == 0 and out.count("PASS") == 6
        assert len(calls) == 1
        assert not home.exists()

    def test_out_into_missing_directory_exits_2(self, run, tmp_path):
        target = tmp_path / "missing" / "copy.json"
        for cache in ((), ("--cache-dir", str(tmp_path / "cache"))):
            code, out, err = run(
                "table",
                "--N", "2", "--k", "2",
                "--out", str(target),
                "--verify-axioms",
                *cache,
            )
            assert code == 2, cache
            assert out == ""
            assert err.startswith(f"error: cannot write --out {target}: ")
            assert "Traceback" not in err
            assert not target.exists()


class TestDuality:
    def test_text_report(self, run):
        code, out, _ = run("duality", "--N", "2", "--k", "3")
        assert code == 0
        assert "isomorphic" in out

    def test_json_report(self, run):
        code, out, _ = run("duality", "--N", "3", "--k", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "fusionkit/duality/v1"
        assert doc["isomorphic"] is True
        assert doc["N"] == 3 and doc["k"] == 3

    def test_level_one_names_the_dual_rank_and_exits_2(self, run):
        code, out, err = run("duality", "--N", "5", "--k", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "k >= 2" in err and "dual rank parameter is k" in err
        assert "got k = 1" in err
        assert "N must be" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fuse", "--N", "3", "--k", "3", "--lhs", "[2,1]", "--rhs", "[2,1]"),
        ("table", "--N", "4", "--k", "6", "--format", "json"),
    ],
    ids=["fuse", "table"],
)
def test_closed_stdout_exits_2_without_traceback(argv):
    # the installed script runs entry(); a reader that stops early, as
    # `| head -c 20` does, leaves stdout a pipe with no read end
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fusionkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "")
