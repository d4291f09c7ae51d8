import json
import os
import zlib

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
        code, out, _ = run(
            "fuse",
            "--N", "3", "--k", "3",
            "--lhs", "[2,1]", "--rhs", "[2,1]",
            "--method", "all",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "AGREE"
        assert len({line.split(": ", 1)[1] for line in lines[:-1]}) == 1

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
        code1, out1, _ = run(
            "tensor", "--N", "3", "--lhs", "[2,1]", "--rhs", "[2,1]",
            "--method", "pieri",
        )
        code2, out2, _ = run(
            "tensor", "--N", "3", "--lhs", "[2,1]", "--rhs", "[2,1]",
            "--method", "racah-speiser",
        )
        assert code1 == code2 == 0
        assert out1 == out2
        assert "2*[2,1]" in out1


class TestOrbitProduct:
    def test_raw_includes_multiplicity_three(self, run):
        code, out, _ = run(
            "orbit-product",
            "--N", "3", "--k", "3",
            "--a", "(2,1,0)", "--b", "(2,1,0)",
            "--raw",
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

    def test_wrong_length(self, run):
        code, _, err = run(
            "orbit-product", "--N", "3", "--k", "3", "--a", "(1,0)", "--b", "(0,0,0)"
        )
        assert code == 2


class TestKostka:
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

    def test_too_deep_recursion_exits_1_without_traceback(self, run):
        code, out, err = run(
            "kostka",
            "--N", "3", "--k", "5",
            "--outer", "[600,600]",
            "--inner", "[]",
            "--content", "[600,600]",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "Traceback" not in err


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


class TestTableCache:
    def test_round_trip(self, run, tmp_path):
        cache = str(tmp_path)
        code, out, _ = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
        )
        assert code == 0
        first = json.loads(out)
        path = os.path.join(cache, "table_N3_k2.json")
        assert os.path.exists(path)
        code, out, err = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == first
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
            # a matching checksum, so that the basis check is what rejects it
            body = [data["N"], data["k"], data["basis"], data["constants"]]
            text = json.dumps(body, separators=(",", ":"))
            data["crc32"] = zlib.crc32(text.encode())

        cache, path, good = self._edited_cache(run, tmp_path, edit)
        code, out, err = run(
            "table", "--N", "3", "--k", "2", "--cache-dir", cache, "--verify-axioms"
        )
        assert code == 0
        assert "warning" in err and "canonical basis" in err
        assert out.count("PASS") == 6
        with open(path) as fh:
            assert json.load(fh) == good

    def _clean_miss(self, run, tmp_path):
        args = ("table", "--N", "3", "--k", "2", "--format", "json")
        code, out, err = run(*args, "--cache-dir", str(tmp_path / "clean"))
        assert code == 0 and err == ""
        return args, out

    def test_non_object_cache_recomputes_with_warning(self, run, tmp_path):
        args, miss = self._clean_miss(run, tmp_path)
        cache = tmp_path / "bad"
        cache.mkdir()
        for doc in ("[1,2]", '"x"'):
            (cache / "table_N3_k2.json").write_text(doc)
            code, out, err = run(*args, "--cache-dir", str(cache))
            assert code == 0
            assert "warning" in err and "not an object" in err
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

    def test_env_var_cache_dir(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("FUSIONKIT_CACHE", str(tmp_path))
        code, _, _ = run("table", "--N", "2", "--k", "2")
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "table_N2_k2.json"))

    def test_verify_axioms_flag(self, run, tmp_path):
        code, out, _ = run(
            "table",
            "--N", "3", "--k", "2",
            "--cache-dir", str(tmp_path),
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
            "--cache-dir", str(tmp_path),
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
        assert code == 0 and out.startswith("fusion table N=3 k=3")
        assert len(calls) == 1

    def test_out_into_missing_directory_exits_2(self, run, tmp_path):
        target = tmp_path / "missing" / "copy.json"
        code, out, err = run(
            "table",
            "--N", "2", "--k", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(target),
            "--verify-axioms",
        )
        assert code == 2
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
