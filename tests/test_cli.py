import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from bhfi import cli
from bhfi.cli import main
from bhfi.errors import ParseError
from bhfi.files import dump_structure, load_structure, structure_from_json
from bhfi.standard import BUILTIN_NAMES, builtin_structure
from bhfi.strands import split_pmc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHfihat:
    def test_builtin_pair(self, capsys):
        code, out, _ = run(capsys, "hfihat", "--builtin", "cfd0",
                           "--builtin", "cfd0")
        assert code == 0
        data = json.loads(out)
        assert data["hf_dim"] == 2
        assert data["hfi_dim"] == 4
        assert data["iota"] == [[1, 0], [0, 1]]

    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "hfihat", "--builtin", "cfd0",
                         "--builtin", "cfd0")
        _, out2, _ = run(capsys, "hfihat", "--builtin", "cfd0",
                         "--builtin", "cfd0")
        assert out1 == out2

    def test_file_inputs(self, capsys, tmp_path):
        path = tmp_path / "cfd0.json"
        dump_structure(builtin_structure("cfd0"), path)
        code, out, _ = run(capsys, "hfhat", str(path), str(path))
        assert code == 0
        assert json.loads(out) == {"hf_dim": 2}

    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "hfhat", "--builtin", "cfd0",
                           "--builtin", "cfd0", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)


class TestVerify:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "az_k1")
        assert code == 0
        data = json.loads(out)
        assert data["az_k1"]["violations"] == 0
        assert data["az_k1"]["generators"] == 8

    def test_violations_exit_code(self, capsys, tmp_path):
        payload = {
            "kind": "D",
            "circle": {"k": 1, "matching": [[1, 3], [2, 4]]},
            "generators": [{"label": "n", "idem": [1]}],
            "ops": [{"src": "n", "inputs": [],
                     "out": [{"left_idem": [1], "moving": [[1, 2]],
                              "horizontal": []}],
                     "dst": "n"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "relations"

    def test_no_inputs_refused(self, capsys):
        # verifying nothing once printed {} and exited 0
        code, out, err = run(capsys, "verify")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "parse",
            "detail": "verify: expected at least 1 input (files or "
                      "--builtin), got 0"}

    @pytest.mark.parametrize("argv", [
        ["--builtin", "ddid_k1", "--builtin", "ddid_k1"],
        ["--builtin", "ddid_k1", "ddid_k1"]],
        ids=["two builtins", "a builtin and a file"])
    def test_repeated_reference_refused(self, capsys, tmp_path, monkeypatch,
                                        argv):
        # the report keys its rows by reference, so a repeat once printed
        # one row for two inputs; the file named ddid_k1 is not JSON, so
        # reading it would fail otherwise
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ddid_k1").write_text("{not json")
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "parse",
            "detail": "verify: input 'ddid_k1' is given twice; the report "
                      "has one row per input"}


class TestErrors:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "hfhat", str(path), str(path))
        assert code == 2
        assert json.loads(err)["error"] == "parse"

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "hfhat", "--builtin", "nope",
                           "--builtin", "cfd0")
        assert code == 2

    def test_wrong_input_count(self, capsys):
        code, _, err = run(capsys, "hfhat", "--builtin", "cfd0")
        assert code == 2


class TestGeneratorCap:
    def test_hfihat_morphism_complex_over_cap(self, capsys, monkeypatch):
        # the genus-2 listings and the box tensors (21 generators) fit;
        # Mor(P0, az x P0) does not
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "300")
        code, out, err = run(capsys, "hfihat", "--builtin", "cfd0_k2",
                             "--builtin", "cfd0_k2")
        assert code == 5
        assert out == ""
        assert json.loads(err) == {
            "error": "divergence",
            "detail": "mor_complex_DD: 304 basis morphisms exceed "
                      "BHFI_MAX_GENERATORS=300"}

    def test_verify_az_genus_4_basis_over_cap(self, capsys, monkeypatch):
        # 948,390 diagrams are counted, never enumerated: the whole piece
        # needs the whole basis
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        start = time.monotonic()
        code, out, err = run(capsys, "verify", "--builtin", "az_k4")
        assert time.monotonic() - start < 10.0
        assert code == 5
        assert out == ""
        assert json.loads(err) == {
            "error": "divergence",
            "detail": "strands basis: 948390 diagrams exceed "
                      "BHFI_MAX_GENERATORS=200000"}

    def test_hfhat_genus_4_lists_only_its_morphisms(self, capsys,
                                                    monkeypatch):
        # the Mor complex lists the 16 diagrams between the handlebody's
        # idempotent and itself, not the 948,390 of the whole basis
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        start = time.monotonic()
        assert run(capsys, "hfhat", "--builtin", "cfd0_k4",
                   "--builtin", "cfd0_k4") == (0, '{"hf_dim": 16}\n', "")
        assert time.monotonic() - start < 10.0


    def test_lowered_cap_refuses_cached_structures(self, capsys,
                                                     monkeypatch):
        # az_k2 is built and cached under the default cap; under a lower
        # one, it and azbar_k2 are refused as in a fresh process
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        builtin_structure("az_k2")
        monkeypatch.setenv("BHFI_MAX_GENERATORS", "100")
        fresh = run_process(*builtins("verify", "azbar_k2"))
        assert fresh[:2] == (5, "")
        assert json.loads(fresh[2]) == {
            "error": "divergence",
            "detail": "strands basis: at least 114 diagrams exceed "
                      "BHFI_MAX_GENERATORS=100"}
        for name in ("az_k2", "azbar_k2"):
            assert run(capsys, *builtins("verify", name)) == fresh


class TestMaxSumSize:
    def test_other_commands_reject_it(self, capsys):
        for command in ("hfhat", "hfihat"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--builtin", "cfd0", "--builtin", "cfd0",
                      "--max-sum-size", "2"])
            assert exc.value.code == 2
            assert "--max-sum-size" in capsys.readouterr().err


class TestTriangleCommand:
    def test_triangle_on_builtin(self, capsys):
        code, out, _ = run(capsys, "triangle", "--builtin", "cfa0_k1")
        assert code == 0
        data = json.loads(out)
        assert data["hat_exact"] and data["involutive_exact"]


class TestMcgCommand:
    def test_interpolating_pair_acts_by_identity(self, capsys):
        code, out, _ = run(capsys, "mcg", "--builtin", "cfa0_k1",
                           "--builtin", "cfd0", "--builtin", "az_k1",
                           "--builtin", "azbar_k1")
        assert code == 0
        assert json.loads(out)["action"] == [[1, 0], [0, 1]]

    def test_conjugation_refusal_exits_3(self, capsys, monkeypatch):
        # one component less on the conjugation's last step; the pairing
        # with cfd_m1 has a nonzero differential, so the map is no longer
        # a chain map
        from bhfi import typea
        real = typea.box_morphism_left_comps

        def cut(f, P):
            comps = real(f, P)
            return comps - {max(comps)}

        monkeypatch.setattr(typea, "box_morphism_left_comps", cut)
        code, out, err = run(capsys, "mcg", "--builtin", "cfa0_k1",
                             "--builtin", "cfd_m1", "--builtin", "az_k1",
                             "--builtin", "azbar_k1")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "relations",
                                   "detail": "conjugation is not a chain map"}


class TestDumpStandard:
    def test_round_trip_all(self, capsys, tmp_path):
        code, out, _ = run(capsys, "dump-standard", "--out", str(tmp_path))
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 13
        for path in written:
            name = os.path.splitext(os.path.basename(path))[0]
            S = load_structure(path)
            T = builtin_structure(name)
            assert S.generators == T.generators
            assert S.ops == T.ops


class TestBuiltinRegistry:
    def test_dump_standard_writes_every_family_at_genus_1_and_2(
            self, capsys, tmp_path):
        code, out, _ = run(capsys, "dump-standard", "--out", str(tmp_path))
        assert code == 0
        names = [os.path.splitext(os.path.basename(path))[0]
                 for path in json.loads(out)["written"]]
        fixed = [n for n in BUILTIN_NAMES if "{n}" not in n]
        families = [n for n in BUILTIN_NAMES if "{n}" in n]
        assert names == fixed + [n.format(n=k) for k in (1, 2)
                                 for n in families]
        for name in names:
            assert builtin_structure(name).kind in ("D", "A", "DA", "DD")

    def test_builders_are_looked_up_when_called(self, monkeypatch):
        from bhfi import standard
        calls = []
        original = standard.cfda_az

        def wrapper(circle):
            calls.append(circle)
            return original(circle)

        monkeypatch.setattr(standard, "cfda_az", wrapper)
        assert builtin_structure("az_k1") is original(split_pmc(1))
        assert calls == [split_pmc(1)]


class TestGenusTwoEndToEnd:
    def test_hfihat_on_user_style_files(self, capsys, tmp_path):
        p = tmp_path / "side.json"
        dump_structure(builtin_structure("cfd0_k2"), p)
        code, out, _ = run(capsys, "hfihat", str(p), str(p))
        assert code == 0
        data = json.loads(out)
        assert data["hf_dim"] == 4
        assert data["hfi_dim"] == 8


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(args, stdout=subprocess.PIPE, **env_vars):
    """Run a fresh interpreter on ``args``, with ``env_vars`` added to the
    environment; returns (code, stdout, stderr).  Stdout is captured unless
    ``stdout`` names another target, and is then None."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""), **env_vars)
    proc = subprocess.run([sys.executable, *args],
                          cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def run_process(*argv, stdout=subprocess.PIPE, **env_vars):
    """Run the CLI in a fresh interpreter; see ``run_python``."""
    return run_python(["-m", "bhfi.cli", *argv], stdout, **env_vars)


def builtins(command, *names):
    return [command] + [arg for name in names for arg in ("--builtin", name)]


WRONG_KIND = [
    (builtins("hfhat", "cfd0", "cfd0_k2"), "input 2 has kind D over another"),
    (builtins("hfihat", "cfa0_k1", "cfd0"), "input 1 has kind A, expected D"),
    (builtins("hfihat", "ddid_k1", "ddid_k1"),
     "input 1 has kind DD, expected D"),
    (builtins("triangle", "cfd0"), "input 1 has kind D, expected A"),
    (builtins("triangle", "cfa0_k2"), "expected A over split_pmc(1)"),
    (builtins("mcg", "cfd0", "cfd0", "az_k1", "azbar_k1"),
     "input 1 has kind D, expected A"),
    (builtins("mcg", "cfa0_k1", "cfd0", "cfd0", "azbar_k1"),
     "input 3 has kind D, expected DA"),
]


class TestWrongKindInputs:
    @pytest.mark.parametrize("argv, detail", WRONG_KIND,
                             ids=[" ".join(a) for a, _ in WRONG_KIND])
    def test_typed_parse_error(self, argv, detail):
        code, out, err = run_process(*argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        report = json.loads(err)
        assert report["error"] == "parse"
        assert report["detail"].startswith(argv[0] + ": ")
        assert detail in report["detail"]

    @pytest.mark.parametrize("cap", ["abc", " 5e3", "-1", "+5", "1_0", " 7 ",
                                     "\u0661\u0660", ""])
    def test_malformed_cap_is_a_parse_error(self, cap):
        code, out, err = run_process(*builtins("hfhat", "cfd0", "cfd0"),
                                     BHFI_MAX_GENERATORS=cap)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "parse", "detail": "BHFI_MAX_GENERATORS must be a "
            f"decimal integer, not {cap!r}"}

    def test_zero_is_a_cap(self):
        code, out, err = run_process(*builtins("hfhat", "cfd0", "cfd0"),
                                     BHFI_MAX_GENERATORS="0")
        assert (code, out) == (5, "")
        assert json.loads(err) == {
            "error": "divergence", "detail": "split_pmc: 4 points exceed "
            "BHFI_MAX_GENERATORS=0"}

    def test_colliding_pair_labels_are_a_parse_error(self, tmp_path):
        # M ⊠ P would name both a ⊠ b|c and a|b ⊠ c "a|b|c"; files, since
        # builtins are resolved first
        paths = []
        for name, mapping in (("cfa0_k1", {"t": "a", "u": "a|b", "v": "v"}),
                              ("cfd_m1", {"a": "c", "b": "b|c"}),
                              ("az_k1", None), ("azbar_k1", None)):
            S = builtin_structure(name)
            paths.append(str(tmp_path / f"{name}.json"))
            dump_structure(S.relabeled(mapping) if mapping else S, paths[-1])
        code, out, err = run_process("mcg", *paths)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "parse", "detail": "box_tensor: generators ('a', 'b|c') "
            "and ('a|b', 'c') pair to one label 'a|b|c'"}

    def test_hfhat_on_dd_identities(self, capsys):
        code, out, _ = run(capsys, *builtins("hfhat", "ddid_k1", "ddid_k1"))
        assert code == 0
        assert out == '{"hf_dim": 4}\n'

    def test_relation_failure_names_the_input(self, capsys, tmp_path):
        payload = {
            "kind": "D",
            "circle": {"k": 1, "matching": [[1, 3], [2, 4]]},
            "generators": [{"label": "n", "idem": [1]}],
            "ops": [{"src": "n", "inputs": [],
                     "out": [{"left_idem": [1], "moving": [[1, 2]],
                              "horizontal": []}],
                     "dst": "n"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "hfhat", "--builtin", "cfd0", str(path))
        assert code == 3
        assert json.loads(err)["detail"].startswith(
            "hfhat input 2 fails 1 structure relations; first: ")


class TestStrandsGuards:
    """Oversized circles are refused before any exponential work, each in
    a fresh process so that no cached algebra helps."""

    @pytest.mark.parametrize("argv, detail", [
        # the whole piece needs the whole strands basis
        (builtins("verify", "az_k7"),
         "strands basis: at least 12471888 diagrams exceed "
         "BHFI_MAX_GENERATORS=200000"),
        (builtins("verify", "az_k12"),
         "strands basis: at least 95048379244 diagrams exceed "
         "BHFI_MAX_GENERATORS=200000"),
        # the handlebody's Mor complex lists its 2^18 diagrams from its
        # idempotent to itself, counted first
        (builtins("hfhat", "cfd0_k18", "cfd0_k18"),
         "strands basis: 262144 diagrams exceed BHFI_MAX_GENERATORS=200000"),
        # cfd0_k40 verifies (below); az_k40 needs the whole strands basis
        (builtins("verify", "az_k40"),
         "strands basis: at least 523607517210398580621908974420 diagrams "
         "exceed BHFI_MAX_GENERATORS=200000"),
        # the DD identity counts its generators and chord terms, and the
        # handlebody asks for the strands basis, before listing anything
        (builtins("verify", "ddid_k12"),
         "dd_identity: 2704156 generators exceed BHFI_MAX_GENERATORS=200000"),
        (builtins("verify", "ddid_k40"),
         "dd_identity: 107507208733336176461620 generators exceed "
         "BHFI_MAX_GENERATORS=200000"),
        (builtins("verify", "cfa0_k40"),
         "strands basis: at least 523607517210398580621908974420 diagrams "
         "exceed BHFI_MAX_GENERATORS=200000"),
        # sizes past 4,300 digits, which Python refuses to print, are
        # bounded by a power of ten
        (builtins("verify", "az_k7500"),
         "strands basis: at least 10^4529 diagrams exceed "
         "BHFI_MAX_GENERATORS=200000"),
        (builtins("verify", "ddid_k7500"),
         "dd_identity: at least 10^4513 generators exceed "
         "BHFI_MAX_GENERATORS=200000"),
        (builtins("verify", "cfa0_k7500"),
         "strands basis: at least 10^4529 diagrams exceed "
         "BHFI_MAX_GENERATORS=200000"),
        # the circle itself is refused before its matching is listed
        (builtins("verify", "cfd0_k1000000000"),
         "split_pmc: 4000000000 points exceed BHFI_MAX_GENERATORS=200000"),
        (builtins("verify", "az_k1000000"),
         "split_pmc: 4000000 points exceed BHFI_MAX_GENERATORS=200000"),
        # the handlebody counts its k(k - 1) horizontals before listing them
        (builtins("verify", "cfd0_k3000"),
         "cfd_zero_handlebody: 8997000 horizontal entries exceed "
         "BHFI_MAX_GENERATORS=200000"),
        (builtins("hfhat", "cfd0_k7500", "cfd0_k7500"),
         "cfd_zero_handlebody: 56242500 horizontal entries exceed "
         "BHFI_MAX_GENERATORS=200000"),
    ], ids=["verify genus 7", "verify genus 12", "hfhat genus 18",
            "verify genus 40",
            "verify ddid genus 12", "verify ddid genus 40",
            "verify cfa0 genus 40", "verify genus 7500",
            "verify ddid genus 7500", "verify cfa0 genus 7500",
            "verify cfd0 genus 10^9", "verify genus 10^6",
            "verify cfd0 genus 3000", "hfhat cfd0 genus 7500"])
    def test_refused_within_seconds(self, monkeypatch, argv, detail):
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        start = time.monotonic()
        code, out, err = run_process(*argv)
        assert time.monotonic() - start < 10.0
        assert code == 5
        assert out == ""
        assert json.loads(err) == {"error": "divergence", "detail": detail}

    def test_genus_12_handlebody_still_verifies(self, monkeypatch):
        # and genus 17 and 40: the differential of a diagram with h
        # horizontal strands costs no 2^h placements, so nothing refuses
        monkeypatch.delenv("BHFI_MAX_GENERATORS", raising=False)
        for k in (12, 17, 40):
            name = f"cfd0_k{k}"
            start = time.monotonic()
            code, out, _ = run_process(*builtins("verify", name))
            assert time.monotonic() - start < 10.0
            assert code == 0
            assert json.loads(out) == {
                name: {"generators": 1, "operations": k, "violations": 0}}


def refused_in_process(argv, detail):
    """``bhfi argv`` in a fresh process exits 2 with a parse error whose
    detail holds ``detail``, writing nothing to stdout."""
    code, out, err = run_process(*argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "parse"
    assert detail in report["detail"]


class TestRefusedArguments:
    """A bad builtin name or an unwritable --out path exits 2 with a parse
    error, never with a traceback; each run in a fresh process."""

    @pytest.mark.parametrize("name", ["cfd0_k\u00b2", "cfd0_k\u0663"])
    def test_builtin_genus_that_is_not_ascii_decimal(self, name):
        # a superscript two once died in int() with a ValueError
        # traceback, and an Arabic-Indic three was read as genus 3
        refused_in_process(["verify", "--builtin", name],
                           f"bad genus in builtin name {name!r}")

    @pytest.mark.parametrize("name", ["cfd0_k01", "az_k0002", "cfd0_k0"])
    def test_builtin_genus_with_a_leading_zero(self, name):
        # cfd0_k01 once answered as cfd0_k1, so one builtin had many names
        refused_in_process(builtins("hfhat", name, "cfd0"),
                           f"bad genus in builtin name {name!r}")

    def test_out_in_a_missing_directory(self, tmp_path):
        # the report was computed, then open() raised FileNotFoundError
        path = tmp_path / "missing" / "x.json"
        refused_in_process(builtins("hfhat", "cfd0", "cfd0")
                           + ["--out", str(path)], f"cannot write {path}: ")

    def test_dump_standard_out_that_is_a_file(self, tmp_path):
        # os.makedirs once raised FileExistsError
        path = tmp_path / "taken"
        path.write_text("")
        refused_in_process(["dump-standard", "--out", str(path)],
                           f"cannot write {path}: ")


class TestMalformedFiles:
    """Malformed structure files exit 2 with a parse error, never with a
    traceback; each is read by a fresh process."""

    def refused(self, path, detail, *argv):
        refused_in_process([*(argv or ("verify",)), str(path)], detail)

    @staticmethod
    def cfd0_with_extra(tmp_path, idem, horizontal=None):
        """cfd0 with one more generator, of idempotent ``idem``, and, when
        ``horizontal`` is given, an operation from it to itself whose
        coefficient is the diagram with those horizontal strands."""
        path = tmp_path / "extra.json"
        dump_structure(builtin_structure("cfd0"), path)
        payload = json.loads(path.read_text())
        payload["generators"].append({"label": "extra", "idem": idem})
        if horizontal is not None:
            payload["ops"].append({
                "src": "extra", "inputs": [], "dst": "extra",
                "out": [{"moving": [], "horizontal": horizontal}]})
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("idem", [[99], ["x"], [1, 2], [True]],
                             ids=json.dumps)
    def test_idempotent_that_is_not_k_pair_labels(self, tmp_path, idem):
        # each once verified; hfihat then raised a TypeError or a
        # ValueError, or failed its search, and true passed as pair 1
        path = self.cfd0_with_extra(tmp_path, idem)
        self.refused(path, "bad structure payload")
        self.refused(path, "bad structure payload",
                     "hfihat", "--builtin", "cfd0")

    @pytest.mark.parametrize("label", [99, True])
    def test_horizontal_that_is_not_a_pair_label(self, tmp_path, label):
        # 99 once raised an IndexError out of verify, hfhat and hfihat
        path = self.cfd0_with_extra(tmp_path, [label], [label])
        self.refused(path, f"bad diagram payload: no matched pair {label}")
        self.refused(path, "bad diagram payload",
                     "hfhat", "--builtin", "cfd0")

    @pytest.mark.parametrize("point", [True, 1.0], ids=json.dumps)
    def test_strand_endpoint_that_is_not_a_point(self, tmp_path, point):
        # true once verified with exit 0, as the strand from point 1, and
        # 1.0 failed only through a TypeError in the diagram code
        path = tmp_path / "strand.json"
        dump_structure(builtin_structure("cfd0"), path)
        payload = json.loads(path.read_text())
        payload["ops"][0]["out"][0]["moving"] = [[point, 3]]
        path.write_text(json.dumps(payload))
        strand = json.dumps([point, 3]).replace("true", "True")
        self.refused(path, f"bad diagram payload: strand {strand} is not "
                           "two points of a genus-1 circle")
        self.refused(path, "bad diagram payload", "hfhat", "--builtin", "cfd0")

    @pytest.mark.parametrize("left, detail", [
        ([True], "bad diagram payload: no matched pair True"),
        ([1.0], "bad diagram payload: no matched pair 1.0"),
        ([1, 1], "diagram left idempotent disagrees with its strands"),
    ], ids=["true", "1.0", "repeated"])
    def test_left_idempotent_that_is_not_pair_labels(self, tmp_path, left,
                                                     detail):
        # true and 1.0 once equalled pair 1, and the file verified
        path = tmp_path / "left.json"
        with open(os.path.join(ROOT, "fixtures", "cfd_m1.json")) as fh:
            payload = json.load(fh)
        payload["ops"][0]["out"][0]["left_idem"] = left
        path.write_text(json.dumps(payload))
        self.refused(path, detail)

    @pytest.mark.parametrize("name, repeat, detail", [
        ("cfd0", "idem", 'generator "n" idem [1, 1] repeats a matched pair'),
        ("cfd0_k2", "idem",
         'generator "n" idem [1, 1] repeats a matched pair'),
        ("az_k1", "out idem",
         'generator "h1" idem [2, 2] repeats a matched pair'),
        ("az_k1", "in idem",
         'generator "h1" idem [1, 1] repeats a matched pair'),
        ("ddid_k1", "in idem",
         'generator "i1" idem [1, 1] repeats a matched pair'),
        ("cfd0", "horizontal",
         "bad diagram payload: horizontal [1, 1] repeats a matched pair"),
    ], ids=["D", "D genus 2", "DA out", "DA in", "DD", "horizontal"])
    def test_repeated_pair_label(self, tmp_path, name, repeat, detail):
        # [1, 1] was read as {1}: the genus-1 files verified, and genus 2
        # was refused as "not a weight-0 diagram"
        path = tmp_path / f"{name}.json"
        dump_structure(builtin_structure(name), path)
        payload = json.loads(path.read_text())
        gen = payload["generators"][0]
        if repeat == "idem":
            gen["idem"] = [1, 1]
        elif repeat == "horizontal":
            gen["idem"] = [1]
            payload["ops"] = [{"src": gen["label"], "inputs": [],
                               "dst": gen["label"],
                               "out": [{"moving": [], "horizontal": [1, 1]}]}]
        else:
            side = gen["idem"][repeat == "in idem"]
            side.append(side[0])
        path.write_text(json.dumps(payload))
        self.refused(path, detail)

    @pytest.mark.parametrize("label", [5, True, None], ids=json.dumps)
    def test_generator_label_that_is_not_a_string(self, tmp_path, label):
        # 5 next to "5" once verified; hfhat then died in a sort with a
        # TypeError, and hfihat on the duplicate labels
        path = tmp_path / "label.json"
        path.write_text(json.dumps({
            "kind": "D",
            "circle": {"k": 1, "matching": [[1, 3], [2, 4]]},
            "generators": [{"label": label, "idem": [1]},
                           {"label": "5", "idem": [1]}], "ops": []}))
        detail = ("bad structure payload: generator label "
                  f"{json.dumps(label)} is not a string")
        self.refused(path, detail)
        self.refused(path, detail, "hfhat", "--builtin", "cfd0")

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{\"kind\": \"D\"}\x80")
        self.refused(path, "is not UTF-8 text")

    def test_huge_genus_with_two_pairs(self, tmp_path):
        # the pairs are counted before the 4k points are listed
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "kind": "D",
            "circle": {"k": 1000000000, "matching": [[1, 3], [2, 4]]},
            "generators": [{"label": "n", "idem": [1]}], "ops": []}))
        self.refused(path, "matching must consist of 2k pairs")

    @pytest.mark.parametrize("k", [1.5, True, "1"])
    def test_genus_that_is_not_an_integer(self, tmp_path, k):
        # once read as int(k), that is genus 1, and the file verified
        path = tmp_path / "k.json"
        path.write_text(json.dumps({
            "kind": "D",
            "circle": {"k": k, "matching": [[1, 3], [2, 4]]},
            "generators": [{"label": "n", "idem": [1]}], "ops": []}))
        self.refused(path, "bad circle payload: genus must be a JSON integer")

    @pytest.mark.parametrize("point", [1.0, True, "1"])
    def test_point_that_is_not_an_integer(self, tmp_path, point):
        # 1.0 and true once equalled point 1, and the file verified
        path = tmp_path / "point.json"
        path.write_text(json.dumps({
            "kind": "D",
            "circle": {"k": 1, "matching": [[point, 3], [2, 4]]},
            "generators": [{"label": "n", "idem": [1]}], "ops": []}))
        self.refused(path, "bad circle payload: points must be JSON integers")

    @pytest.mark.parametrize("name, field, value, detail", [
        ("cfd0", "moving", [[True, 3]],
         "strand [True, 3] is not two points of a genus-1 circle"),
        ("cfd0", "moving", [[1.0, 3]],
         "strand [1.0, 3] is not two points of a genus-1 circle"),
        ("cfd0_k2", "horizontal", [True], "no matched pair True"),
        ("cfd0_k2", "horizontal", [1.0], "no matched pair 1.0"),
    ], ids=["true", "1.0", "horizontal-true", "horizontal-1.0"])
    def test_repeated_payload_with_a_point_that_is_not_an_integer(
            self, tmp_path, name, field, value, detail):
        # payloads are decoded once per file, and diagram payloads parsed
        # into one object each: an appended operation repeats the last with
        # true or 1.0 for point or pair 1, which a key compared with ==
        # would find and reuse
        path = tmp_path / "repeat.json"
        dump_structure(builtin_structure(name), path)
        payload = json.loads(path.read_text())
        op = json.loads(json.dumps(payload["ops"][-1]))
        op["out"][0][field] = value
        payload["ops"].append(op)
        path.write_text(json.dumps(payload))
        self.refused(path, f"bad diagram payload: {detail}")
        with pytest.raises(ParseError, match=re.escape(detail)):
            structure_from_json(payload)     # the caller's unshared dicts

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on the digits of an integer")
    def test_integer_past_the_digit_limit(self, tmp_path):
        # json raises a plain ValueError, not a JSONDecodeError, on an
        # integer of more digits than the interpreter converts; it once
        # ended in a traceback and exit 1
        path = tmp_path / "digits.json"
        path.write_text('{"kind": "D", "circle": {"k": 1%s}}' % ("0" * 5000))
        self.refused(path, "is not valid JSON: Exceeds the limit")

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        self.refused(path, "nests its JSON too deeply")

    @pytest.mark.parametrize("name", ["cfd0", "ddid_k1"])
    def test_inputs_on_a_no_input_kind(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        dump_structure(builtin_structure(name), path)
        payload = json.loads(path.read_text())
        op = payload["ops"][0]
        op["inputs"] = [op["out"] if name == "cfd0" else op["out"][0]]
        path.write_text(json.dumps(payload))
        self.refused(path, f"operation 0 of a kind-{payload['kind']} "
                           "structure carries algebra inputs")

    @pytest.mark.parametrize("name, field, count, detail", [
        ("az_k1", "idem", 1, 'generator "h1" idem of a kind-DA structure'),
        ("az_k1", "idem", 3, 'generator "h1" idem of a kind-DA structure'),
        ("ddid_k1", "idem", 1, 'generator "i1" idem of a kind-DD structure'),
        ("ddid_k1", "idem", 3, 'generator "i1" idem of a kind-DD structure'),
        ("ddid_k1", "out", 1, "operation 0 out of a kind-DD structure"),
        ("ddid_k1", "out", 3, "operation 0 out of a kind-DD structure"),
    ])
    def test_two_circle_field_without_two_entries(self, tmp_path, name,
                                                  field, count, detail):
        # one entry once raised an IndexError out of verify, and a third
        # entry of a DD idem was dropped, so that the file verified
        path = tmp_path / f"{name}.json"
        dump_structure(builtin_structure(name), path)
        payload = json.loads(path.read_text())
        entry = payload["generators" if field == "idem" else "ops"][0]
        entry[field] = (entry[field] * 2)[:count]
        path.write_text(json.dumps(payload))
        self.refused(path, f"{detail} must have two entries, one per "
                           f"circle, not {count}")

    def test_output_on_a_kind_a_operation(self, tmp_path):
        path = tmp_path / "cfa0_k1.json"
        dump_structure(builtin_structure("cfa0_k1"), path)
        payload = json.loads(path.read_text())
        op = next(o for o in payload["ops"] if o["inputs"])
        op["out"] = op["inputs"][0]
        path.write_text(json.dumps(payload))
        self.refused(path, f"operation {payload['ops'].index(op)} of a "
                           "kind-A structure carries an algebra output")


class TestDecodeMemory:
    def test_load_peaks_well_below_the_bare_parse(self):
        # each distinct diagram payload is parsed into one shared object:
        # the az_k2 file holds 4,496 diagram payloads, 238 of them distinct.
        # Unshared, the load peaked above json.load (104 %)
        path = os.path.join(ROOT, "fixtures", "az_k2.json")

        def peak(load):
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def parse():
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        load_structure(path)     # the algebra and its tables, built once
        ratio = peak(lambda: load_structure(path)) / peak(parse)
        assert ratio <= 0.6, ratio


class TestContractibleFiles:
    """Type D files with no homology: the zero morphism is the one class
    of each search, and hfihat reports zero."""

    ZERO = {"Q": [], "hf_dim": 0, "hfi_dim": 0, "iota": [], "ker": 0}

    @staticmethod
    def d_file(tmp_path, labels, ops=()):
        path = tmp_path / f"d_{''.join(labels) or 'empty'}.json"
        path.write_text(json.dumps({
            "kind": "D",
            "circle": {"k": 1, "matching": [[1, 3], [2, 4]]},
            "generators": [{"label": g, "idem": [1]} for g in labels],
            "ops": [{"src": s, "inputs": [], "dst": t,
                     "out": [{"moving": [], "horizontal": [1]}]}
                    for s, t in ops]}))
        return str(path)

    def report(self, capsys, *argv):
        code, out, err = run(capsys, "hfihat", *argv)
        assert (code, err) == (0, "")
        return json.loads(out)

    def test_contractible_file(self, tmp_path, capsys):
        # once exit 4: no acyclic cone among sums of the empty basis
        path = self.d_file(tmp_path, "xy", [("x", "y")])
        assert self.report(capsys, path, "--builtin", "cfd0") == self.ZERO
        assert self.report(capsys, path, path) == self.ZERO

    def test_file_without_generators(self, tmp_path, capsys):
        path = self.d_file(tmp_path, "")
        assert self.report(capsys, path, "--builtin", "cfd0") == self.ZERO

    def test_zero_morphism_with_a_live_cone_still_fails(self, tmp_path,
                                                        capsys):
        # one generator and no operation: the zero morphism is tried, and
        # its cone does not cancel
        path = self.d_file(tmp_path, "x")
        code, out, err = run(capsys, "hfihat", path, "--builtin", "cfd0")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "search",
            "detail": "find_homotopy_equivalence: no acyclic cone among "
                      "sums of up to 4 of the 0-vector homology basis"}


def test_genus_2_hfihat_bytes_across_hash_seeds(tmp_path):
    # and on relabelled files: the Mor listings bucket the generators of
    # az x P by their frozenset idempotents, and the labels sort anew
    P, files = builtin_structure("cfd0_k2"), ["hfihat"]
    for prefix in ("p", "q"):
        files.append(str(tmp_path / f"{prefix}.json"))
        dump_structure(P.relabeled({g: f"{prefix}{i}" for i, g
                                    in enumerate(P.generators)}), files[-1])
    for argv in (builtins("hfihat", "cfd0_k2", "cfd0_k2"), files):
        runs = [run_process(*argv, PYTHONHASHSEED=seed)
                for seed in ("0", "1")]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0
        report = json.loads(out)
        assert (report["hf_dim"], report["hfi_dim"], report["ker"]) == \
            (4, 8, 4)


class TestProcessExit:
    """``python -m bhfi.cli`` ends through ``run``: main, a flush of both
    streams, then ``os._exit``, with the bytes and codes of main.  An empty
    PYTHONUNBUFFERED counts as unset, so stdout is block-buffered, as in a
    shell pipeline, and only run's flush writes the report."""

    @staticmethod
    def buffered(*argv, **kwargs):
        return run_process(*argv, PYTHONUNBUFFERED="", **kwargs)

    def test_relation_violation_exits_3(self, tmp_path):
        # az_k1 with its first operation dropped breaks one relation
        path = tmp_path / "az_k1_broken.json"
        dump_structure(builtin_structure("az_k1"), path)
        payload = json.loads(path.read_text())
        del payload["ops"][0]
        path.write_text(json.dumps(payload))
        code, out, err = self.buffered("verify", str(path))
        assert code == 3
        assert json.loads(out) == {str(path): {
            "generators": 8, "operations": 24, "violations": 1}}
        assert json.loads(err) == {"error": "relations",
                                   "detail": "1 relation violations"}

    def test_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = self.buffered(
            *builtins("hfhat", "cfd0", "cfd_inf"), "--out", str(target))
        assert (code, err) == (0, "")
        assert target.read_text() == out == '{"hf_dim": 1}\n'

    def test_unknown_subcommand_prints_usage(self):
        code, out, err = self.buffered("bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: bhfi ")
        assert "invalid choice: 'bogus'" in err

    def test_closed_stdout_is_an_error(self):
        # the report cannot be written: never exit 0 with it lost
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = self.buffered(
                *builtins("hfhat", "cfd0", "cfd_inf"), stdout=write_end)
        finally:
            os.close(write_end)
        assert code != 0
        assert "BrokenPipeError" in err

    def test_console_script_is_the_main_entry(self):
        # read as text: tomllib is not in Python 3.10
        with open(os.path.join(ROOT, "pyproject.toml")) as fh:
            scripts = fh.read().split("[project.scripts]")[1]
        target = scripts.split("\n[")[0].split("=")[1].strip().strip('"')
        module, func = target.split(":")
        with open(os.path.join(ROOT, "src", *module.split(".")) + ".py") as fh:
            tail = fh.read().split('if __name__ == "__main__":')[1]
        assert tail.split() == [f"{func}()"]


# what each command compiles: the deferred submodules it executed, which
# of argparse and gettext it loaded, and the plain submodules imported on
# first use that it imported: morphisms (with cancellation), pairing (the
# box tensor kernel), typea (the type A side), matrices (dense linear
# algebra), dd (the DD side), pieces (az and the type D handlebody),
# elements (sums of diagrams) and tables (the whole strands basis)
LAZY = ("standard", "files", "mor", "equivalence", "involutive", "triangle",
        "homology")
PLAIN = ("morphisms", "pairing", "typea", "matrices", "dd", "pieces",
         "elements", "tables")
EXECUTED = f"""
import json, sys, types
from bhfi.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [name for name in {LAZY!r}
                         if type(sys.modules["bhfi." + name])
                         is types.ModuleType],
                  sorted({{"argparse", "gettext"}} & sys.modules.keys()),
                  [name for name in {PLAIN!r}
                   if "bhfi." + name in sys.modules]]))
"""

HFIHAT = ["mor", "equivalence", "involutive", "homology"]
PAIRED = ["morphisms", "pairing", "matrices", "pieces"]
TYPEA = ["morphisms", "pairing", "typea", "matrices", "dd", "pieces",
         "tables"]
COMPILED = [
    (["hfhat", "fixtures/cfd0.json", "fixtures/cfd0.json"],
     ["files", "mor", "homology"], ["elements"]),
    (["verify", "fixtures/az_k1.json"], ["files"], ["elements", "tables"]),
    (["verify", "fixtures/az_k2.json"], ["files"], ["elements", "tables"]),
    (builtins("hfhat", "cfd0", "cfd_inf"), ["standard", "mor", "homology"],
     []),
    (builtins("hfhat", "cfd0_k2", "cfd0_k2"),
     ["standard", "mor", "homology"], ["pieces"]),
    (builtins("verify", "ddid_k1"), ["standard"], ["dd"]),
    (builtins("verify", "az_k2"), ["standard"], ["pieces", "tables"]),
    (builtins("hfihat", "cfd0", "cfd_m1"), ["standard", *HFIHAT],
     [*PAIRED, "tables"]),
    (["hfihat", "fixtures/cfd0.json", "fixtures/cfd_m1.json"],
     ["files", *HFIHAT], [*PAIRED, "elements", "tables"]),
    (builtins("mcg", "cfa0_k1", "cfd0", "az_k1", "azbar_k1"),
     ["standard", *HFIHAT], TYPEA),
    (builtins("triangle", "cfa0_k1"),
     ["standard", "mor", "equivalence", "involutive", "triangle",
      "homology"], TYPEA),
]


@pytest.mark.parametrize("argv, executed, imported", COMPILED,
                         ids=[" ".join(a) for a, _, _ in COMPILED])
def test_command_executes_only_the_modules_it_runs(argv, executed, imported):
    # the type is read from sys.modules, so the test loads nothing itself;
    # hfhat and verify import neither morphisms and cancellation nor the
    # box tensor kernel, no verify executes homology, and no command on
    # type D structures imports the type A side
    code, out, err = run_python(["-c", EXECUTED, *argv])
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1]) == [0, executed, [], imported]
    assert argv[0] != "verify" or "homology" not in executed


# argv forms of the one grammar, each with its exit code, stdout and stderr;
# run in a directory holding cfd0.json and a copy named -x.json
USAGE = "usage: bhfi COMMAND [FILE ...] [--builtin NAME]... [--out PATH]\n"
HELP = (cli.__doc__ + "\nBuiltin names, {n} a genus:\n  cfd_inf, cfd_m1, "
        "cfd0, cfd0_k{n}, cfa0_k{n}, ddid_k{n}, az_k{n}, azbar_k{n}\n")
CHOICES = "'hfhat', 'hfihat', 'verify', 'triangle', 'mcg', 'dump-standard'"
ONE = '{"hf_dim": 1}\n'
TWO = '{"hf_dim": 2}\n'
GRAMMAR = [
    (["hfhat", "cfd0.json", "--builtin", "cfd_inf"], 0, ONE, ""),
    (["hfhat", "--builtin", "cfd_inf", "cfd0.json"], 0, ONE, ""),
    (["hfhat", "cfd0.json", "--out", "r.json", "cfd0.json"], 0, TWO, ""),
    (["--builtin", "cfd0", "hfhat", "cfd0.json"], 0, TWO, ""),
    (["hfhat", "--builtin=cfd0", "--out=r.json", "cfd0.json"], 0, TWO, ""),
    (["hfhat", "--buil", "cfd0", "--b=cfd_inf", "--o", "r.json"], 0, ONE, ""),
    (["hfhat", "--builtin", "cfd0", "--", "-x.json"], 0, TWO, ""),
    (["-h"], 0, HELP, ""),
    (["--help"], 0, HELP, ""),
    (["--he"], 0, HELP, ""),
    (["hfhat", "-h"], 0, HELP, ""),
    (["verify", "--builtin", "cfd0", "--help"], 0, HELP, ""),
    ([], 2, "", USAGE + "bhfi: error: the following arguments are "
     "required: command\n"),
    (["bogus"], 2, "", USAGE + "bhfi: error: argument command: invalid "
     f"choice: 'bogus' (choose from {CHOICES})\n"),
    (["bogus", "--help"], 2, "", USAGE + "bhfi: error: argument command: "
     f"invalid choice: 'bogus' (choose from {CHOICES})\n"),
    (["hfhat", "--builtin", "cfd0", "-x.json"], 2, "",
     USAGE + "bhfi: error: unrecognized arguments: -x.json\n"),
    (["hfhat", "--bogus=1"], 2, "",
     USAGE + "bhfi: error: unrecognized arguments: --bogus=1\n"),
    (["hfhat", "--", "--builtin", "cfd0"], 2, "", json.dumps({
        "error": "parse", "detail": "cannot read --builtin: [Errno 2] No "
        "such file or directory: '--builtin'"}) + "\n"),
    (["hfhat", "cfd0.json", "--out"], 2, "",
     USAGE + "bhfi: error: argument --out: expected one argument\n"),
    (["hfhat", "--builtin", "--out", "r.json"], 2, "",
     USAGE + "bhfi: error: argument --builtin: expected one argument\n"),
]


@pytest.mark.parametrize("argv, code, out, err", GRAMMAR,
                         ids=[" ".join(a) or "(none)" for a, *_ in GRAMMAR])
def test_command_line_grammar(argv, code, out, err, capsys, tmp_path,
                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("cfd0.json", "-x.json"):
        dump_structure(builtin_structure("cfd0"), name)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)
    if code == 0 and "r.json" in " ".join(argv):
        assert (tmp_path / "r.json").read_text() == out
