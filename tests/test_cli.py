"""CLI: exit codes, determinism, command round trips."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import bar, gb
from thicket.barcode import (Bar, closed, full_line, half_open, open_iv,
                             ray_right, singleton)
from thicket.circle import CircleSheaf
from thicket.cli import run_command
from thicket.corpus import rand_bounded_barcode
from thicket.docio import barcode_doc, circle_doc, parse, plmap_doc, serialize
from thicket.plmaps import abs_map, offset_map
from thicket.thicken import thicken


@pytest.fixture
def docs(tmp_path):
    paths = {}
    paths["F"] = tmp_path / "F.bc"
    paths["F"].write_text(serialize(barcode_doc(gb(bar(closed(0, 2))))))
    paths["G"] = tmp_path / "G.bc"
    paths["G"].write_text(serialize(barcode_doc(gb(bar(singleton(1))))))
    paths["C"] = tmp_path / "C.circ"
    paths["C"].write_text(serialize(circle_doc(
        CircleSheaf(4, [Bar(closed(0, 1), 0)]))))
    paths["pl"] = tmp_path / "abs.pl"
    paths["pl"].write_text(serialize(plmap_doc(abs_map())))
    paths["pl2"] = tmp_path / "abs2.pl"
    paths["pl2"].write_text(serialize(plmap_doc(offset_map(abs_map(), Fr(1, 8)))))
    paths["tmp"] = tmp_path
    return paths


class TestCommands:
    def test_thicken(self, docs, capsys):
        assert run_command(["thicken", "--a", "1", str(docs["F"])]) == 0
        out = capsys.readouterr().out
        assert "bar: 0 [-1, 3]" in out

    def test_distance_csv(self, docs, capsys):
        assert run_command(["distance", str(docs["F"]), str(docs["G"])]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "inputs,lower,upper,exact,verdict,micros"
        cells = out[1].split(",")
        assert cells[1] == "1" and cells[2] == "1" and cells[3] == "true"

    def test_fs_double_inverse_identity(self, docs, capsys):
        out1 = docs["tmp"] / "o1.circ"
        out2 = docs["tmp"] / "o2.circ"
        assert run_command(["fs", str(docs["C"]), "--out", str(out1)]) == 0
        assert run_command(["fs", "--inverse", str(out1), "--out", str(out2)]) == 0
        assert parse(out2.read_text()).payload == parse(docs["C"].read_text()).payload

    def test_stability_report(self, docs, capsys):
        assert run_command(["stability", "--f", str(docs["pl"]),
                            "--g", str(docs["pl2"]), str(docs["F"])]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out and "bound: 1/8" in out

    def test_push(self, docs, capsys):
        assert run_command(["push", "--map", str(docs["pl"]), str(docs["F"])]) == 0
        assert "bar:" in capsys.readouterr().out

    def test_plot(self, docs):
        out = docs["tmp"] / "F.svg"
        assert run_command(["plot", str(docs["F"]), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_extend_line(self, docs, capsys):
        assert run_command(["extend", "--seed", "line", "--a", "5/2",
                            str(docs["F"])]) == 0
        assert "[-5/2, 9/2]" in capsys.readouterr().out

    def test_extend_synthetic_fault(self, docs, capsys):
        seed = docs["tmp"] / "bad.seed"
        seed.write_text("thicket/1\nkind: seed\nalpha: 1\nrestrict: 0 1/2 0\n")
        assert run_command(["extend", "--seed", str(seed), "--a", "2"]) == 1
        assert "coherence: fail" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error(self):
        assert run_command(["no-such-command"]) == 2

    def test_validation_error(self, docs, tmp_path, capsys):
        badf = tmp_path / "bad.bc"
        badf.write_text("thicket/1\nkind: barcode\nbar: 0 [2, 1]\n")
        assert run_command(["thicken", "--a", "1", str(badf)]) == 1

    def test_missing_file(self, capsys):
        assert run_command(["dual", "/nonexistent/file.bc"]) == 1

    def test_closed_stdout_ends_quietly(self):
        # about 100 kB of CSV, more than a pipe holds, so the suite is
        # still writing when the reader goes away after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "thicket.cli", "suite", "rgamma",
             "--cases", "3000"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_src_env())
        assert proc.stdout.readline().startswith(b"inputs,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_internal_violation(self, docs, monkeypatch, capsys):
        import thicket.cli as climod

        def boom(args):
            raise AssertionError("deliberate fault injection")

        monkeypatch.setattr(climod, "cmd_dual", boom)
        assert run_command(["dual", str(docs["F"])]) == 70

    def test_unsupported_hom_is_a_validation_error(self, docs, monkeypatch,
                                                   capsys):
        # a Hom space beyond dimension one is a documented scope limit
        import thicket.cli as climod
        from thicket.morphisms import UnsupportedHomError

        def boom(args):
            raise UnsupportedHomError("deliberate fault injection")

        monkeypatch.setattr(climod, "cmd_dual", boom)
        assert run_command(["dual", str(docs["F"])]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: unsupported: deliberate fault injection"

    @pytest.mark.parametrize("argv", [
        ["push", "--map", "{pl}", "{F}"],
        ["distance", "{F}", "{G}"],
        ["plot", "{F}"],
    ])
    def test_output_into_missing_directory(self, docs, capsys, argv):
        target = docs["tmp"] / "missing" / "out.txt"
        argv = [a.format(**docs) for a in argv] + ["--out", str(target)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1

    def test_distance_budget_zero_is_used(self, docs, capsys):
        # with no unknowns allowed, the exhaustive refutation cannot run
        assert run_command(["distance", "--budget", "0",
                            str(docs["F"]), str(docs["G"])]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[1:5] == ["0", "1", "false", "inconclusive"]

    def test_distance_negative_budget_rejected(self, docs, capsys):
        assert run_command(["distance", "--budget", "-1",
                            str(docs["F"]), str(docs["G"])]) == 1
        assert "--budget must be nonnegative" in capsys.readouterr().err

    def test_suite_negative_cases_rejected(self, capsys):
        assert run_command(["suite", "distance", "--cases", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cases must be nonnegative, got -3\n"

    @pytest.mark.parametrize("band, message", [
        ("band: 0 rank=2", "malformed band '0 rank=2'"),
        ("band: 0 rank=two monodromy=1", "malformed band"),
        ("band: 0 rank=2 monodromy=1", "must be a 2 x 2 matrix"),
        ("band: 0 rank=1 monodromy=0", "singular over F_2"),
    ], ids=["no-monodromy", "garbled-rank", "size-mismatch", "singular"])
    def test_bad_band_rejected(self, tmp_path, capsys, band, message):
        doc = tmp_path / "bad.circ"
        doc.write_text("thicket/1\nkind: circle\nchar: 2\n"
                       f"space: circle C=4\n{band}\n")
        assert run_command(["fs", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("kind, line, message", [
        ("barcode", "bar: 0", "malformed "),
        ("barcode", "bar: x [0, 1]", "malformed "),
        ("circle", "spiral: 0", "malformed "),
        ("barcode", "bars: 0 [0, 1]", "unknown key 'bars' in a barcode"),
        ("barcode", "spiral: 0 [0, 1]", "unknown key 'spiral' in a barcode"),
        ("circle", "bar: 0 [0, 1]", "unknown key 'bar' in a circle"),
        ("barcode", "char: 3", "repeated key 'char'"),
        ("circle", "space: circle C=2", "repeated key 'space'"),
    ], ids=["bar-no-interval", "bar-bad-degree", "spiral-no-interval",
            "barcode-key-typo", "spiral-in-barcode", "bar-in-circle",
            "second-char", "second-space"])
    def test_bad_bar_line_rejected(self, tmp_path, capsys, kind, line,
                                   message):
        doc = tmp_path / "bad.txt"
        space = "circle C=4" if kind == "circle" else "line"
        doc.write_text(f"thicket/1\nkind: {kind}\nchar: 2\nspace: {space}\n"
                       f"{line}\n")
        assert run_command(["dual" if kind == "barcode" else "fs", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith(f"error: {message}") and "(line 5)" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, name, text, message", [
        ("dual", "bad.bc", "kind: barcode\nchar: 2\nspace: line\n"
         "bar: 0 [0, 1/0]", "zero denominator in '1/0' (line 5)"),
        ("push", "bad.pl", "kind: plmap\npt: 1/0 1",
         "invalid point '1/0 1' (line 3)"),
        ("fs", "bad.circ", "kind: circle\nchar: 2\nspace: circle C=1/0",
         "invalid space tag 'circle C=1/0' (line 4)"),
        ("extend", "bad.seed", "kind: seed\nalpha: 1/0",
         "zero denominator in '1/0'"),
        ("extend", "bad.seed", "kind: seed\nmode: weird",
         "unknown seed mode 'weird'"),
        ("extend", "bad.seed", "kind: seed\nalpha: -1",
         "seed alpha must be positive, got -1"),
        ("extend", "bad.seed", "kind: seed\nalpha: 0",
         "seed alpha must be positive, got 0"),
        ("extend", "bad.seed", "kind: seed\nalpha: 1\nrestrict: 1/2 0 1",
         "seed line 'restrict: 1/2 0 1' needs 0 <= a <= b <= alpha = 1"),
        ("extend", "bad.seed", "kind: seed\nalpha: 1\nrestrict: 0 3 1",
         "seed line 'restrict: 0 3 1' needs 0 <= a <= b <= alpha = 1"),
        ("extend", "bad.seed", "kind: seed\nrestrict: -1/2 0 1",
         "seed line 'restrict: -1/2 0 1' needs 0 <= a <= b <= alpha = 1"),
        ("extend", "bad.seed", "kind: seed\nrestrict: 0 1 1\nalpha: 1/2",
         "seed line 'restrict: 0 1 1' needs 0 <= a <= b <= alpha = 1/2"),
        ("extend", "bad.seed", "kind: seed\nalpha: 1\nrestrict: 1/2 1",
         "malformed seed line 'restrict: 1/2 1': expected "
         "'restrict: <a> <b> <value>'"),
        ("push", "bad.pl", "kind: plmap\ndomain: [0, 1]\ndomain: [0, 2]\n"
         "pt: 0 0", "repeated key 'domain' (line 4)"),
        ("push", "bad.pl", "kind: plmap\nextend: affine affine\n"
         "extend: constant constant\npt: 0 0",
         "repeated key 'extend' (line 4)"),
        ("push", "bad.pl", "kind: plmap\nspace: line\npt: 0 0",
         "unknown key 'space' in a plmap document (line 3)"),
    ], ids=["bar-zero-denominator", "point-zero-denominator",
            "circle-zero-denominator", "seed-zero-denominator",
            "seed-unknown-mode", "seed-negative-alpha", "seed-zero-alpha",
            "seed-restrict-reversed", "seed-restrict-past-alpha",
            "seed-restrict-negative", "seed-restrict-past-later-alpha",
            "seed-restrict-two-values", "plmap-second-domain",
            "plmap-second-extend", "plmap-unknown-key"])
    def test_bad_value_rejected(self, tmp_path, capsys, command, name, text,
                                message):
        doc = tmp_path / name
        doc.write_text(f"thicket/1\n{text}\n")
        good = tmp_path / "good.bc"
        good.write_text(serialize(barcode_doc(gb(bar(closed(0, 1))))))
        argv = {"dual": ["dual", str(doc)],
                "push": ["push", "--map", str(doc), str(good)],
                "fs": ["fs", str(doc)],
                "extend": ["extend", "--seed", str(doc), "--a", "1"]}[command]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


class TestDeterminism:
    def test_suite_byte_identical(self, tmp_path):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_command(["suite", "semigroup", "--seed", "7",
                            "--cases", "6", "--out", str(o1)]) == 0
        assert run_command(["suite", "semigroup", "--seed", "7",
                            "--cases", "6", "--out", str(o2)]) == 0
        a, b = o1.read_text(), o2.read_text()
        # timing column varies; everything else must match byte for byte
        strip = lambda text: "\n".join(",".join(l.split(",")[:-1])
                                       for l in text.splitlines())
        assert strip(a) == strip(b)


class TestInterleaveCommand:
    def test_found_and_not_found(self, docs, capsys):
        assert run_command(["interleave", "--a", "1", str(docs["F"]),
                            str(docs["G"])]) == 0
        assert "found: true" in capsys.readouterr().out
        assert run_command(["interleave", "--a", "1/2",
                            str(docs["F"]), str(docs["G"])]) == 0
        assert "found: false" in capsys.readouterr().out

    @staticmethod
    def _eight_bar_pair(docs):
        """An 8-bar barcode and its 1/4-thickening: 8 + 19 unknown blocks
        at 1/8, over the exhaustive cap of 24."""
        F = rand_bounded_barcode(random.Random(11), max_bars=8)
        paths = []
        for name, X in (("F8", F), ("G8", thicken(F, Fr(1, 4)))):
            paths.append(docs["tmp"] / f"{name}.bc")
            paths[-1].write_text(serialize(barcode_doc(X)))
        return [str(p) for p in paths]

    def test_search_over_the_cap_is_one_error_line(self, docs, capsys):
        paths = self._eight_bar_pair(docs)
        assert run_command(["interleave", "--a", "1/8"] + paths) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ")
        assert "exceed the cap" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_zero_shift_is_the_isomorphism_test(self, docs, capsys):
        paths = self._eight_bar_pair(docs)
        assert run_command(["interleave", "--a", "0"] + paths) == 0
        captured = capsys.readouterr()
        assert "found: false" in captured.out
        assert captured.err == ""
        assert run_command(["interleave", "--a", "0", paths[0], paths[0]]) == 0
        assert "found: true" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["interleave", "--a", "1"],
                                         ["lipschitz", "--map", "pl", "--a", "1"]])
    def test_two_fields_rejected(self, docs, capsys, command):
        G3 = docs["tmp"] / "G3.bc"
        G3.write_text(serialize(barcode_doc(gb(bar(singleton(1)), char=3))))
        argv = [str(docs[x]) if x in docs else x for x in command]
        assert run_command(argv + [str(docs["F"]), str(G3)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot interleave barcodes over F_2 "
                                "and F_3\n")


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    import thicket
    src = os.path.dirname(os.path.dirname(os.path.abspath(thicket.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, env.get("PYTHONPATH")) if x)
    return env


class TestNegativeShifts:
    """``--a -p/q`` reaches the command as the shift -p/q."""

    def test_thicken(self, docs, capsys):
        assert run_command(["thicken", "--a", "-1/2", str(docs["F"])]) == 0
        assert parse(capsys.readouterr().out).payload == gb(bar(closed(Fr(1, 2),
                                                                       Fr(3, 2))))

    def test_circle_thicken(self, docs, capsys):
        assert run_command(["circle-thicken", "--a", "-1/4", str(docs["C"])]) == 0
        assert parse(capsys.readouterr().out).payload == CircleSheaf(
            4, [Bar(closed(Fr(1, 4), Fr(3, 4)), 0)])

    def test_extend(self, docs, capsys):
        assert run_command(["extend", "--seed", "line", "--a", "-3/4",
                            str(docs["F"])]) == 0
        assert parse(capsys.readouterr().out).payload == gb(bar(closed(Fr(3, 4),
                                                                       Fr(5, 4))))

    def test_interleave(self, docs, capsys):
        # the shift is read, and then refused by the command, not by argparse
        assert run_command(["interleave", "--a", "-1/2", str(docs["F"]),
                            str(docs["G"])]) == 1
        assert capsys.readouterr().err == ("error: interleaving shift must be "
                                           "nonnegative\n")

    def test_lipschitz(self, docs, capsys):
        assert run_command(["lipschitz", "--map", str(docs["pl"]), "--a",
                            "-1/2", str(docs["F"]), str(docs["G"])]) == 1
        assert capsys.readouterr().err == ("error: interleaving shift must be "
                                           "nonnegative\n")

    def test_module_entry_point(self, docs):
        proc = subprocess.run(
            [sys.executable, "-m", "thicket.cli", "thicken", "--a", "-1/2",
             str(docs["F"])], capture_output=True, text=True, env=_src_env(),
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert parse(proc.stdout).payload == gb(bar(closed(Fr(1, 2), Fr(3, 2))))

    @pytest.mark.parametrize("value, code", [("-x", 2), ("abc", 1), ("1/0", 1),
                                             ("-1/0", 1), ("-1/2/3", 1)])
    def test_non_number_is_one_error_line(self, docs, capsys, value, code):
        assert run_command(["thicken", "--a", value, str(docs["F"])]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([l for l in err.splitlines() if "error" in l]) == 1


def test_runtime_imports_only_the_standard_library():
    """Importing the CLI, and so every module it reaches, loads nothing
    outside the standard library and the package itself."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import thicket.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "thicket" in loaded
    outside = loaded - set(sys.stdlib_module_names) - {"thicket"}
    assert not outside, sorted(outside)


# ---------------------------------------------------------------------------
# Fuzz: mutated valid documents end in exit 0 or 1, never in a traceback.

_FUZZ_BASES = (
    serialize(barcode_doc(gb(bar(closed(0, 2)), bar(half_open(Fr(1, 3), 4), 1),
                             bar(ray_right(-1)), bar(full_line(), 2),
                             bar(singleton(Fr(-5, 7))), char=3))),
    serialize(circle_doc(CircleSheaf(
        4, [Bar(closed(0, 1), 0), Bar(open_iv(Fr(1, 2), 3), 1),
            Bar(singleton(Fr(7, 2)), 0)],
        [(1, [[1]], 0), (2, [[0, 1], [1, 1]], 1)], 2))),
)
_FUZZ_ALPHABET = "0123456789-+/.,:;=[]() \nabcdefiklmnoprstyCx#"
_FUZZ_COMMANDS = (["thicken", "--a", "1/2"], ["thicken", "--a", "-3"],
                  ["dual"], ["rgamma"], ["rgamma", "--compact"], ["fs"],
                  ["fs", "--inverse"], ["circle-thicken", "--a", "5/4"],
                  ["circle-thicken", "--a=-1/3"])


def _mutate(text, edits):
    """Apply character edits (delete, insert, replace) and line edits
    (delete, duplicate, swap with the next line) in turn."""
    for op, pos, ch in edits:
        if op in ("del", "ins", "rep"):
            i = pos % (len(text) + 1)
            tail = text[i + 1:] if op != "ins" else text[i:]
            text = text[:i] + ("" if op == "del" else ch) + tail
            continue
        lines = text.split("\n")
        i = pos % len(lines)
        if op == "dup":
            lines.insert(i, lines[i])
        elif op == "drop":
            del lines[i]
        elif i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        text = "\n".join(lines)
    return text


_EDITS = st.lists(st.tuples(st.sampled_from(("del", "ins", "rep", "dup",
                                             "drop", "swap")),
                            st.integers(0, 400), st.sampled_from(_FUZZ_ALPHABET)),
                  min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FUZZ_BASES), _EDITS, st.sampled_from(_FUZZ_COMMANDS))
def test_mutated_documents_exit_0_or_1(tmp_path, base, edits, command):
    doc, out = tmp_path / "doc.txt", tmp_path / "out.txt"
    doc.write_text(_mutate(base, edits))
    assert run_command(command + [str(doc), "--out", str(out)]) in (0, 1)
