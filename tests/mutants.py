"""A mutation gate: every listed mutant of the package must fail a named test.

    python tests/mutants.py

Run from the root of a checkout, with pytest importable.  Each entry of
``MUTANTS`` is (module, exact source fragment, replacement, test node ids).
For each entry the harness copies ``src/`` to a temporary directory,
replaces the fragment there (it must occur exactly once in the module) and
runs only the named tests against the copy, through ``PYTHONPATH``, with
warnings as errors as tier-1 runs them.  The mutant is killed when every
named test fails (at some parameter, for a parametrized test).  The
harness exits 1 when a fragment no longer matches the source, when the
named tests fail on the unmutated copy, when a named test passes on its
mutant, or when a mutant breaks the run in another way (an import error, a
test id that collects nothing): so the list cannot rot silently.  The
mutants run one after the other, and the checkout is never written.

The file is not collected by pytest (its name does not start with
``test_``), and it uses the standard library only.  A change that adds a
fast path adds its mutant here, with the tests that must catch it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600

_ONE_COPY = ("tests/test_circle.py::TestCoveringCalculus::"
             "test_the_line_is_the_one_copy_case")
_SPACE_DIM = ("tests/test_circle.py::TestCoveringCalculus::"
              "test_space_dim_matches_oracle")
_STRUCT = ("tests/test_circle.py::TestCoveringCalculus::"
           "test_struct_scalar_matches_quiver")
_LINE_TRIPLES = ("tests/test_homcalc.py::TestLineRulesAgainstQuiver::"
                 "test_triples_with_nonzero_factors")
_UNBOUNDED = ("tests/test_circle.py::TestUnnormalizedLifts::"
              "test_unbounded_lifts_rejected")
_ELDER = ("tests/test_plmaps.py::TestElderRule::"
          "test_sweeps_match_the_union_find")
_BAR_ROWS = ("tests/test_plmaps.py::TestElderRule::"
             "test_bar_rows_match_the_union_find_route")
_THICKEN_ORACLE = ("tests/test_thicken.py::TestFrameNative::"
                   "test_thicken_matches_the_per_bar_oracle")
_DUALIZE_ORACLE = ("tests/test_thicken.py::TestFrameNative::"
                   "test_dualize_matches_the_per_bar_oracle")
_PARSE_VALID = ("tests/test_io.py::TestFramedParse::"
                "test_valid_documents_match_the_per_bar_route")
_PARSE_ERRORS = ("tests/test_io.py::TestFramedParse::"
                 "test_errors_match_the_per_bar_route")
_PARSE_FIRST = ("tests/test_io.py::TestFramedParse::"
                "test_the_first_offending_line_names_the_error")
_INT_FRAME = ("tests/test_barcode.py::TestIntFrame::"
              "test_factor_multiplies_the_lcm")
_READ_BACK = [
    "tests/test_interleave.py::TestCheckInterleaving::"
    "test_matching_certificates_verify",
    "tests/test_interleave.py::TestBisection::"
    "test_distance_matches_linear_scan",
    "tests/test_interleave.py::"
    "test_frame_checked_witnesses_pass_the_fraction_check",
    _THICKEN_ORACLE]

MUTANTS = [
    # the Hom calculus of both spaces (``morphisms``): the deck-copy range
    # loses its last copy
    ("thicket/morphisms.py",
     "(ivA.right - ivB.left) // C + 1):",
     "(ivA.right - ivB.left) // C):",
     [_ONE_COPY, _SPACE_DIM]),
    # an Ext composite drops its factor's sign
    ("thicket/morphisms.py",
     'return ("e", factor * _at(dims[2], n + m)[1] % p)',
     'return ("e", _at(dims[2], n + m)[1] % p)',
     [_LINE_TRIPLES]),
    # a Hom composite is read off copy n of (A, C) instead of copy n + m
    ("thicket/morphisms.py",
     "hom = _at(dims[2], n + m)[0]",
     "hom = _at(dims[2], n)[0]",
     [_STRUCT]),
    # an Ext composite is read off copy n of (A, C) instead of copy n + m
    ("thicket/morphisms.py",
     'factor * _at(dims[2], n + m)[1] % p',
     'factor * _at(dims[2], n)[1] % p',
     [_STRUCT]),
    # a two-dimensional Hom space passes as supported
    ("thicket/morphisms.py",
     "if dims[0] > 1 or dims[1] > 1:",
     "if dims[0] > 2 or dims[1] > 1:",
     [_SPACE_DIM]),
    # an unbounded circle lift reaches the deck-copy arithmetic
    ("thicket/morphisms.py",
     "    if not iv.is_bounded:\n",
     "    if False:\n",
     [_UNBOUNDED]),
    # the line Ext generator's sign: +1 when K's right end is I's alone
    ("thicket/morphisms.py",
     "        return 0, 1\n    return 0, -1",
     "        return 0, -1\n    return 0, -1",
     ["tests/test_homcalc.py::TestExtConvention::"
      "test_line_rules_reproduce_the_line_rows", _LINE_TRIPLES]),
    # the bar rule (``thicken.rule_row``, on Fractions and in a frame): a
    # closed bar shrinks to a point, not past; the frame path builds the
    # empty open gap unchecked, which its checked rebuild refuses
    ("thicket/thicken.py",
     "        if lo <= hi:\n            return lo, CLOSED, hi, CLOSED, d",
     "        if lo < hi:\n            return lo, CLOSED, hi, CLOSED, d",
     ["tests/test_thicken.py::TestRuleExamples::"
      "test_closed_negative_boundary_is_midpoint", _THICKEN_ORACLE]),
    # an open bar turns closed when it reaches a point
    ("thicket/thicken.py",
     "    if lo < hi:\n        return lo, OPEN, hi, OPEN, d",
     "    if lo <= hi:\n        return lo, OPEN, hi, OPEN, d",
     ["tests/test_thicken.py::TestRuleExamples::test_open_collapse_to_point"]),
    # ``thicken`` runs the rule on frame ends with the shift unscaled
    ("thicket/thicken.py",
     "    a = values.pop()\n",
     "    values.pop()\n",
     [_THICKEN_ORACLE]),
    # a half-open bar dies once the translation reaches its length
    ("thicket/thicken.py",
     "(beta - alpha) >= iv.length",
     "(beta - alpha) > iv.length",
     ["tests/test_homcalc.py::TestRestrictionVanishing::"
      "test_vanishing_iff_hom_space_dies"]),
    # the search (``interleave``): a pair at cost t is a candidate at t
    ("thicket/interleave.py",
     "[[j for c, j in row if c <= t] for row in rows]",
     "[[j for c, j in row if c < t] for row in rows]",
     ["tests/test_interleave.py::TestDistance::test_skyscraper_exact"]),
    # an F bar past its kill cost may go unmatched
    ("thicket/interleave.py",
     "adj[i] + ([nG + i] if kill_F[i] else [])",
     "adj[i] + []",
     ["tests/test_interleave.py::TestDistance::test_halfopen_to_zero"]),
    # a G bar past its kill cost may go unmatched
    ("thicket/interleave.py",
     "[[j] + slots if kill_G[j] else slots for j in range(nG)]",
     "[[j] + slots for j in range(nG)]",
     ["tests/test_interleave.py::TestDistance::test_symmetry"]),
    # a row is reached only by a nonzero composite on its own block
    ("thicket/interleave.py",
     "if (_unit_blocks(x, y, p, space)\n"
     "                            and _composite(x, y, x, p, space)):",
     "if _unit_blocks(x, y, p, space):",
     ["tests/test_interleave.py::test_row_test_agrees_with_full_row_check"]),
    # the certificate check on the lift rows reads the f side only
    ("thicket/interleave.py",
     "((*lifts, *blocks), (*lifts[::-1], *blocks[::-1]))",
     "((*lifts, *blocks),)",
     ["tests/test_interleave.py::"
      "test_frame_checked_witnesses_pass_the_fraction_check"]),
    # the read-back of a frame value (``scalars.from_frame``, which
    # certificates call and ``thicken``'s ``FrameReader`` keeps): M off by one
    ("thicket/scalars.py",
     "return x if type(x) is float else Fraction(x, m)",
     "return x if type(x) is float else Fraction(x, m + 1)",
     _READ_BACK),
    # the bars read back from rows (``barcode.rows_barcode``, which a
    # certificate's tables, ``thicken``, ``dualize``, the push and the parse
    # all end in): a swapped end kind
    ("thicket/barcode.py",
     "trusted_interval(back(lo), kinds[lo_open], back(hi),",
     "trusted_interval(back(lo), kinds[hi_open], back(hi),",
     _READ_BACK + [_PARSE_VALID]),
    # the finisher leaves the rows in the order they came
    ("thicket/barcode.py",
     "    keys = sorted([(d, lo, lk is OPEN, hi, rk is OPEN)",
     "    keys = list([(d, lo, lk is OPEN, hi, rk is OPEN)",
     [_THICKEN_ORACLE, _DUALIZE_ORACLE, _PARSE_VALID]),
    # the parse's frame check (``docio._framed_barcode``) takes a bar whose
    # ends are equal for a point, whatever their kinds
    ("thicket/docio.py",
     "left != right or lk is not CLOSED or rk is not CLOSED\n",
     "left != right\n",
     [_PARSE_ERRORS, _PARSE_FIRST]),
    # ``scalars.int_frame`` scales every numerator by M over the least
    # denominator, not by M over its own
    ("thicket/scalars.py",
     "scale = {q: m // q for q in dens}",
     "scale = {q: m // min(dens) for q in dens}",
     [_INT_FRAME, _THICKEN_ORACLE, _PARSE_VALID]),
    # a row with an unusable partner refutes nothing
    ("thicket/interleave.py",
     "                if unusable is None:\n                    return True",
     "                if True:\n                    return True",
     ["tests/test_interleave.py::test_a_composite_the_other_side_cannot_use_"
      "does_not_hide_a_refutation"]),
    # the integer keys of the canonical order (``barcode``)
    ("thicket/barcode.py",
     "hi, b.iv.rkind is OPEN)",
     "hi, b.iv.rkind is CLOSED)",
     ["tests/test_barcode.py::TestCanonicalIndices::test_ends_in_any_frame"]),
    # ``dualize`` flips the kind of an infinite end too, unchecked
    ("thicket/barcode.py",
     "    if is_finite(left):\n        lk = OPEN if lk is CLOSED else CLOSED",
     "    if True:\n        lk = OPEN if lk is CLOSED else CLOSED",
     [_DUALIZE_ORACLE]),
    # a huge frame is scaled into and read back through a big-int gcd per
    # end, not left as the identity frame
    ("thicket/barcode.py",
     "    frame = (int_frame(values, max_bits=_KEY_BITS)",
     "    frame = (int_frame(values)",
     ["tests/test_thicken.py::test_a_huge_frame_thickens_in_oracle_time"]),
    # push's frame (``plmaps._Frame``) scales the values by the widths' lcm
    ("thicket/plmaps.py",
     "vs = [w * d for w in ws]",
     "vs = list(ws)",
     ["tests/test_plmaps.py::TestZigzagOracle::test_coprime_denominators"]),
    # push's elder rule (``plmaps._elder``): an unattained end no longer
    # counts as the ground
    ("thicket/plmaps.py",
     "ground = (j == 0 and not first) or (j == n - 1 and not last)",
     "ground = False",
     [_ELDER, _BAR_ROWS,
      "tests/test_plmaps.py::TestPushforward::test_open_end_below_the_maximum"]),
    # a monotone bar swaps the kinds of its image's ends
    ("thicket/plmaps.py",
     "(a, CLOSED if ka else OPEN, b, CLOSED if kb else OPEN, d)",
     "(a, CLOSED if kb else OPEN, b, CLOSED if ka else OPEN, d)",
     [_BAR_ROWS, "tests/test_plmaps.py::TestPushforward::test_identity"]),
    # ``parse_extended``'s fast path keeps the sign; the Hypothesis test must
    # report its failure under -W error, not end the run internally
    ("thicket/scalars.py",
     "return Fraction(int(num), int(den) if slash else 1)",
     "return Fraction(int(digits), int(den) if slash else 1)",
     ["tests/test_io.py::TestLiterals::test_agrees_with_fraction",
      "tests/test_io.py::TestLiterals::test_agrees_with_fraction_on_random_text"]),
]


def _copy_src(into: str) -> str:
    src = os.path.join(into, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run_tests(src: str, ids):
    """(pytest's exit status, the ids of the failed tests) on ``ids``
    against the package in ``src``; the status is None when the run passes
    ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-W", "error", "-m", "pytest", "-q", "-rf",
           "-p", "no:cacheprovider", *ids]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, []
    return run.returncode, [line.split()[1] for line in run.stdout.splitlines()
                            if line.startswith("FAILED ")]


def _stale() -> list:
    out = []
    for module, fragment, _, _ in MUTANTS:
        with open(os.path.join(ROOT, "src", module)) as fh:
            count = fh.read().count(fragment)
        if count != 1:
            out.append(f"{module}: fragment {fragment!r} occurs {count} times")
    return out


def main() -> int:
    stale = _stale()
    for line in stale:
        print("STALE", line)
    if stale:
        return 1
    ids = sorted({i for *_, tests in MUTANTS for i in tests})
    with tempfile.TemporaryDirectory(prefix="thicket-mutants-") as tmp:
        if _run_tests(_copy_src(tmp), ids)[0] != 0:
            print("BROKEN the named tests fail on the unmutated source")
            return 1
    bad = 0
    for k, (module, fragment, replacement, tests) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory(prefix="thicket-mutants-") as tmp:
            src = _copy_src(tmp)
            path = os.path.join(src, module)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(fragment, replacement))
            start = time.perf_counter()
            status, failed = _run_tests(src, tests)
            took = time.perf_counter() - start
        missed = [i for i in tests
                  if not any(f == i or f.startswith(i + "[") for f in failed)]
        if status is None:
            verdict = "killed (timeout)"
        elif status not in (0, 1):
            verdict = f"BROKEN (pytest exit {status})"
        elif missed:
            verdict = "SURVIVED" if len(missed) == len(tests) else "PASSED some"
        else:
            verdict = "killed"
        for i in missed:
            print(f"   {i} passed on the mutant below")
        bad += not verdict.startswith("killed")
        print(f"{k:2d} {verdict:<18} {took:6.1f}s  {module}: "
              f"{fragment.strip()!r} -> {replacement.strip()!r}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
