import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from designbench import classify, jsonio
from designbench.classify import (
    CapabilityLevel,
    Method,
    MethodCapabilities,
    ProblemProfile,
    Verdict,
)
from designbench.funcstruct import SchemaError
from designbench.novelty import DesignCategory
from conftest import load_fixture_bytes

NOVELTIES = (DesignCategory.ROUTINE, DesignCategory.INNOVATIVE, DesignCategory.CREATIVE)


def profile(decomposable=True, pi=Fraction(0), novelty=DesignCategory.ROUTINE):
    if not decomposable:
        pi = None
    return ProblemProfile(decomposable, pi, novelty)


class TestDefaultMatrix:
    def test_three_method_rows(self):
        assert len(classify.default_matrix()) == 3
        assert {row.method for row in classify.default_matrix()} == set(Method)

    def test_no_method_reaches_creativity(self):
        assert all(row.creativity is CapabilityLevel.NONE
                   for row in classify.default_matrix())

    def test_analogy_innovation_is_limited(self):
        row = next(r for r in classify.default_matrix()
                   if r.method is Method.ANALOGY_BASED)
        assert row.innovation is CapabilityLevel.LIMITED

    def test_all_require_decomposability(self):
        assert all(row.requires_decomposable for row in classify.default_matrix())


class TestRecommend:
    def test_innovative_profile_splits_methods(self):
        report = classify.recommend(profile(novelty=DesignCategory.INNOVATIVE))
        verdicts = {e.method: e.verdict for e in report.entries}
        assert verdicts[Method.GRAMMAR_BASED] is Verdict.APPLICABLE
        assert verdicts[Method.FUNCTIONAL_SYNTHESIS] is Verdict.APPLICABLE
        assert verdicts[Method.ANALOGY_BASED] is Verdict.LIMITED

    def test_creative_profile_defeats_everything(self):
        report = classify.recommend(
            profile(pi=Fraction(3, 7), novelty=DesignCategory.CREATIVE)
        )
        assert report.applicable() == ()
        assert all(e.verdict is Verdict.INAPPLICABLE for e in report.entries)
        assert all("knowledge base" in e.rationale for e in report.entries)

    def test_nondecomposable_profile_defeats_everything(self):
        report = classify.recommend(profile(decomposable=False))
        assert report.applicable() == ()
        assert all("black box" in e.rationale for e in report.entries)

    def test_routine_decomposable_suits_all(self):
        report = classify.recommend(profile())
        assert len(report.applicable()) == 3

    def test_pi_annotates_but_never_flips(self):
        for novelty in NOVELTIES:
            verdicts = set()
            for pi in (Fraction(0), Fraction(3, 7), Fraction(1)):
                report = classify.recommend(profile(pi=pi, novelty=novelty))
                verdicts.add(tuple(e.verdict for e in report.entries))
            assert len(verdicts) == 1

    def test_creative_gap_over_all_profile_combinations(self):
        for decomposable, novelty in product((True, False), NOVELTIES):
            report = classify.recommend(profile(decomposable=decomposable,
                                                novelty=novelty))
            if novelty is DesignCategory.CREATIVE:
                assert report.applicable() == ()

    def test_monotone_in_capability_level(self):
        order = {Verdict.INAPPLICABLE: 0, Verdict.LIMITED: 1, Verdict.APPLICABLE: 2}
        base_row = MethodCapabilities(Method.ANALOGY_BASED, True,
                                      CapabilityLevel.FULL, CapabilityLevel.NONE,
                                      CapabilityLevel.NONE)
        for novelty in NOVELTIES:
            prof = profile(novelty=novelty)
            previous = None
            for level in (CapabilityLevel.NONE, CapabilityLevel.LIMITED,
                          CapabilityLevel.FULL):
                row = MethodCapabilities(base_row.method, True,
                                         CapabilityLevel.FULL, level, level)
                verdict = classify.recommend(prof, (row,)).entries[0].verdict
                if previous is not None:
                    assert order[verdict] >= order[previous]
                previous = verdict

    def test_raised_creativity_in_custom_matrix_applies(self):
        row = MethodCapabilities(Method.GRAMMAR_BASED, True, CapabilityLevel.FULL,
                                 CapabilityLevel.FULL, CapabilityLevel.FULL)
        report = classify.recommend(profile(novelty=DesignCategory.CREATIVE), (row,))
        assert report.entries[0].verdict is Verdict.APPLICABLE

    def test_recommendation_grid_digest_is_pinned(self):
        # sha256 over the JSON reports of 12 profiles against the default
        # matrix and every single-row matrix (3 methods x 2 decomposability
        # needs x 27 levels), 1,956 reports: pins every verdict and rationale
        profiles = [ProblemProfile(decomposable, pi, novelty)
                    for (decomposable, pi), novelty in product(
                        ((True, Fraction(1, 2)), (True, Fraction(0)),
                         (False, None), (False, Fraction(1))), NOVELTIES)]
        matrices = [None] + [
            (MethodCapabilities(method, requires, *levels),)
            for method, requires, levels in product(
                Method, (False, True), product(CapabilityLevel, repeat=3))]
        digest = hashlib.sha256()
        for prof, matrix in product(profiles, matrices):
            report = classify.report_to_dict(classify.recommend(prof, matrix))
            digest.update(jsonio.dumps(report).encode())
        assert digest.hexdigest() == \
            "42f153201f1a6a6db1e552989f0b979b67d2d5bc1cd139852960c4f1b4bba000"


class TestProfileValidation:
    def test_decomposable_needs_pi(self):
        with pytest.raises(ValueError):
            ProblemProfile(True, None, DesignCategory.ROUTINE)

    def test_blackbox_annotation_limited_to_zero_or_one(self):
        ProblemProfile(False, Fraction(1), DesignCategory.ROUTINE)
        with pytest.raises(ValueError):
            ProblemProfile(False, Fraction(1, 2), DesignCategory.ROUTINE)

    def test_pi_a_report_cannot_print_is_rejected(self):
        # 4,300 digits, the default integer string limit, print; 4,301 do not
        recommended = classify.recommend(
            ProblemProfile(True, Fraction(1, 10**4299), DesignCategory.ROUTINE))
        assert len(recommended.entries[0].rationale) > 4300
        with pytest.raises(ValueError, match="more digits than a report can print"):
            ProblemProfile(True, Fraction(1, 10**4300), DesignCategory.ROUTINE)

    def test_not_valuable_is_not_a_profile_novelty(self):
        with pytest.raises(ValueError):
            ProblemProfile(True, Fraction(0), DesignCategory.NOT_VALUABLE)

    def test_fixture_profiles_parse(self):
        creative = classify.parse_profile(load_fixture_bytes("creative.profile.json"))
        assert creative.novelty is DesignCategory.CREATIVE
        assert creative.pi == Fraction(3, 7)
        blackbox = classify.parse_profile(
            load_fixture_bytes("blackbox_routine.profile.json"))
        assert not blackbox.decomposable and blackbox.pi is None

    def test_duplicate_method_rows_rejected(self):
        row = {"method": "grammar_based", "requires_decomposable": True,
               "interdependencies": "full", "innovation": "full", "creativity": "full"}
        other = dict(row, method="analogy_based")
        with pytest.raises(SchemaError) as err:
            classify.parse_matrix(json.dumps([row, other, dict(row, creativity="none")]))
        assert str(err.value) == "$[2].method: duplicate method 'grammar_based'"

    def test_matrix_override_parses(self):
        doc = [{"method": "grammar_based", "requires_decomposable": False,
                "interdependencies": "full", "innovation": "full",
                "creativity": "limited"}]
        matrix = classify.parse_matrix(json.dumps(doc))
        assert matrix[0].creativity is CapabilityLevel.LIMITED
        report = classify.recommend(profile(decomposable=False), matrix)
        assert report.entries[0].verdict is Verdict.APPLICABLE
