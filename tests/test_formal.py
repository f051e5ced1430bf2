"""Profiles, coefficient functors, windows, and the table derivations."""

import random

import pytest

from bredon import formal, sigmacx
from bredon.formal import (
    ATOM_TEXT,
    AXIOMS,
    Atom,
    ConditionalGroup,
    FieldProfile,
    FormalGroup,
    FormalRuleError,
    KMODSQ,
    KSQ,
    KSQMOD4,
    KSTAR,
    LesWindow,
    PROFILES,
    SEEDS,
    TORS2K,
    Z2,
    ZA,
    ZERO_FG,
    derive_weight1,
    derive_weight_sigma,
    get_profile,
    motivic_cohomology,
    nie_decompose,
    normalize,
    solve_window,
    tensor_Z2,
    two_torsion,
    universal_coeff,
)
from bredon.tables import parse_formal_group
from bredon.tables.checks import _formal_as_exact

GEN = PROFILES["general"]
QC = PROFILES["quadratically_closed"]
EU = PROFILES["euclidean"]
FR = PROFILES["formally_real"]


def fg(*atoms):
    return FormalGroup.of(*atoms)


def check_profile_confluence(profile) -> bool:
    """Normalization terminates and is idempotent on every atom."""
    base = [ZA, Z2, KSTAR, KSQ, KMODSQ, KSQMOD4, TORS2K]
    for a in base:
        seen = set()
        g = FormalGroup.of(a)
        for _ in range(16):
            if g.atoms in seen:
                raise FormalRuleError(f"profile {profile.name} cycles on {a}")
            seen.add(g.atoms)
            nxt = normalize(g, profile)
            if nxt == g:
                break
            g = nxt
        else:
            raise FormalRuleError(f"profile {profile.name} does not terminate on {a}")
        if normalize(g, profile) != g:
            raise FormalRuleError(f"profile {profile.name} not idempotent on {a}")
    return True


class TestNormalize:
    def test_zero_absorbed(self):
        assert fg(KSTAR).direct_sum(ZERO_FG) == fg(KSTAR)

    def test_square_classes_by_profile(self):
        assert normalize(fg(KMODSQ), QC) == ZERO_FG
        assert normalize(fg(KMODSQ), EU) == fg(Z2)
        assert normalize(fg(KMODSQ), FR) == fg(KMODSQ)

    def test_idempotent_and_confluent(self):
        for profile in PROFILES.values():
            assert check_profile_confluence(profile)
            for g in (fg(KSTAR, KMODSQ), fg(KSQ, TORS2K), fg(KSQMOD4, Z2)):
                once = normalize(g, profile)
                assert normalize(once, profile) == once


class TestCoefficientFunctors:
    def test_two_torsion_of_units(self):
        assert two_torsion(fg(KSTAR), EU) == fg(Z2)
        assert two_torsion(fg(KSTAR), GEN) == fg(TORS2K)

    def test_tensor_rules(self):
        assert tensor_Z2(fg(KSTAR), GEN) == fg(KMODSQ)
        assert tensor_Z2(fg(ZA), GEN) == fg(Z2)
        assert tensor_Z2(fg(KSQ), GEN) == fg(KSQMOD4)

    def test_two_torsion_of_squares_needs_predicate(self):
        assert two_torsion(fg(KSQ), QC) == fg(Z2)
        assert two_torsion(fg(KSQ), EU) == ZERO_FG
        with pytest.raises(FormalRuleError):
            two_torsion(fg(KSQ), GEN)

    def test_universal_coeff(self):
        assert universal_coeff(fg(Z2), fg(KMODSQ), GEN) == fg(Z2, KMODSQ)
        assert universal_coeff(fg(KSTAR), fg(Z2), EU) == fg(Z2, Z2)
        assert universal_coeff(ZERO_FG, ZERO_FG, GEN) == ZERO_FG


class TestNieDecomposition:
    def test_first_diagonal(self):
        assert nie_decompose(0, 1, 0) == fg(Z2)
        assert nie_decompose(-1, 1, 0) == fg(KSTAR)
        assert nie_decompose(5, 1, 0) == ZERO_FG

    def test_second_diagonal_integral(self):
        # direct summation of the decomposition: the only surviving layer is
        # the mod-2 piece in weight 0; the integral tail sits above its weight
        assert nie_decompose(0, 2, 0) == fg(Z2)

    def test_symbolic_fallback(self):
        # the second layer needs a mod-2 group in weight 2, outside the vocabulary
        with pytest.raises(FormalRuleError, match="degree 2 and weight 2"):
            nie_decompose(0, 2, 1)

    def test_guards(self):
        with pytest.raises(ValueError):
            nie_decompose(0, -1, 0)
        assert motivic_cohomology(2, 1, 2) == ZERO_FG
        assert motivic_cohomology(3, 2, 0) == ZERO_FG


class TestClosedVocabulary:
    """Seven atoms, one pass of rewrites, nothing past weight 1."""

    @pytest.mark.parametrize("kind", ["Et", "Mot", "z", "Z/2", ""])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=f"unknown atom kind {kind!r}"):
            Atom(kind)

    def test_rewrite_into_a_rewritten_atom_is_refused(self):
        with pytest.raises(ValueError, match="rewrites k\\*2 to an atom that it rewrites again"):
            FieldProfile("chained", {KSQ: (KSTAR,), KSTAR: (Z2,)}, "yes")

    def test_motivic_cohomology_stops_at_weight_one(self):
        with pytest.raises(FormalRuleError, match="degree 1 and weight 2"):
            motivic_cohomology(1, 2, 2)
        with pytest.raises(FormalRuleError, match="degree 0 and weight 3"):
            motivic_cohomology(0, 3, 0)
        assert motivic_cohomology(3, 2, 0) == ZERO_FG  # above the weight line
        assert motivic_cohomology(-1, 2, 2) == ZERO_FG  # mod 2 in a negative degree
        assert motivic_cohomology(5, -1, 0) == ZERO_FG
        low = {(a, w, c): motivic_cohomology(a, w, c)
               for a in range(-2, 3) for w in (0, 1) for c in (0, 2)}
        assert {k: g for k, g in low.items() if not g.is_zero()} == {
            (0, 0, 0): fg(ZA), (0, 0, 2): fg(Z2), (1, 1, 0): fg(KSTAR),
            (0, 1, 2): fg(Z2), (1, 1, 2): fg(KMODSQ)}
        with pytest.raises(ValueError, match=r"^coefficient 3 is neither 0 \(Z\)"):
            motivic_cohomology(0, 0, 3)

    def test_every_atom_text_parses_and_renders_back(self):
        for kind, text in ATOM_TEXT.items():
            g = parse_formal_group(text)
            assert g.atoms == (Atom(kind),) and g.render() == text
        # the table's order is the canonical order of a sum
        everything = " (+) ".join(ATOM_TEXT.values())
        assert parse_formal_group(" (+) ".join(reversed(ATOM_TEXT.values()))).render() \
            == everything


class TestSolveWindow:
    def test_zero_flanks(self):
        w = LesWindow.build([("0", ZERO_FG), (), ("X", None), (), ("0", ZERO_FG)])
        sol = solve_window(w, GEN)
        assert sol.ok and sol.values["X"] == ZERO_FG

    def test_multiplication_by_two_on_units(self):
        w = LesWindow.build([
            ("0", ZERO_FG), (), ("X", None), (),
            ("U1", fg(KSTAR)), ("mult2:Kstar",),
            ("U2", fg(KSTAR)), (), ("Y", None), (), ("0", ZERO_FG)])
        sol = solve_window(w, GEN)
        assert sol.ok
        assert sol.values["X"] == fg(TORS2K)
        assert sol.values["Y"] == fg(KMODSQ)
        sol_eu = solve_window(w, EU)
        assert sol_eu.values["X"] == fg(Z2)
        assert sol_eu.values["Y"] == fg(Z2)

    def test_unknowns_stay_unknown(self):
        w = LesWindow.build([("A", fg(ZA)), (), ("X", None), (), ("B", fg(ZA))])
        sol = solve_window(w, GEN)
        assert "X" in sol.unresolved and sol.ok

    def test_contradiction_reported(self):
        w = LesWindow.build([("0", ZERO_FG), (), ("X", fg(Z2)), (), ("0", ZERO_FG)])
        sol = solve_window(w, GEN)
        assert not sol.ok
        assert any("X" in c for c in sol.contradictions)

    def test_mult2_tag_checks_endpoints(self):
        w = LesWindow.build([("A", fg(Z2)), ("mult2:Kstar",), ("B", fg(KSTAR))])
        sol = solve_window(w, GEN)
        assert not sol.ok

    @pytest.mark.parametrize("tag", ["iso", "inj", "surj", "mult2:Z2", "mult2:Z"])
    def test_tags_outside_the_vocabulary_raise(self, tag):
        w = LesWindow.build([("A", fg(Z2)), (tag,), ("B", None)])
        with pytest.raises(ValueError, match=f"unknown arrow tag '{tag}'"):
            solve_window(w, GEN)

    def test_image_and_kernel_that_differ_are_one_contradiction(self):
        w = LesWindow.build([("A", fg(KSTAR)), ("mult2:Kstar",), ("B", fg(KSTAR)), ("incl-ksq",),
                             ("C", None)])
        sol = solve_window(w, GEN)
        assert sol.contradictions == ["exactness at B: image k*2 differs from kernel 0"]
        assert sol.unresolved == ["C"]

    def test_pass_cap_is_reported(self, monkeypatch):
        # the zero flanks settle X in the first pass; the second confirms it
        monkeypatch.setattr(formal, "_MAX_PASSES", 1)
        w = LesWindow.build([("0", ZERO_FG), (), ("X", None), (), ("0", ZERO_FG)])
        sol = solve_window(w, GEN)
        assert sol.contradictions == ["window 0 -> X -> 0: no fixed point after 1 passes"]
        monkeypatch.setattr(formal, "_MAX_PASSES", 2)
        assert solve_window(w, GEN).ok

    @pytest.mark.parametrize("derive", [derive_weight1, derive_weight_sigma])
    @pytest.mark.parametrize("coeff", [0, 2])
    def test_derivation_windows_reach_their_fixed_point(self, monkeypatch, derive, coeff):
        solutions = []

        def recording(window, profile):
            solutions.append(solve_window(window, profile))
            return solutions[-1]

        monkeypatch.setattr(formal, "solve_window", recording)
        for profile in (QC, EU, FR):
            derive(profile, 6, coeff)
        assert solutions and all(sol.ok for sol in solutions)


class TestNormalizeOnce:
    """Groups are normalized where they enter a window, and nowhere later."""

    # unnormalized under some profile: k*2, k*2/k*4, k*/k*2 and _2k* all rewrite
    GROUPS = [ZERO_FG, fg(ZA), fg(Z2), fg(KSTAR), fg(KSQ), fg(KMODSQ), fg(KSQMOD4),
              fg(TORS2K), fg(KSQ, KSQMOD4), fg(KSTAR, KMODSQ), fg(ZA, TORS2K)]
    TAGS = [(), (), ("zero",), ("mult2:Kstar",), ("incl-ksq",),
            ("axiom:A-comp", "axiom:A-delta-sq", "mult2:Kstar"), ("axiom:A-alpha", "zero"),
            ("axiom:A-diag", "incl-ksq")]

    @staticmethod
    def window(groups, tags):
        spec = [("N0", groups[0])]
        for i, (tag, g) in enumerate(zip(tags, groups[1:]), 1):
            spec += [tag, (f"N{i}", g)]
        return LesWindow.build(spec)

    @pytest.mark.parametrize("profile", list(PROFILES.values()), ids=list(PROFILES))
    def test_unnormalized_windows_solve_like_their_normal_forms(self, profile):
        rng = random.Random(20)
        resolved = solved = 0
        for _ in range(500):
            # half the nodes unknown, each end zero half the time
            groups = [rng.choice(self.GROUPS) if rng.random() < 0.5 else None
                      for _ in range(rng.randint(3, 7))]
            for end in (0, -1):
                groups[end] = ZERO_FG if rng.random() < 0.5 else groups[end]
            tags = [rng.choice(self.TAGS) for _ in groups[1:]]
            normal = [g if g is None else normalize(g, profile) for g in groups]
            raw = solve_window(self.window(groups, tags), profile)
            pre = solve_window(self.window(normal, tags), profile)
            assert (raw.values, raw.unresolved, raw.contradictions) == \
                (pre.values, pre.unresolved, pre.contradictions), (groups, tags)
            resolved += len(raw.values) - sum(g is not None for g in groups)
            solved += raw.ok
        # every rule of the solver fires on these windows, most of them many times
        assert resolved > 400 and solved > 50


def column(table, p, lo=-12, hi=14):
    return {a: table.entry(a, p).group for a in range(lo, hi)
            if table.entry(a, p).group is not None and not table.entry(a, p).group.is_zero()}


class TestDerivations:
    def test_weight1_positive_euclidean_row(self):
        pos = derive_weight1(EU, 4)["positive"]
        assert column(pos, 2) == {-1: fg(KSTAR), 0: fg(Z2), 1: fg(Z2)}
        assert column(pos, 3) == {-2: fg(Z2), -1: fg(Z2), 0: fg(Z2), 1: fg(Z2)}

    def test_weight1_negative_formally_real_row(self):
        neg = derive_weight1(FR, 5)["negative"]
        assert column(neg, -3) == {3: fg(Z2), 4: fg(KMODSQ)}
        assert column(neg, -4) == {3: fg(Z2), 4: fg(KMODSQ), 5: fg(KSTAR)}

    def test_weight_sigma_negative_quadratically_closed(self):
        neg = derive_weight_sigma(QC, 4)["negative"]
        assert column(neg, -3) == {3: fg(Z2)}
        assert column(neg, -4) == {3: fg(Z2), 5: fg(KSTAR)}
        # under a quadratically closed field the square classes vanish
        assert neg.entry(4, -3).group == ZERO_FG

    def test_weight_sigma_positive_base(self):
        pos = derive_weight_sigma(GEN, 2)["positive"]
        assert column(pos, 2) == {-1: fg(KSTAR), 0: fg(Z2)}
        assert column(pos, 0) == {1: fg(KSQ)}

    def test_positive_cone_needs_admissible_profile(self):
        tables = derive_weight1(FR, 4)
        assert tables["positive"].derived_shifts() == [0, 1]
        assert any("A-alpha" in note for note in tables["positive"].notes)
        # the negative cone is still fully derived
        assert min(tables["negative"].derived_shifts()) == -4

    def test_trails_are_complete_and_registered(self):
        known = set(AXIOMS) | set(SEEDS)
        for profile, deriver in ((EU, derive_weight1), (QC, derive_weight1),
                                 (FR, derive_weight1), (EU, derive_weight_sigma)):
            tables = deriver(profile, 6)
            for cone in tables.values():
                for p, col in cone.columns.items():
                    for a, entry in col.items():
                        assert entry.trail, (a, p)
                        assert set(entry.trail) <= known
                        # cited axioms must admit the active profile
                        for label in entry.trail:
                            if label in AXIOMS:
                                assert AXIOMS[label].admits(profile), (a, p, label)

    @pytest.mark.parametrize("deriver", [derive_weight1, derive_weight_sigma])
    def test_qclosed_mod2_cells_are_the_computed_weight0_groups(self, deriver):
        # over a quadratically closed field k*/k*2 = 0, so Z/2(1) and Z/2 agree and
        # every mod-2 cell of weight 1 or sigma is the weight-0 group mod 2 that
        # the orbit complexes give: the solver checked against the chain level,
        # with no fixture read
        n_max, cells = 8, 0
        for cone in deriver(QC, n_max, coeff=2).values():
            assert not cone.notes
            for p in cone.derived_shifts():
                for a in range(-n_max - 2, n_max + 3):
                    got = _formal_as_exact(cone.entry(a, p).group)
                    assert got == sigmacx.weight0(a, p, 2), (a, p)
                    cells += 1
        assert cells == 2 * (n_max + 1) * (2 * n_max + 5)

    def test_mod2_matches_universal_coefficients(self):
        integral = derive_weight1(EU, 5)["positive"]
        mod2 = derive_weight1(EU, 5, coeff=2)["positive"]
        for p in range(0, 5):
            for a in range(-7, 8):
                expect = universal_coeff(integral.entry(a, p).group,
                                         integral.entry(a + 1, p).group, EU)
                assert mod2.entry(a, p).group == expect


class TestInductionDriver:
    """The cases one induction step and one driver must keep for both weights."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"advance": 0, "solve_window": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(formal, "_advance", counting("advance", formal._advance))
        monkeypatch.setattr(formal, "solve_window",
                            counting("solve_window", formal.solve_window))
        return calls

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_weight1_depth_zero_and_one_run_no_step(self, monkeypatch, n_max):
        calls = self._count_calls(monkeypatch)
        tables = derive_weight1(EU, n_max)
        assert calls == {"advance": 0, "solve_window": 0}
        assert tables["positive"].derived_shifts() == list(range(n_max + 1))
        assert tables["negative"].derived_shifts() == list(range(-n_max, 1))
        if n_max:
            assert column(tables["negative"], -1) == {}
        assert all(not t.notes for t in tables.values())

    def test_weight_sigma_depth_zero_skips_the_base_window(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        tables = derive_weight_sigma(EU, 0)
        assert calls == {"advance": 0, "solve_window": 0}
        assert tables["positive"].derived_shifts() == [0]
        assert tables["negative"].derived_shifts() == [0]
        assert all(not t.notes for t in tables.values())

    def test_weight_sigma_depth_one_solves_only_the_base_window(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        tables = derive_weight_sigma(EU, 1)
        assert calls == {"advance": 0, "solve_window": 1}
        assert tables["negative"].derived_shifts() == [-1, 0]
        entry = tables["negative"].entry(2, -1)
        assert entry.group == normalize(fg(KMODSQ), EU)
        assert entry.trail == ("P-sigma", "A-EC2", "A-diag", "A-delta-sq", "LES")

    @pytest.mark.parametrize("derive", [derive_weight1, derive_weight_sigma])
    def test_only_z_and_z2_are_derived(self, derive):
        # any other coefficient used to return the integral tables unreduced
        for coeff in (3, 4, 1, -2):
            with pytest.raises(ValueError, match=rf"^coefficient {coeff} is neither 0 \(Z\) "
                                                 r"nor 2 \(Z/2\)$"):
                derive(EU, 2, coeff=coeff)

    @pytest.mark.parametrize("derive", [derive_weight1, derive_weight_sigma])
    def test_negative_depth_is_refused(self, derive):
        # it used to return two empty tables with no note
        with pytest.raises(ValueError, match="^the depth n_max must be at least 0, not -3$"):
            derive("qclosed", -3)

    @pytest.mark.parametrize("derive", [derive_weight1, derive_weight_sigma])
    @pytest.mark.parametrize("n_max", [0, 1])
    @pytest.mark.parametrize("coeff", [0, 2])
    def test_no_column_past_the_depth(self, derive, n_max, coeff):
        # the seeds reach p = 2, so a shallow derivation used to return them all
        for profile in (EU, QC, FR):
            tables = derive(profile, n_max, coeff=coeff)
            for cone, sign in (("positive", 1), ("negative", -1)):
                table = tables[cone]
                assert all(abs(p) <= n_max for p in table.derived_shifts()), (cone, profile)
                assert all(abs(p) <= n_max for p in table.column_trails), (cone, profile)
                assert 0 in table.derived_shifts()
                if n_max and not table.notes:
                    assert sign * n_max in table.derived_shifts(), (cone, profile)

    @pytest.mark.parametrize("derive", [derive_weight1, derive_weight_sigma])
    @pytest.mark.parametrize("coeff", [0, 2])
    def test_each_cone_holds_only_columns_of_its_sign(self, derive, coeff):
        # the front ends print and compare every column of a cone unfiltered
        for profile in PROFILES.values():
            for n_max in range(20):
                tables = derive(profile, n_max, coeff)
                for cone, sign in (("positive", 1), ("negative", -1)):
                    assert all(sign * p >= 0 for p in tables[cone].columns), (cone, n_max)
                    assert all(sign * p >= 0 for p in tables[cone].column_trails)

    @pytest.mark.parametrize("n_max", [0, 1, 8])
    def test_mod2_rule_error_leaves_its_cell_open_in_both_cones(self, n_max):
        rule = "2-torsion of k*2 needs to know whether -1 is a square (general)"
        tables = derive_weight_sigma("general", n_max, coeff=2)
        for table in tables.values():
            entry = table.columns[0][0]
            assert entry.group is None and entry.note == rule
            assert f"mod-2 entry (a=0, p=0): {rule}" in table.notes

    def test_failed_base_window_leaves_the_negative_cone_at_its_seed(self, monkeypatch):
        steps = []
        advance, solve = formal._advance, formal.solve_window

        def recording_advance(table, profile, p, step, *rest):
            steps.append(step)
            return advance(table, profile, p, step, *rest)

        def failing_base(window, profile):
            sol = solve(window, profile)
            if any("incl-ksq" in arrow.tags for arrow in window.arrows):
                sol.contradictions.append("forced")
            return sol

        monkeypatch.setattr(formal, "_advance", recording_advance)
        monkeypatch.setattr(formal, "solve_window", failing_base)
        tables = derive_weight_sigma(EU, 4)
        assert tables["negative"].derived_shifts() == [0]
        assert tables["negative"].notes == [
            "base window for the first negative column failed: forced"]
        assert tables["positive"].derived_shifts() == [0, 1, 2, 3, 4]
        assert steps == [1, 1]

    @pytest.mark.parametrize("derive, weight, positive, negative", [
        (derive_weight1, "1", [0, 1], [-3, -2, -1, 0]),
        (derive_weight_sigma, "sigma", [0, 1, 2, 3], [-1, 0]),
    ])
    def test_inadmissible_profile_stops_each_cone_with_notes(self, derive, weight,
                                                              positive, negative):
        tables = derive(GEN, 4)
        assert tables["positive"].derived_shifts() == positive
        assert tables["negative"].derived_shifts() == negative
        for cone, shifts, axiom in (("positive", positive, "A-alpha"),
                                    ("negative", negative,
                                     "A-alpha1" if weight == "1" else "A-tau")):
            p = max(shifts, key=abs)
            new_p = p + (1 if cone == "positive" else -1)
            where = f"weight-{weight} step {p} -> {new_p}"
            assert tables[cone].notes == [
                f"{where}: axiom {axiom} needs one of {AXIOMS[axiom].profiles}, "
                f"profile is general",
                f"{where}: column {new_p} left unresolved"]

    def test_weight_sigma_positive_cone_cites_a_comp_under_euclidean(self):
        pos = derive_weight_sigma(EU, 5)["positive"]
        comp = ("P-2q", "A-comp", "A-delta-sq", "LES")
        assert {a: e.trail for a, e in pos.columns[3].items()} == {
            -2: comp, -1: comp, 0: ("P-2q", "LES")}
        assert {a: e.trail for a, e in pos.columns[4].items()} == {
            -3: ("P-2q", "LES", "A-comp", "A-delta-sq", "A-alpha"),
            -2: ("P-2q", "LES", "A-comp", "A-delta-sq", "A-alpha"),
            -1: comp, 0: ("P-2q", "LES")}
        assert pos.column_trails[4] == ("P-2q", "LES")
        assert not pos.notes


class TestConditional:
    def test_resolution(self):
        cond = ConditionalGroup(fg(Z2), ZERO_FG)
        assert cond.resolve(QC) == fg(Z2)
        assert cond.resolve(EU) == ZERO_FG
        assert cond.resolve(GEN) is cond
        assert "if -1 is a square" in cond.render()

    def test_profile_aliases(self):
        assert get_profile("qclosed") is QC
        assert get_profile("freal") is FR
        with pytest.raises(ValueError):
            get_profile("imaginary")
