import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    BraidWord,
    CoverCertificate,
    GroupPresentation,
    IntMatrix,
    MontesinosLink,
    Orbifold2D,
    SeifertSymbol,
    Slope,
    SurfaceData,
    case_analysis_report,
    count_representations,
    disk_cases,
    enumerate_constrained_slopes,
    link_from_json,
    ln_link,
    presentation_from_json,
    prism_case_analysis,
    prism_fibrations,
    prism_row_stream,
    prism_rows,
    prism_verify,
    riemann_hurwitz_cover,
    symbol_from_json,
    twisted_torus_braid,
    word_from_json,
)
from prismvol.reader import check, loads, read
from prismvol.seifert import remove_fiber
from support import fiber_pairs_st, presentations_st, symbols_st

SYMBOL = {"class": "Oo", "genus": 0, "fibers": [[1, 2], [-1, 2], [-2, 3]]}


class TestCheck:
    @pytest.mark.parametrize("value", [True, 2.0, "2", None, [2], {"n": 2}])
    def test_integer_is_exact(self, value):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            check(value, int, "n")

    @pytest.mark.parametrize("value", [0, 1, "false", None])
    def test_boolean_is_exact(self, value):
        with pytest.raises(ValueError, match="^b must be a boolean$"):
            check(value, bool, "b")

    def test_arrays_become_tuples(self):
        assert check([[1, 2], [3, 4]], [(int, int)], "p") == ((1, 2), (3, 4))
        assert check([], [int], "p") == ()

    def test_fixed_length(self):
        with pytest.raises(ValueError, match=r"^p\[1\] must be an array of 2 elements$"):
            check([[1, 2], [1, 2, 3]], [(int, int)], "p")

    def test_path_names_the_element(self):
        with pytest.raises(ValueError, match=r"^p\[0\]\[2\] must be an integer$"):
            check([[1, 2, True]], [[int]], "p")

    def test_tuple_is_accepted(self):
        assert check((1, 2), [int], "p") == (1, 2)
        assert check((1, 2), (int, int), "p") == (1, 2)

    def test_list_and_tuple_nesting_mix(self):
        assert check([(1, 2), [3, 4]], [(int, int)], "p") == ((1, 2), (3, 4))
        assert check(([1], (2, 3)), [[int]], "p") == ((1,), (2, 3))

    def test_dict_is_refused(self):
        with pytest.raises(ValueError, match=r"^p\[0\] must be a list or a tuple, got \{1: 2\}$"):
            check([{1: 2}], [(int, int)], "p")

    def test_generator_is_refused_not_drained(self):
        letters = (letter for letter in (1, 2))
        with pytest.raises(ValueError, match="^p must be a list or a tuple, got <generator"):
            check(letters, [int], "p")
        assert list(letters) == [1, 2]


class TestRead:
    FIELDS = {"a": int, "b": [str]}

    def test_values_in_field_order(self):
        assert read({"b": ["x"], "a": 1}, "thing", self.FIELDS) == (1, ("x",))

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="^thing: expected a JSON object$"):
            read([1, ["x"]], "thing", self.FIELDS)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="^thing: unknown field 'c'$"):
            read({"a": 1, "b": [], "c": 0}, "thing", self.FIELDS)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="^thing: missing field 'b'$"):
            read({"a": 1}, "thing", self.FIELDS)

    def test_no_field_has_a_default(self):
        with pytest.raises(TypeError):
            read({"a": 1}, "thing", self.FIELDS, {"b": []})


class TestLoads:
    def test_duplicate_key_refused_at_any_depth(self):
        with pytest.raises(ValueError, match="duplicate key 'b'"):
            loads('{"a": {"b": 1, "b": 1}}')

    def test_agrees_with_json_loads(self):
        text = json.dumps({"a": [1, -2, {"b": None}], "c": "d"})
        assert loads(text) == json.loads(text)


class TestParsers:
    def test_symbol_path_in_message(self):
        bad = {"class": "Oo", "genus": 0, "fibers": [[1, 2], [True, 3]]}
        with pytest.raises(ValueError, match=r"^symbol: fibers\[1\]\[0\] must be an integer$"):
            symbol_from_json(bad)

    @pytest.mark.parametrize("genus", ["2", 2.9, 2.0, True, None, [1]])
    def test_symbol_genus_not_coerced(self, genus):
        with pytest.raises(ValueError, match="^symbol: genus must be an integer$"):
            symbol_from_json({**SYMBOL, "genus": genus})

    def test_symbol_misspelled_field(self):
        bad = {"class": "Oo", "genuss": 0, "fibers": []}
        with pytest.raises(ValueError, match="^symbol: unknown field 'genuss'$"):
            symbol_from_json(bad)

    def test_symbol_duplicate_field(self):
        with pytest.raises(ValueError, match="duplicate key 'genus'"):
            symbol_from_json(loads('{"class": "Oo", "genus": 0, "genus": 1, "fibers": []}'))

    def test_orbifold_orientable_string_refused(self):
        with pytest.raises(ValueError, match="^orientable must be a boolean$"):
            Orbifold2D("false", 1, 1)

    def test_presentation_boolean_generators_refused(self):
        with pytest.raises(ValueError, match="^presentation: generators must be an integer$"):
            presentation_from_json({"generators": True, "relators": []})

    def test_link_and_word_refuse_floats(self):
        with pytest.raises(ValueError, match=r"tangles\[0\]\[1\]"):
            link_from_json({"genus": 0, "tangles": [[1, 2.0]]})
        with pytest.raises(ValueError, match="strands"):
            word_from_json({"strands": 3.0, "letters": []})


class TestRoundTrips:
    @given(symbols_st())
    @settings(max_examples=60)
    def test_symbol(self, s):
        assert symbol_from_json(loads(json.dumps(s.to_json()))) == s

    @given(presentations_st())
    @settings(max_examples=40)
    def test_presentation(self, data):
        pres = GroupPresentation(*data)
        assert presentation_from_json(loads(json.dumps(pres.to_json()))) == pres


def _locations(array: list, path: tuple = ()):
    """(path, value) of a JSON array, of each array in it and of each leaf."""
    yield path, array
    for i, value in enumerate(array):
        if type(value) is list:
            yield from _locations(value, (*path, i))
        else:
            yield (*path, i), value


def _tuples(value):
    return tuple(map(_tuples, value)) if type(value) is list else value


_WORDS_ST = st.integers(2, 5).flatmap(
    lambda n: st.builds(
        lambda letters: BraidWord(n, tuple(letters)),
        st.lists(st.sampled_from([i for i in range(1 - n, n) if i]), max_size=6),
    )
)
_LINKS_ST = st.builds(
    lambda genus, tangles: MontesinosLink(genus, tuple(tangles)),
    st.integers(0, 2),
    st.lists(fiber_pairs_st(), min_size=1, max_size=4),
)
# what, its reader, its constructor on the fields, its array field, whether
# that field holds pairs, and valid records
_RECORDS = {
    "symbol": (
        symbol_from_json,
        lambda d: SeifertSymbol(d["class"], d["genus"], d["fibers"]),
        "fibers",
        True,
        symbols_st(),
    ),
    "montesinos link": (
        link_from_json,
        lambda d: MontesinosLink(d["genus"], d["tangles"]),
        "tangles",
        True,
        _LINKS_ST,
    ),
    "braid word": (
        word_from_json,
        lambda d: BraidWord(d["strands"], d["letters"]),
        "letters",
        False,
        _WORDS_ST,
    ),
    "presentation": (
        presentation_from_json,
        lambda d: GroupPresentation(d["generators"], d["relators"]),
        "relators",
        False,
        presentations_st().map(lambda data: GroupPresentation(*data)),
    ),
}


class TestOneRule:
    """JSON input and the constructors refuse the same arrays through
    ``reader.check``, naming the same element path."""

    @given(st.data())
    @settings(max_examples=300)
    def test_json_refuses_what_the_constructor_refuses(self, data):
        what = data.draw(st.sampled_from(sorted(_RECORDS)))
        from_json, build, field, pairs, records = _RECORDS[what]
        obj = data.draw(records).to_json()
        # the constructor takes tuples as well as lists
        as_tuples = data.draw(st.booleans())
        fields = (lambda d: {**d, field: _tuples(d[field])}) if as_tuples else (lambda d: d)
        assert from_json(obj) == build(fields(obj))

        path, value = data.draw(st.sampled_from(list(_locations(obj[field]))))
        if type(value) is not list:
            bad = [True, 2.0, "2", None]
        elif pairs and len(path) == 1:
            bad = [5, "2", None, {}, [], [1], [1, 2, 3]]
        else:
            bad = [5, "2", None, {}]
        broken = json.loads(json.dumps(obj))
        parent, key = broken, field
        for i in path:
            parent, key = parent[key], i
        parent[key] = data.draw(st.sampled_from(bad))
        with pytest.raises(ValueError) as json_refusal:
            from_json(broken)
        with pytest.raises(ValueError) as refusal:
            build(fields(broken))
        assert str(json_refusal.value) == f"{what}: {refusal.value}"
        assert str(refusal.value).startswith(field + "".join(f"[{i}]" for i in path) + " ")


class TestConstructors:
    """The Python API holds the reader's rule: exact types, nothing coerced."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: SeifertSymbol("Oo", 0, ((1.5, 2),)), "fibers"),
            (lambda: SeifertSymbol("Oo", 0, ((1, True),)), "fibers"),
            (
                lambda: SeifertSymbol("Oo", 0, ((1, 2, 3),)),
                r"^fibers\[0\] must be an array of 2 elements$",
            ),
            (lambda: SeifertSymbol("Oo", "0", ()), "genus"),
            (lambda: SeifertSymbol("Oo", 0.0, ()), "genus"),
            (lambda: MontesinosLink(0, ((1, 2.0),)), "tangles"),
            (
                lambda: MontesinosLink(0, ((1,),)),
                r"^tangles\[0\] must be an array of 2 elements$",
            ),
            (lambda: MontesinosLink(False, ((1, 2),)), "genus"),
            (lambda: BraidWord(3, (1.9, True)), "letters"),
            (lambda: BraidWord(3, (True,)), "letters"),
            (lambda: BraidWord(3.0, (1,)), "strands"),
            (lambda: GroupPresentation(True, ((1,),)), "generators"),
            (lambda: GroupPresentation(2, ((1, "2"),)), "relators"),
            (lambda: SurfaceData(2.5, 1), "genus"),
            (lambda: SurfaceData(2, True), "boundary"),
            (lambda: SurfaceData(2, 1, 1), "orientable"),
            (lambda: Orbifold2D(1, 0, 1, ()), "orientable"),
            (lambda: Orbifold2D(True, "0", 1, ()), "genus"),
            (lambda: Orbifold2D(True, 0, 1.0, ()), "boundary"),
            (lambda: Orbifold2D(True, 0, 1, (2.0, 3)), "cones"),
            (lambda: Slope(True, 0), "slope p"),
            (lambda: Slope(1.0, 0), "slope p"),
            (lambda: Slope(1, 2.0), "slope q"),
            (lambda: CoverCertificate(2.5, 1.0, "x"), "degree"),
            (lambda: IntMatrix(1, 1, (True,)), "entries"),
            (lambda: IntMatrix(1.0, 1, (1,)), "rows"),
            (lambda: count_representations(GroupPresentation(1, ()), True), "degree"),
            (lambda: count_representations(GroupPresentation(1, ()), 2.0), "degree"),
            (
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1, True), 2.0, [(2,)]),
                "degree must be an integer",
            ),
            (
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1, True), True, [(2,)]),
                "degree must be an integer",
            ),
            # the local-degree cases are named for the rule they break, not
            # for the path their refusal names
            pytest.param(
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1, True), 2, [(2.0,)]),
                r"^branch_local_degrees\[0\]\[0\] must be an integer$",
                id="<lambda>-local degrees",
            ),
            (lambda: enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), True, 2.0), "k1"),
            (lambda: enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 1.0, 2), "k1"),
            (lambda: enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 1, 2.0), "k2"),
            (lambda: enumerate_constrained_slopes(Slope(1, 0), Slope(0, 1), 1, False), "k2"),
            (lambda: prism_fibrations(True), "^n must be an integer"),
            (lambda: prism_fibrations(1.0), "^n must be an integer"),
            (lambda: prism_case_analysis(1.5), "^n must be an integer"),
            (lambda: prism_case_analysis(True), "^n must be an integer"),
            (lambda: case_analysis_report(True), "^n must be an integer"),
            (lambda: ln_link(0.5), "^n must be an integer"),
            (lambda: ln_link(True), "^n must be an integer"),
            (lambda: twisted_torus_braid(3.0, 1, 2, 1), "^p must be an integer"),
            (lambda: twisted_torus_braid(3, True, 2, 1), "^q must be an integer"),
            (lambda: twisted_torus_braid(3, 1, 2.0, 1), "^r must be an integer"),
            (lambda: twisted_torus_braid(3, 1, 2, "1"), "^s must be an integer"),
            (lambda: prism_rows(True, 2), "^n_from must be an integer"),
            (lambda: prism_rows(1, 2.0), "^n_to must be an integer"),
            (lambda: prism_verify(1.0, 2), "^n_from must be an integer"),
            (lambda: prism_verify(1, False), "^n_to must be an integer"),
            # arrays are lists or tuples; nothing else is iterated into one
            (
                lambda: SeifertSymbol("Oo", 0, (5,)),
                r"^fibers\[0\] must be a list or a tuple, got 5$",
            ),
            (lambda: SeifertSymbol("Oo", 0, 5), "^fibers must be a list or a tuple, got 5$"),
            (lambda: MontesinosLink(0, 5), "^tangles must be a list or a tuple, got 5$"),
            (lambda: Orbifold2D(True, 0, 1, 5), "^cones must be a list or a tuple, got 5$"),
            (
                lambda: Orbifold2D(True, 0, 1, {3: 0, 2: 0}),
                r"^cones must be a list or a tuple, got \{3: 0, 2: 0\}$",
            ),
            (
                lambda: GroupPresentation(1, (5,)),
                r"^relators\[0\] must be a list or a tuple, got 5$",
            ),
            (lambda: GroupPresentation(1, 5), "^relators must be a list or a tuple, got 5$"),
            (lambda: IntMatrix(1, 1, 5), "^entries must be a list or a tuple, got 5$"),
            (
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1), 2, 5),
                "^branch_local_degrees must be a list or a tuple, got 5$",
            ),
            (
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1), 2, [2]),
                r"^branch_local_degrees\[0\] must be a list or a tuple, got 2$",
            ),
            (
                lambda: BraidWord(3, {1: 2}),
                r"^letters must be a list or a tuple, got \{1: 2\}$",
            ),
            (
                lambda: BraidWord(3, (letter for letter in (1,))),
                "^letters must be a list or a tuple, got <generator",
            ),
            (
                lambda: IntMatrix.from_rows([{3: 0, 4: 0}]),
                r"^rows\[0\] must be a list or a tuple, got \{3: 0, 4: 0\}$",
            ),
            (
                lambda: IntMatrix.from_rows({1: 2}),
                r"^rows must be a list or a tuple, got \{1: 2\}$",
            ),
            (
                lambda: IntMatrix.from_rows([(x for x in (1, 2))]),
                r"^rows\[0\] must be a list or a tuple, got <generator",
            ),
            # types are checked before the local degrees are sorted
            pytest.param(
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1), 2, [(1, "a")]),
                r"^branch_local_degrees\[0\]\[1\] must be an integer$",
                id="<lambda>-^local degrees must be positive integers: (1, 'a')",
            ),
            pytest.param(
                lambda: riemann_hurwitz_cover(SurfaceData(0, 1), 5, [(3, 2.0)]),
                r"^branch_local_degrees\[0\]\[1\] must be an integer$",
                id="<lambda>-^local degrees must be positive integers: (3, 2.0)",
            ),
            (lambda: prism_row_stream(True, 2), "^n_from must be an integer"),
            (lambda: prism_row_stream(1, 2.0), "^n_to must be an integer"),
            (lambda: disk_cases(True), "^n must be an integer"),
            (
                lambda: remove_fiber(SeifertSymbol("Oo", 0, ((1, 2),)), True),
                "^which must be 'regular' or a fiber index$",
            ),
        ],
    )
    def test_wrong_type_is_refused(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_exact_types_still_build(self):
        assert SeifertSymbol("Oo", 0, [(1, 2)]).fibers == ((1, 2),)
        assert BraidWord(3, [1, -2]).letters == (1, -2)
        assert GroupPresentation(1, [[1, 1]]).relators == ((1, 1),)
        assert Orbifold2D(False, 1, 1, [3, 2]).cones == (2, 3)
        assert IntMatrix(1, 2, [3, 4]).entries == (3, 4)
        assert MontesinosLink(0, [[1, 2], (1, 3)]).tangles == ((1, 2), (1, 3))
