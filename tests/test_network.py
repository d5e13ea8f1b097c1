import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinctrl.network import (MAX_NODES, InvalidNetworkError, NetworkSpec, StarDescriptor,
                              make_chain, make_star, parse_network,
                              serialize_network)


class TestMakeChain:
    def test_uniform_seven(self):
        spec = make_chain(7, "uniform", 0.0, controls=(2,))
        assert spec.node_count == 7
        assert spec.edges == tuple((i, i + 1, 1.0) for i in range(1, 7))
        assert spec.controls == (2,)
        assert spec.topology == "chain"

    def test_smallest_chain(self):
        spec = make_chain(2, "uniform", 1.0, controls=(1,))
        assert spec.edges == ((1, 2, 1.0),)

    def test_explicit_couplings(self):
        spec = make_chain(5, [1, 2, 3, 4], 0.0, controls=(1,))
        assert spec.edges == ((1, 2, 1.0), (2, 3, 2.0), (3, 4, 3.0), (4, 5, 4.0))
        assert spec.chain_couplings() == (1.0, 2.0, 3.0, 4.0)

    def test_zero_coupling_rejected(self):
        with pytest.raises(InvalidNetworkError, match="disconnects"):
            make_chain(4, [1, 0, 1], 0.0, controls=(1,))

    def test_control_out_of_range(self):
        with pytest.raises(InvalidNetworkError, match="out of range"):
            make_chain(4, "uniform", 0.0, controls=(5,))

    def test_wrong_coupling_count(self):
        with pytest.raises(InvalidNetworkError, match="expected 3"):
            make_chain(4, [1, 2], 0.0, controls=(1,))


class TestMakeStar:
    def test_ten_node_star(self):
        spec = make_star(StarDescriptor((5, 4, 3)), kappa=0.0)
        assert spec.node_count == 10
        assert spec.controls == (1,)
        assert spec.edge_count == 9
        assert spec.star_lengths == (5, 4, 3)

    def test_eleven_node_star(self):
        spec = make_star(StarDescriptor((6, 4, 3)), kappa=0.0)
        assert spec.node_count == 11

    def test_two_branch_star_is_path(self):
        spec = make_star(StarDescriptor((2, 2)), kappa=0.0)
        assert spec.node_count == 3
        assert {(m, n) for m, n, _ in spec.edges} == {(1, 2), (1, 3)}

    def test_branch_end_control(self):
        spec = make_star(StarDescriptor((5, 4, 3), control_site=(1, 5)), kappa=0.0)
        assert spec.controls == (5,)  # far end of the first branch

    def test_counts(self):
        for lengths in [(2, 2), (5, 4, 3), (7, 5, 3, 2), (6, 5, 4)]:
            spec = make_star(StarDescriptor(lengths), 0.0)
            assert spec.node_count == 1 + sum(l - 1 for l in lengths)
            assert spec.edge_count == sum(l - 1 for l in lengths)

    def test_star_chain_isomorphism(self):
        # two-branch star with center control == chain controlled at
        # position l1 counted from the first branch's far end
        l1, l2 = 4, 3
        star = make_star(StarDescriptor((l1, l2)), kappa=0.0)
        chain = make_chain(l1 + l2 - 1, "uniform", 0.0, controls=(l1,))

        def to_star(c):
            if c < l1:
                return l1 + 1 - c
            if c == l1:
                return 1
            return c

        star_edges = {(min(a, b), max(a, b)) for a, b, _ in star.edges}
        mapped = {tuple(sorted((to_star(m), to_star(n)))) for m, n, _ in chain.edges}
        assert mapped == star_edges
        assert to_star(chain.controls[0]) == star.controls[0]

    def test_invalid_descriptors(self):
        with pytest.raises(InvalidNetworkError):
            StarDescriptor((5,))
        with pytest.raises(InvalidNetworkError):
            StarDescriptor((5, 1))
        with pytest.raises(InvalidNetworkError):
            StarDescriptor((5, 4), control_site=(1, 6))
        with pytest.raises(InvalidNetworkError):
            StarDescriptor((5, 4), control_site=(3, 2))


class TestValidation:
    def test_duplicate_edge(self):
        with pytest.raises(InvalidNetworkError, match="duplicate"):
            NetworkSpec(3, ((1, 2, 1.0), (1, 2, 2.0)), 0.0, (1,))

    def test_self_loop(self):
        with pytest.raises(InvalidNetworkError, match="self-loop"):
            NetworkSpec(3, ((2, 2, 1.0),), 0.0, (1,))

    def test_zero_gamma(self):
        with pytest.raises(InvalidNetworkError, match="zero coupling"):
            NetworkSpec(3, ((1, 2, 0.0),), 0.0, (1,))

    def test_empty_controls(self):
        with pytest.raises(InvalidNetworkError, match="nonempty"):
            NetworkSpec(3, ((1, 2, 1.0),), 0.0, ())

    def test_connectivity_helpers(self):
        spec = NetworkSpec(3, ((1, 2, 1.0),), 0.0, (1,))
        assert not spec.is_connected()
        assert not spec.is_chain()

    def test_size_limit(self):
        assert make_chain(MAX_NODES).node_count == MAX_NODES
        assert NetworkSpec(MAX_NODES, (), 0.0, (1,)).node_count == MAX_NODES
        for build, path in ((lambda: make_chain(MAX_NODES + 1), "length"),
                            (lambda: make_chain(10**400), "length"),
                            (lambda: NetworkSpec(MAX_NODES + 1, (), 0.0, (1,)), "node_count"),
                            (lambda: StarDescriptor((2,) * MAX_NODES), "branch_lengths"),
                            (lambda: StarDescriptor((10**9, 2)), "branch_lengths")):
            with pytest.raises(InvalidNetworkError, match=f"^{path}: more than"):
                build()


class TestSerialization:
    def test_round_trip_chain(self):
        spec = make_chain(7, "uniform", 0.0, controls=(2,))
        assert parse_network(serialize_network(spec)) == spec

    def test_round_trip_star(self):
        spec = make_star(StarDescriptor((5, 4, 3)), kappa=0.0)
        assert parse_network(serialize_network(spec)) == spec

    def test_chain_shorthand(self):
        text = json.dumps({
            "kappa": 0.0,
            "controls": [2],
            "topology": {"type": "chain", "length": 7, "couplings": "uniform"},
        })
        assert parse_network(text) == make_chain(7, "uniform", 0.0, controls=(2,))

    def test_control_zero_rejected(self):
        text = json.dumps({"kappa": 0, "nodes": 3, "edges": [[1, 2, 1.0]],
                           "controls": [0]})
        with pytest.raises(InvalidNetworkError, match="out of range"):
            parse_network(text)

    def test_bad_json(self):
        with pytest.raises(InvalidNetworkError, match="JSON"):
            parse_network("{nope")

    def test_serialize_parse_text_identity(self):
        # the canonical form is a fixed point of parse followed by serialize
        text = serialize_network(make_star(StarDescriptor((5, 4, 3)), 0.0))
        assert serialize_network(parse_network(text)) == text

    def test_duplicate_edge_reported_with_path(self):
        text = json.dumps({"kappa": 0, "nodes": 3,
                           "edges": [[1, 2, 1.0], [2, 1, 2.0]], "controls": [1]})
        with pytest.raises(InvalidNetworkError, match=r"edges\[1\]"):
            parse_network(text)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(2, 8))
        all_pairs = [(m, q) for m in range(1, n + 1) for q in range(m + 1, n + 1)]
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1,
                                    max_size=len(all_pairs), unique=True))
        edges = tuple(sorted(
            (m, q, data.draw(st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3)))
            for m, q in chosen))
        controls = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=n))))
        kappa = data.draw(st.floats(-2, 2, allow_nan=False))
        spec = NetworkSpec(n, edges, kappa, controls)
        assert parse_network(serialize_network(spec)) == spec


_NUMBER = st.one_of(st.integers(-3, 3), st.floats(), st.just(10 ** 400))
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
                  st.text(max_size=3), st.lists(st.integers(-2, 9), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    keys = list(node) if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else []
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def _documents(draw):
    """A well-formed network document with at most one value replaced by
    junk or deleted. Sizes stay small: a well-formed network of huge length
    is valid input whose cost grows with it, which is not what this is about."""
    n = draw(st.integers(2, 6))
    controls = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    if draw(st.booleans()):
        couplings = draw(st.one_of(st.just("uniform"),
                                   st.lists(_NUMBER, min_size=n - 1, max_size=n - 1)))
        doc = {"kappa": draw(_NUMBER), "controls": controls,
               "topology": {"type": "chain", "length": n, "couplings": couplings}}
    else:
        edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                        _NUMBER).map(list), max_size=5))
        lengths = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
        doc = {"kappa": draw(_NUMBER), "nodes": n, "edges": edges, "controls": controls,
               "topology": {"type": draw(st.sampled_from(["star", "general", "chain"])),
                            "lengths": lengths}}
    slots = list(_slots(doc))
    pick = draw(st.integers(0, len(slots)))
    if pick < len(slots):
        container, key = slots[pick]
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JUNK)
    return doc


@settings(max_examples=200, deadline=None)
@given(st.one_of(_documents(), _JUNK))
def test_parse_network_fuzz(doc):
    try:
        spec = parse_network(json.dumps(doc))
    except InvalidNetworkError:
        return
    assert isinstance(spec, NetworkSpec)
