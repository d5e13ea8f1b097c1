import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinctrl import _exact, report
from spinctrl.cli import build_parser, main
from spinctrl.hamiltonian import single_excitation
from spinctrl.lie import lie_closure
from spinctrl.network import (MAX_NODES, InvalidNetworkError, NetworkSpec, StarDescriptor,
                              make_chain, make_star, parse_network)
from spinctrl.report import analyze, reproduce_table


class TestAnalyze:
    def test_seven_chain(self):
        rep = analyze(make_chain(7, "uniform", 0.0, controls=(2,)))
        assert rep.closure["dimension"] == 36
        assert not rep.closure["controllable"]
        assert rep.commutant_dimension == 2
        assert rep.dark_states["count"] == 1
        assert rep.analytic["predicted_controllable"] is False
        assert rep.consistency["closure_vs_predicate"] is True
        assert rep.consistency["commutant_vs_dark_states"] is True
        assert rep.block_sizes == [1, 6]

    def test_ten_node_star(self):
        rep = analyze(make_star(StarDescriptor((5, 4, 3)), 0.0))
        assert rep.closure["dimension"] == 100
        assert rep.closure["controllable"]
        assert rep.analytic["predicted_controllable"] is True
        assert rep.consistency["closure_vs_predicate"] is True

    def test_surd_kappa_symmetry(self):
        rep = analyze(make_chain(9, "uniform", math.sqrt(2) / 2, controls=(3,)))
        assert rep.dark_states["count"] >= 1
        assert rep.analytic["kappa_is_symmetric"] is True
        assert not rep.closure["controllable"]
        # the surd entries are not rational: one control, so the bright subspace decides
        assert rep.closure["mode"] == "structure"
        sub = single_excitation(make_chain(9, "uniform", math.sqrt(2) / 2, controls=(3,)))
        assert rep.closure["dimension"] == \
            lie_closure([sub.h0, sub.h1], mode="float").dimension

    def test_closure_cap(self, monkeypatch):
        monkeypatch.setattr(report, "_EXACT_CLOSURE_CAP", 5)
        rep = analyze(make_chain(7, "uniform", 0.0, controls=(2,)))
        assert rep.closure == {"skipped": True, "reason": "d = 7 exceeds cap 5"}
        assert rep.consistency["closure_vs_predicate"] is None
        assert rep.consistency["closure_vs_structure"] is None
        assert rep.structure["dimension"] == 36

    def test_float_closure_cap(self, monkeypatch):
        monkeypatch.setattr(report, "_FLOAT_CLOSURE_CAP", 5)
        rep = analyze(make_chain(7, [1.1] * 6, 0.0, controls=(1, 2)))
        assert rep.closure == {"skipped": True, "reason": "d = 7 exceeds float cap 5"}
        assert rep.structure is None
        assert "closure_vs_structure" not in rep.consistency
        # the exact cap is a separate constant: a rational network still closes
        assert analyze(make_chain(7, "uniform", 0.0, controls=(1, 2))).closure["mode"] \
            == "exact"

    def test_closure_cap_spares_the_structure(self, monkeypatch):
        couplings = [1.1] * 44
        rep = analyze(make_chain(45, couplings, 0.0, controls=(3,)))
        assert not rep.closure["skipped"]
        assert rep.closure["mode"] == "structure"
        assert rep.closure["dimension"] == 45 * 45
        monkeypatch.setattr(report, "_FLOAT_CLOSURE_CAP", 5)
        rep = analyze(make_chain(7, [1.1] * 6, 0.0, controls=(3,)))
        assert rep.closure["mode"] == "structure" and rep.closure["dimension"] == 49

    def test_unresolved_structure_does_not_decide(self):
        # two end-bound eigenvalues 3e-12 apart, both bright at node 7, fall in
        # one eigenspace; the structure would undercount n_B and read 2402
        rep = analyze(make_chain(50, "uniform", math.sqrt(3), controls=(7,)))
        assert not rep.structure["resolved"]
        assert rep.closure == {"skipped": True, "reason": "d = 50 exceeds float cap 22"}
        assert rep.consistency["closure_vs_structure"] is None
        # two equal dimers with irrational couplings: an exact degeneracy,
        # closed in float like a network with more controls
        spec = NetworkSpec(4, ((1, 2, math.sqrt(2)), (3, 4, math.sqrt(2))), 0.0, (1,))
        rep = analyze(spec)
        assert not rep.structure["resolved"]
        assert rep.closure["mode"] == "float"
        assert rep.closure["dimension"] == rep.structure["dimension"] == 5
        assert rep.consistency["closure_vs_structure"] is True

    @pytest.mark.parametrize("length,control,want", [(23, 3, 442), (25, 2, 576)])
    def test_inflated_float_chains(self, length, control, want):
        # a float closure at tolerance 1e-6 inflated these to d^2
        rep = analyze(make_chain(length, [1.1] * (length - 1), 0.0, controls=(control,)))
        assert rep.closure["dimension"] == rep.structure["dimension"] == want
        assert rep.closure["mode"] == "structure"
        assert rep.closure["commutators_evaluated"] == 0
        assert not rep.closure["controllable"]
        # every check holds; block_bound_saturated only says whether the bound is met
        checks = {k: v for k, v in rep.consistency.items()
                  if v is not None and k != "block_bound_saturated"}
        assert checks and all(checks.values()), checks

    def test_exact_mode(self):
        rep = analyze(make_chain(7, "uniform", 0.0, controls=(2,)))
        assert rep.closure["dimension"] == 36
        assert rep.closure["mode"] == "exact"

    def test_end_control_chain_23(self):
        # a float closure at tolerance 1e-6 inflates this algebra to 529 = d^2;
        # the integer network is closed exactly instead
        rep = analyze(make_chain(23, "uniform", 0.0, controls=(3,)))
        assert rep.closure["dimension"] == 442
        assert rep.closure["mode"] == "exact"
        assert rep.consistency["closure_vs_predicate"] is True
        assert rep.consistency["closure_within_block_bound"] is True
        assert rep.consistency["closure_vs_structure"] is True

    def test_timings_per_detector(self):
        rep = analyze(make_chain(5, "uniform", 1.0, controls=(2,)))
        assert set(rep.timings) == {
            "hamiltonian", "commutant", "dark_states", "internal_symmetry",
            "automorphisms", "decompose", "structure", "closure"}

    def test_report_serializes(self):
        rep = analyze(make_chain(5, "uniform", 1.0, controls=(2,)))
        doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
        assert doc["subspace_dimension"] == 5
        assert set(doc) == {
            "network", "subspace_dimension", "closure", "structure",
            "commutant_dimension", "dark_states", "internal_symmetry", "automorphisms",
            "block_sizes", "analytic", "consistency", "timings", "tolerance"}
        assert set(doc["closure"]) == {
            "skipped", "dimension", "full_dimension", "controllable", "note",
            "mode", "commutators_evaluated", "saturated"}
        assert set(doc["structure"]) == {
            "bright_dimension", "trace_rank", "resolved", "dimension", "min_bright_overlap",
            "max_dark_overlap", "min_split_gap", "max_merged_gap"}


# integer, half-integer and irrational values (1.1 is no short binary fraction)
_FUZZ_VALUES = st.sampled_from([1.0, 2.0, -1.0, 3.0, 0.5, -1.5, 2.5,
                                math.sqrt(2), math.sqrt(3) / 2, 1.1])


@st.composite
def small_networks(draw):
    n = draw(st.integers(1, 6))
    pairs = [(m, q) for m in range(1, n + 1) for q in range(m + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((m, q, draw(_FUZZ_VALUES)) for m, q in chosen)
    kappa = draw(st.one_of(st.just(0.0), _FUZZ_VALUES))
    controls = tuple(draw(st.lists(st.integers(1, n), min_size=1, unique=True)))
    return NetworkSpec(node_count=n, edges=edges, kappa=kappa, controls=controls)


@settings(max_examples=200, deadline=None)
@given(small_networks())
def test_analyze_fuzz_small_networks(spec):
    """analyze() returns a report for every small valid network; a rational
    network's closure dimension is the big-integer loop's, an irrational
    single-node network's the float closure's."""
    rep = analyze(spec)
    d = spec.node_count
    single = len(spec.controls) == 1
    assert rep.subspace_dimension == d
    assert 0 <= rep.closure["dimension"] <= d * d
    assert (rep.structure is not None) == single
    sub = single_excitation(spec)
    if _exact.is_rational(sub.h0) and _exact.is_rational(sub.h1):
        assert rep.closure["mode"] == "exact"
        elements, _, _ = _exact.integer_closure(_exact.integer_seeds([sub.h0, sub.h1]))
        assert rep.closure["dimension"] == len(elements)
        if single:
            assert rep.consistency["closure_vs_structure"] is True
    elif single:
        assert rep.closure["mode"] == \
            ("structure" if rep.structure["resolved"] else "float")
        assert rep.closure["dimension"] == \
            lie_closure([sub.h0, sub.h1], mode="float").dimension
    else:
        assert rep.closure["mode"] == "float"


class TestTables:
    def test_sym_table(self):
        rep = reproduce_table("sym")
        by_key = {(r["N"], r["k"]): r for r in rep.rows}
        assert len(rep.rows) == 15
        # the two rows whose printed kappas contradict the closed form
        assert not by_key[(8, 2)]["match"]
        assert not by_key[(10, 2)]["match"]
        for key, row in by_key.items():
            if key not in ((8, 2), (10, 2)):
                assert row["match"], key
            for sol in row["computed"]:
                assert sol["verified"]
        # enumeration finds verified solutions the reference row omits
        assert len(by_key[(7, 2)]["extra_kappas"]) == 2
        assert not rep.all_match

    def test_xx_branch_table(self):
        rep = reproduce_table("xx-branch")
        assert rep.all_match
        dims = [r["dim"] for r in rep.rows]
        assert dims == [100, 65, 101, 144, 144, 196]
        assert all(r["float_exact_agree"] for r in rep.rows)

    def test_heisenberg_branch_table(self):
        rep = reproduce_table("heisen-branch")
        by_lengths = {tuple(r["lengths"]): r for r in rep.rows}
        defects = {(3, 4, 5): 100, (2, 4, 8): 122}
        for lengths, row in by_lengths.items():
            if lengths in defects:
                assert not row["match"]
                assert row["dim"] == defects[lengths]
                assert row["alternative_controls"] == []
            else:
                assert row["match"], lengths

    def test_fig2_table(self):
        rep = reproduce_table("fig2-examples")
        assert rep.all_match
        assert [r["dim"] for r in rep.rows] == [81, 81, 100, 25]
        assert rep.rows[3]["commutant_dimension"] == 1

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_table("fig3")

    def test_text_rendering(self):
        text = reproduce_table("xx-branch").to_text()
        assert "all rows match: True" in text
        assert "[5, 4, 3]" in text


class TestCli:
    def test_chain_command(self, capsys):
        rc = main(["chain", "--length", "7", "--kappa", "0", "--control", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim 36 of 49" in out
        assert "NOT controllable" in out

    def test_star_command(self, capsys):
        rc = main(["star", "--lengths", "5,4,3", "--control", "center",
                   "--kappa", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim 100 of 100" in out

    def test_star_branch_control(self, capsys):
        rc = main(["star", "--lengths", "5,4,3", "--control", "1:5",
                   "--kappa", "0"])
        assert rc == 0
        assert "controllable" in capsys.readouterr().out

    def test_analyze_command(self, tmp_path, capsys):
        from spinctrl.network import serialize_network
        path = tmp_path / "net.json"
        path.write_text(serialize_network(make_chain(7, "uniform", 0.0,
                                                     controls=(2,))))
        out_json = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(path), "--json", str(out_json)])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert doc["closure"]["dimension"] == 36
        capsys.readouterr()

    def test_analyze_bad_file(self, capsys):
        rc = main(["analyze", "--input", "/nonexistent/net.json"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_invalid_network(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kappa": 0, "nodes": 3,
                                    "edges": [[1, 2, 1.0]], "controls": [0]}))
        rc = main(["analyze", "--input", str(path)])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    def test_bethe_command(self, capsys):
        rc = main(["bethe", "--length", "9", "--control", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("verified=True") == 5

    def test_bethe_all_kappa(self, capsys):
        rc = main(["bethe", "--length", "5", "--control", "3"])
        assert rc == 0
        assert "every kappa" in capsys.readouterr().out

    def test_table_command(self, tmp_path, capsys):
        out_json = tmp_path / "t.json"
        rc = main(["table", "--id", "fig2-examples", "--json", str(out_json)])
        assert rc == 0
        assert "all rows match: True" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert doc["all_match"] is True

    def test_structure_line(self, capsys):
        rc = main(["chain", "--length", "23", "--control", "3",
                   "--couplings", ",".join(["1.1"] * 22)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim 442 of 529 [structure] -> NOT controllable" in out
        assert "structure: n_B=21, r=2, dim=442, margin" in out
        rc = main(["chain", "--length", "50", "--control", "7",
                   "--kappa", repr(math.sqrt(3))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "closure: skipped" in out
        assert "dim=2402 (unresolved: a bright eigenspace merges eigenvalues)" in out
        rc = main(["chain", "--length", "5", "--control", "1,2"])
        assert rc == 0
        assert "structure:" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--kappa", "1e308"],
                                       ["--couplings", "1e308,1e308"]])
    def test_overflowing_drift_exit(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["chain", "--length", "3", "--control", "1"] + flags)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith("error: the couplings and kappa overflow the drift")
        assert err.count("\n") == 1

    def test_exact_flag(self, capsys):
        rc = main(["chain", "--length", "5", "--kappa", "1", "--control", "1"])
        assert rc == 0
        assert "[exact]" in capsys.readouterr().out

    def test_couplings_flag(self, capsys):
        rc = main(["chain", "--length", "5", "--kappa", "0", "--control", "1",
                   "--couplings", "1,2,3,4"])
        assert rc == 0
        assert "controllable" in capsys.readouterr().out

    def test_chain_error_exit(self, capsys):
        rc = main(["chain", "--length", "4", "--kappa", "0", "--control", "9"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    def test_automorphism_cap_exit(self, monkeypatch, capsys):
        # the search of the eleven-branch star visits 75 partial assignments;
        # a cap lowered below that takes the path a harder graph would take
        import spinctrl.symmetry
        monkeypatch.setattr(spinctrl.symmetry, "_AUTOMORPHISM_NODE_CAP", 10)
        rc = main(["star", "--lengths", ",".join(["2"] * 11)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eleven_branch_star_group_order(self, capsys):
        rc = main(["star", "--lengths", ",".join(["2"] * 11)])
        assert rc == 0
        assert "graph automorphisms (non-identity): 39916799" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [
        {"controls": [1], "topology": {"type": "chain", "length": 3, "couplings": 5}},
        {"controls": [1], "topology": {"type": "chain", "length": 3,
                                       "couplings": [1, None]}},
        {"controls": [1], "topology": {"type": "chain", "length": 3,
                                       "couplings": [1, math.nan]}},
        {"kappa": math.nan, "controls": [1], "topology": {"type": "chain", "length": 3}},
        {"kappa": math.inf, "nodes": 2, "edges": [[1, 2, 1.0]], "controls": [1]},
        {"nodes": 2, "edges": [[1, 2, math.nan]], "controls": [1]},
        {"nodes": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0]], "controls": [1],
         "topology": {"type": "star", "lengths": [[2], 2]}},
        {"nodes": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0]], "controls": [1],
         "topology": {"type": "star", "lengths": 7}},
    ])
    def test_malformed_network_exit(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", "--input", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,path", [
        ({"nodes": True, "edges": [], "controls": [1]}, "nodes"),
        ({"nodes": 3, "edges": [[1, 2, 1.0]], "controls": [True]}, r"controls\[0\]"),
        ({"nodes": 3, "edges": [[1, 2, 1.0]], "controls": [1], "kappa": True}, "kappa"),
        ({"nodes": 3, "edges": [[1, 2, True]], "controls": [1]}, r"edges\[0\]\[2\]"),
        ({"nodes": 3, "edges": [[True, 2, 1.0]], "controls": [1]}, r"edges\[0\]"),
        ({"nodes": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0]], "controls": [1],
          "topology": {"type": "star", "lengths": [True, 2]}}, r"topology\.lengths\[0\]"),
        ({"controls": [1], "topology": {"type": "chain", "length": True}}, "topology.length"),
        ({"controls": [1], "topology": {"type": "chain", "length": 3,
                                        "couplings": [1, False]}}, r"topology\.couplings\[1\]"),
    ])
    def test_json_booleans_are_not_numbers(self, doc, path, tmp_path, capsys):
        # bool is a subclass of int in Python, but true is not a node index
        with pytest.raises(InvalidNetworkError, match=f"^{path}: expected"):
            parse_network(json.dumps(doc))
        file = tmp_path / "bool.json"
        file.write_text(json.dumps(doc))
        rc = main(["analyze", "--input", str(file)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"controls": [1], "topology": {"type": "chain", "length": 10**400}},
        {"controls": [1], "topology": {"type": "chain", "length": 10**9}},
        {"controls": [1], "topology": {"type": "chain", "length": MAX_NODES + 1}},
        {"nodes": 10**9, "edges": [[1, 2, 1.0]], "controls": [1]},
        {"nodes": 10**400, "edges": [[1, 2, 1.0]], "controls": [1]},
    ])
    def test_oversized_network_exit(self, doc, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            rc = main(["analyze", "--input", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"more than {MAX_NODES} nodes" in err
        assert peak < 1_000_000  # nothing of the requested size was allocated

    def test_oversized_chain_flag_exit(self, capsys):
        rc = main(["chain", "--length", str(10**9), "--control", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["star", "--lengths", "3,3", "--control", "1"],
         "--control takes 'center' or branch:position, e.g. 1:5, got '1'"),
        (["star", "--lengths", "3,3", "--control", "1:x"],
         "--control takes 'center' or branch:position, e.g. 1:5, got '1:x'"),
        (["star", "--lengths", "3,3", "--control", "1:2:3"],
         "--control takes 'center' or branch:position, e.g. 1:5, got '1:2:3'"),
        (["star", "--lengths", "3,,2"],
         "--lengths takes comma-separated branch lengths, e.g. 3,2,2, got '3,,2'"),
        (["chain", "--length", "4", "--control", "1,,2"],
         "--control takes comma-separated node numbers, e.g. 1,3, got '1,,2'"),
        (["chain", "--length", "4", "--control", "1", "--couplings", "1,a,1"],
         "--couplings takes comma-separated numbers, e.g. 1,0.5,2, got '1,a,1'"),
    ])
    def test_flag_parse_error_names_the_flag(self, argv, message, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["chain", "--length", "4", "--kappa", "0.7071067811865476", "--control", "1"],
        ["chain", "--length", "4", "--kappa", "0", "--control", "1"],
        # a float closure above the float cap: skipped, the tolerance still checked
        ["chain", "--length", "23", "--kappa", "0.7", "--control", "1,2"],
        ["verify"],
    ])
    def test_invalid_tolerance_exit(self, argv, tol, capsys):
        rc = main(argv + ["--tol", tol])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error:") and "finite and positive" in err
        assert "Traceback" not in err and "closure:" not in out

    @pytest.mark.parametrize("length", [23, 40])
    def test_float_cap_skips(self, length, capsys):
        # float ranks inflate from d = 23 on, and the closure takes minutes by d = 28
        rc = main(["chain", "--length", str(length), "--control", "1,2", "--kappa", "0.7"])
        assert rc == 0
        assert f"closure: skipped (d = {length} exceeds float cap 22)" in \
            capsys.readouterr().out


class TestNoKnobs:
    """analyze() takes the network and the float tolerance, nothing else."""

    def test_analyze_signature(self):
        params = inspect.signature(analyze).parameters
        assert list(params) == ["spec", "tolerance"]
        assert params["tolerance"].default == 1e-6

    def test_analysis_subparser_options(self):
        ap = build_parser()
        subparsers = next(a for a in ap._actions if a.dest == "command")
        common = {"-h", "--help", "--tol", "--json"}
        want = {"analyze": common | {"--input"},
                "chain": common | {"--length", "--kappa", "--control", "--couplings"},
                "star": common | {"--lengths", "--control", "--kappa"}}
        for name, options in want.items():
            got = {o for a in subparsers.choices[name]._actions for o in a.option_strings}
            assert got == options, name

    @pytest.mark.parametrize("flag", [["--seed", "0"], ["--skip-closure-above", "5"]])
    def test_removed_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--length", "7", "--control", "2"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
