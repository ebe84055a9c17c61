import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import util
from roundideal import cli, io as rio
from roundideal.cli import build_parser, main
from roundideal.errors import RoundIdealError
from roundideal.lattice import boolean, chain, full_basis


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.lat"
    path.write_text(rio.serialize_lattice(boolean(2)))
    return path


@pytest.fixture
def three_chain(tmp_path):
    path = tmp_path / "chain.lat"
    path.write_text(rio.serialize_lattice(chain(3)))
    return path


@pytest.fixture
def pentagon(tmp_path):
    path = tmp_path / "n5.lat"
    path.write_text(
        "lattice N5 lattice\nelements 0 a b c 1\n"
        "le 0 a\nle 0 b\nle b c\nle a 1\nle c 1\n"
    )
    return path


def collapse_map_doc(tmp_path, square):
    tgt = tmp_path / "tgt.lat"
    tgt.write_text(rio.serialize_lattice(boolean(1)))
    f = util.atom_map(boolean(2), boolean(1), [0, 0])
    doc = rio.serialize_map(f, source_path=square.name, target_path=tgt.name)
    path = tmp_path / "collapse.map"
    path.write_text(doc)
    return path


class TestValidate:
    def test_valid_lattice(self, square, capsys):
        assert main(["validate", str(square)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_lattice_exit_one(self, pentagon, capsys):
        assert main(["validate", str(pentagon)]) == 1
        assert "distributivity" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.lat")]) == 2

    def test_check_all(self, square, capsys):
        assert main(["validate", str(square), "--check-all"]) == 0
        out = capsys.readouterr().out
        assert "ok core sandwich-stable" in out
        assert "FAIL" not in out

    def test_check_all_on_chain(self, three_chain, capsys):
        assert main(["validate", str(three_chain), "--check-all"]) == 0

    def test_closure_idempotent_rederives_a_proper_closure(self, tmp_path, capsys, monkeypatch):
        # the line closes {a} of 2^3, four elements, and closes those again
        # uncached; a re-derivation that disagrees turns the line into FAIL
        path = tmp_path / "cube.lat"
        path.write_text(rio.serialize_lattice(boolean(3)))
        seeds = []
        monkeypatch.setattr(cli, "_pcd_closure",
                            lambda l, seed: seeds.append(seed) or full_basis(l))
        assert main(["validate", str(path), "--check-all"]) == 1
        assert "FAIL closure idempotent" in capsys.readouterr().out.splitlines()
        assert [len(seed) for seed in seeds] == [4]


class TestDerive:
    def test_wellinside_emits_relation_doc(self, square, capsys):
        assert main(["derive", str(square), "wellinside"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("relation wellinside")
        assert "pair" in out

    def test_pseudo(self, three_chain, capsys):
        assert main(["derive", str(three_chain), "pseudo"]) == 0
        out = capsys.readouterr().out
        assert "star c1 c0" in out

    def test_core(self, square, capsys):
        assert main(["derive", str(square), "core"]) == 0
        assert "pair" in capsys.readouterr().out


class TestSi:
    def test_default_seed(self, square, capsys):
        assert main(["si", str(square)]) == 0
        out = capsys.readouterr().out
        assert "conditions passing: 7/7" in out

    def test_seed_from_derive_output(self, square, tmp_path, capsys):
        main(["derive", str(square), "core"])
        rel_doc = capsys.readouterr().out
        seed_path = tmp_path / "core.rel"
        seed_path.write_text(rel_doc)
        assert main(["si", str(square), "--seed-rel", str(seed_path)]) == 0
        assert "7/7" in capsys.readouterr().out

    def test_bad_seed_exit_two(self, three_chain, tmp_path, capsys):
        seed_path = tmp_path / "bad.rel"
        seed_path.write_text("pair c1 c1\n")
        assert main(["si", str(three_chain), "--seed-rel", str(seed_path)]) == 2
        assert "not well-inside" in capsys.readouterr().err

    def test_seed_outside_the_basis_named_by_label(self, square, tmp_path, capsys):
        seed_path = tmp_path / "seed.rel"
        seed_path.write_text("pair {a} {a}\n")
        argv = ["si", str(square), "--seed-rel", str(seed_path), "--basis", "{}", "{a,b}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed pair ({a}, {a}) leaves the carrier\n"


class TestCompactify:
    def test_boolean(self, square, capsys):
        assert main(["compactify", str(square)]) == 0
        out = capsys.readouterr().out
        assert "round ideals: 4" in out
        assert "compact regular: yes" in out

    def test_with_map(self, square, tmp_path, capsys):
        map_path = collapse_map_doc(tmp_path, square)
        assert main(["compactify", str(square), "--maps", str(map_path)]) == 0
        assert "extension 0" in capsys.readouterr().out

    def test_chain_not_strongly_regular(self, three_chain, capsys):
        assert main(["compactify", str(three_chain)]) == 2
        assert capsys.readouterr().err == (
            "error: basis is not strongly regular: "
            "c1 is not complemented (c1 v c1* is c1, not the top)\n"
        )

    def test_dot_output(self, square, tmp_path, capsys):
        out_path = tmp_path / "frame.dot"
        assert main(["compactify", str(square), "--dot", str(out_path)]) == 0
        assert "digraph" in out_path.read_text()

    def test_explicit_basis(self, square, capsys):
        assert main(
            ["compactify", str(square), "--basis", "{}", "{a}", "{b}", "{a,b}"]
        ) == 0

    def test_non_generating_basis_exit_two(self, square, capsys):
        assert main(["compactify", str(square), "--basis", "{}", "{a,b}"]) == 2
        assert "basis" in capsys.readouterr().err


class TestExtend:
    def test_extend_through_canonical(self, square, tmp_path, capsys):
        map_path = collapse_map_doc(tmp_path, square)
        assert main(["extend", str(square), str(map_path)]) == 0
        out = capsys.readouterr().out
        assert "to" in out

    def test_extend_through_family(self, square, tmp_path, capsys):
        map_path = collapse_map_doc(tmp_path, square)
        spec = f"canonical:{map_path.name}"
        assert main(["extend", str(square), str(map_path), "--through", spec]) == 0

    def test_non_regular_codomain_exit_two(self, square, tmp_path, capsys):
        tgt = tmp_path / "c3.lat"
        tgt.write_text(rio.serialize_lattice(chain(3)))
        doc = (
            f"map f\nsource {tmp_path / 'square.lat'}\ntarget {tgt.name}\n"
            "to c0 {}\nto c1 {a}\nto c2 {a,b}\n"
        )
        map_path = tmp_path / "f.map"
        map_path.write_text(doc)
        assert main(["extend", str(square), str(map_path)]) == 2


def _cli_documents(d):
    """square.lat, one.lat and c3.lat, with maps into one.lat: ok.map from
    square.lat, off.map from c3.lat and bad.map, which is not continuous."""
    (d / "square.lat").write_text(rio.serialize_lattice(boolean(2)))
    (d / "one.lat").write_text(rio.serialize_lattice(boolean(1)))
    (d / "c3.lat").write_text(rio.serialize_lattice(chain(3)))
    head = "source {}.lat\ntarget one.lat\n"
    (d / "ok.map").write_text(head.format("square") + "to {} {}\nto {a} {a,b}\n")
    (d / "off.map").write_text(head.format("c3") + "to {} c0\nto {a} c2\n")
    (d / "bad.map").write_text(head.format("square") + "to {} {}\nto {a} {a}\n")


@pytest.mark.parametrize("argv, call, message", [
    (["compactify", "square.lat", "--maps", "off.map"],
     lambda d, lat: cli._load_maps([d / "off.map"], lat),
     "map .*off.map has a source different from the main lattice"),
    (["compactify", "square.lat", "--maps", "bad.map"],
     lambda d, lat: cli._load_maps([d / "bad.map"], lat),
     "map is not continuous: covering: basis images join to {a}, not the top"),
    (["extend", "square.lat", "ok.map", "--through", "bogus"],
     lambda d, lat: cli._build_spec("bogus", lat, d),
     "unknown compactification spec 'bogus'"),
], ids=["map-source", "discontinuous-map", "unknown-spec"])
def test_input_checks(tmp_path, capsys, argv, call, message):
    _cli_documents(tmp_path)
    with pytest.raises(RoundIdealError, match=message) as info:
        call(tmp_path, rio.parse_lattice((tmp_path / "square.lat").read_text()))
    assert type(info.value) is RoundIdealError
    paths = [str(tmp_path / a) if a.endswith((".lat", ".map")) else a for a in argv]
    assert main(paths) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


@pytest.mark.parametrize("argv, path, line", [
    (["validate", "bin.lat"], "bin.lat", ""),
    (["si", "square.lat", "--seed-rel", "bin.rel"], "bin.rel", ""),
    (["compactify", "square.lat", "--maps", "bin.map"], "bin.map", ""),
    (["extend", "square.lat", "binsrc.map"], "bin.lat", "line 1: "),
], ids=["lattice", "seed-relation", "map", "map-source"])
def test_non_utf8_document_named_exit_two(tmp_path, capsys, argv, path, line):
    _cli_documents(tmp_path)
    for name in ("bin.lat", "bin.rel", "bin.map"):
        (tmp_path / name).write_bytes(b"\377lattice x lattice\n")
    (tmp_path / "binsrc.map").write_text("source bin.lat\ntarget one.lat\nto {} c0\n")
    assert main([str(tmp_path / a) if a.endswith((".lat", ".rel", ".map")) else a
                 for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {line}cannot read {tmp_path / path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n")


@pytest.mark.parametrize("argv", [
    ["compactify", "anti4.lat", "--maps", "top.map"],
    ["extend", "anti4.lat", "top.map"],
    ["compare", "anti4.lat", "anti4.lat:top.map"],
], ids=["compactify", "extend", "compare"])
def test_non_generating_map_basis_exit_two(tmp_path, capsys, argv):
    # the map's one basis element is the top of two.lat: continuous, but
    # its basis misses both join-irreducibles
    (tmp_path / "anti4.lat").write_text("lattice anti4 poset-downsets\nelements a b c d\n")
    (tmp_path / "two.lat").write_text("lattice two poset-downsets\nelements p q\n")
    (tmp_path / "top.map").write_text(
        "source anti4.lat\ntarget two.lat\nbasis {p,q}\nto {p,q} {a,b,c,d}\n")
    assert main([str(tmp_path / a) if a.endswith((".lat", ".map")) else a for a in argv]) == 2
    assert capsys.readouterr().err == "error: map basis does not generate two: it misses {p}\n"


class TestCompare:
    def test_same_spec_iso(self, square, capsys):
        assert main(["compare", str(square), str(square)]) == 0
        assert "verdict: iso" in capsys.readouterr().out

    def test_family_vs_empty(self, square, tmp_path, capsys):
        map_path = collapse_map_doc(tmp_path, square)
        spec2 = f"{square}:{map_path.name}"
        assert main(["compare", str(square), spec2]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_different_lattices_exit_two(self, square, three_chain):
        assert main(["compare", str(square), str(three_chain)]) == 2

    def test_one_parse_per_document(self, square, tmp_path, capsys, monkeypatch):
        map_path = collapse_map_doc(tmp_path, square)
        copy = tmp_path / "copy.lat"
        copy.write_text(square.read_text())
        parsed = []
        real = rio.parse_lattice
        monkeypatch.setattr(rio, "parse_lattice", lambda text: parsed.append(text) or real(text))
        outputs = []
        for other in (square, copy):
            parsed.clear()
            assert main(["compare", str(square), f"{other}:{map_path.name}"]) == 0
            outputs.append(capsys.readouterr())
            # the map document's source and target are parsed on their own
            assert len(parsed) == (3 if other == square else 4)
        assert outputs[0] == outputs[1]
        assert outputs[0].out == "verdict: iso\n" and not outputs[0].err


class TestGenAndDot:
    def test_gen_deterministic(self, capsys):
        assert main(["gen", "--seed", "7", "--size", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--seed", "7", "--size", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_gen_size_cap(self, capsys):
        assert main(["gen", "--seed", "1", "--size", "12"]) == 2

    def test_gen_feeds_validate(self, tmp_path, capsys):
        main(["gen", "--seed", "3", "--size", "4"])
        doc = capsys.readouterr().out
        path = tmp_path / "g.lat"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 0

    def test_dot(self, square, capsys):
        assert main(["dot", str(square)]) == 0
        assert "digraph" in capsys.readouterr().out


class TestParserBuiltOnce:
    def test_cached_parser_answers_like_a_fresh_one(self, square, tmp_path, capsys):
        map_path = collapse_map_doc(tmp_path, square)
        main(["derive", str(square), "core"])
        seed_path = tmp_path / "core.rel"
        seed_path.write_text(capsys.readouterr().out)
        # calls with and without each list or path option, alternating
        argvs = [
            ["si", str(square), "--basis", "{}", "{a}", "{a,b}"],
            ["si", str(square)],
            ["si", str(square), "--seed-rel", str(seed_path)],
            ["si", str(square)],
            ["compactify", str(square), "--maps", str(map_path)],
            ["compactify", str(square)],
            ["compactify", str(square), "--basis", "{}", "{a}", "{b}", "{a,b}"],
            ["compactify", str(square)],
        ] * 2

        def outputs(fresh):
            out = []
            for argv in argvs:
                if fresh:
                    build_parser.cache_clear()
                code = main(argv)
                out.append((code, *capsys.readouterr()))
            return out

        cached = outputs(fresh=False)
        assert build_parser() is build_parser()
        assert cached == outputs(fresh=True)
        assert cached[:8] == cached[8:]


# -- any generated document: exit 0, 1 or 2 and never a traceback ------------

BASES = [rio.serialize_lattice(lat) for lat in (boolean(0), boolean(1), boolean(2), chain(3))]
BASES += [
    "lattice v poset-downsets\nelements a b c\n",
    "lattice w poset-downsets\nelements a b\nle a b\n",
    "lattice N5 lattice\nelements 0 a b c 1\nle 0 a\nle 0 b\nle b c\nle a 1\nle c 1\n",
]


def element_labels(doc):
    try:
        return list(rio.parse_lattice(doc).names)
    except RoundIdealError:
        return next(line.split()[1:] for line in doc.splitlines() if line.startswith("elements"))


LABELS = {doc: element_labels(doc) for doc in BASES}


def atom_map_lines(k, j, phi):
    """The 'to' lines of the atom map boolean(k) -> boolean(j) given by ``phi``."""
    f = util.atom_map(boolean(k), boolean(j), phi)
    return [line for line in rio.serialize_map(f).splitlines() if line.startswith("to ")]


# continuous maps between Boolean base lattices: (source, target, 'to' lines)
MAPS = [(BASES[k], BASES[j], atom_map_lines(k, j, phi))
        for k, j, phi in ((2, 1, [0, 0]), (2, 2, [1, 0]), (2, 2, [0, 0]), (1, 1, [0]))]
WORDS = sorted({"lattice", "poset-downsets", "elements", "le", "relation", "host", "pair",
                "map", "source", "target", "basis", "to", "#", "src.lat", "nope.lat", "zz"}
               | {label for labels in LABELS.values() for label in labels})


def mutated(draw, body):
    """``body`` with a few lines dropped, repeated or inserted from stray words."""
    body = list(body)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if edit == "insert" or not body:
            words = draw(st.lists(st.sampled_from(WORDS), max_size=5))
            body.insert(at, " ".join(words))
        elif edit == "drop":
            del body[min(at, len(body) - 1)]
        else:
            body.insert(at, body[min(at, len(body) - 1)])
    return "\n".join(body) + "\n"


@st.composite
def document_sets(draw):
    """Source and target lattices, a seed relation and a map between them."""
    if draw(st.booleans()):
        source, target, to_lines = draw(st.sampled_from(MAPS))
        label = st.sampled_from(LABELS[source])
    else:
        source, target = draw(st.sampled_from(BASES)), draw(st.sampled_from(BASES))
        label = st.sampled_from(LABELS[source] or ["zz"])
        to_lines = [f"to {b} {draw(label)}" for b in LABELS[target]]
    pairs = draw(st.lists(st.tuples(label, label), max_size=3))
    return {
        "src.lat": mutated(draw, source.splitlines()),
        "tgt.lat": mutated(draw, target.splitlines()),
        "r.rel": mutated(draw, ["relation r"] + [f"pair {a} {b}" for a, b in pairs]),
        "m.map": mutated(draw, ["map m", "source src.lat", "target tgt.lat"] + to_lines),
    }


COMMANDS = [
    ["validate", "{dir}/src.lat"],
    ["validate", "{dir}/src.lat", "--check-all"],
    ["derive", "{dir}/src.lat", "wellinside"],
    ["derive", "{dir}/src.lat", "pseudo"],
    ["derive", "{dir}/src.lat", "core"],
    ["si", "{dir}/src.lat", "--seed-rel", "{dir}/r.rel"],
    ["si", "{dir}/src.lat", "--basis", "{{}}", "{{a}}", "c0", "zz"],
    ["compactify", "{dir}/src.lat", "--maps", "{dir}/m.map", "--dot", "{dir}/frame.dot"],
    ["compactify", "{dir}/src.lat", "--basis", "{{}}", "{{a}}", "{{b}}", "{{a,b}}"],
    ["extend", "{dir}/src.lat", "{dir}/m.map"],
    ["extend", "{dir}/src.lat", "{dir}/m.map", "--through", "canonical:m.map"],
    ["compare", "{dir}/src.lat", "{dir}/src.lat:m.map"],
    ["dot", "{dir}/tgt.lat"],
]


@given(document_sets(), st.sampled_from(COMMANDS))
@settings(max_examples=200, deadline=None)
def test_generated_documents_exit_cleanly(documents, argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in documents.items():
            (Path(tmp) / name).write_text(text)
        argv = [a.format(dir=tmp) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
