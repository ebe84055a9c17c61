import gc
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from roundideal import io as rio
from roundideal.cli import main
from roundideal.errors import MalformedInput, ValidationFailure
from roundideal.framemap import validate_map
from roundideal.lattice import PcdLattice, boolean, chain, full_basis
from roundideal.relation import least_strong_inclusion, Relation


N5_DOC = """\
lattice N5 lattice
elements 0 a b c 1
le 0 a
le 0 b
le b c
le a 1
le c 1
"""


class TestParseLattice:
    def test_single_point_poset_gives_two_chain(self):
        lat = rio.parse_lattice("lattice t poset-downsets\nelements p\n")
        assert lat.n == 2
        assert lat.names == ("{}", "{p}")

    def test_antichain_gives_boolean_square(self):
        lat = rio.parse_lattice("lattice t poset-downsets\nelements p q\n")
        assert lat.n == 4
        assert lat.names == ("{}", "{p}", "{q}", "{p,q}")

    def test_pentagon_rejected_with_axiom_name(self):
        with pytest.raises(ValidationFailure, match="distributivity"):
            rio.parse_lattice(N5_DOC)

    def test_parse_error_carries_line_number(self):
        doc = "lattice t lattice\nelements a b\nle a zz\n"
        with pytest.raises(MalformedInput, match="line 3"):
            rio.parse_lattice(doc)

    def test_unknown_directive(self):
        with pytest.raises(MalformedInput, match="unknown directive"):
            rio.parse_lattice("lattice t lattice\nelements a\nfoo a\n")

    def test_missing_header(self):
        with pytest.raises(MalformedInput, match="header"):
            rio.parse_lattice("elements a\n")

    def test_unknown_mode(self):
        with pytest.raises(MalformedInput, match="unknown mode"):
            rio.parse_lattice("lattice t weird\nelements a\n")

    def test_comments_and_blank_lines_ignored(self):
        doc = "# intro\nlattice t lattice\n\nelements a  # trailing\n"
        assert rio.parse_lattice(doc).n == 1

    def test_cyclic_poset_rejected(self):
        doc = "lattice t poset-downsets\nelements a b\nle a b\nle b a\n"
        with pytest.raises(ValidationFailure, match="antisymmetry"):
            rio.parse_lattice(doc)

    def test_explicit_lattice_mode(self):
        doc = (
            "lattice square lattice\nelements 0 a b 1\n"
            "le 0 a\nle 0 b\nle a 1\nle b 1\n"
        )
        lat = rio.parse_lattice(doc)
        assert lat.n == 4 and lat.is_valid

    def test_duplicate_header_rejected(self):
        doc = "lattice t lattice\nelements a\nlattice u poset-downsets\n"
        with pytest.raises(MalformedInput, match="line 3: duplicate 'lattice'"):
            rio.parse_lattice(doc)

    def test_64_elements_accepted(self):
        lat = rio.parse_lattice(rio.serialize_lattice(chain(64)))
        assert lat == chain(64)

    def test_257_elements_rejected_before_closure(self, tmp_path, capsys):
        doc = rio.serialize_lattice(chain(256))
        assert rio.parse_lattice(doc) == chain(256)
        doc = doc.replace("\nle ", " c256\nle c255 c256\nle ", 1)
        with pytest.raises(MalformedInput, match="capped at 256 elements, got 257"):
            rio.parse_lattice(doc)
        path = tmp_path / "chain257.lat"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 2
        assert "capped at 256" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    "lattice anti poset-downsets\nelements a b c\nle a b\n",
    "lattice ch lattice\nelements x y z\nle x y\nle y z\n",
    "lattice loop poset-downsets\nelements a b\nle a b\nle b a\n",
], ids=["poset", "lattice", "cyclic"])
def test_parsing_leaves_no_cyclic_garbage(doc):
    # the closure's search makes no reference cycle, so a parsed lattice
    # (or the failure to parse one) is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        try:
            lat = rio.parse_lattice(doc)
        except ValidationFailure:
            pass
        else:
            del lat
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPosetCap:
    def test_8_point_antichain_accepted(self, tmp_path):
        doc = "lattice t poset-downsets\nelements a b c d e f g h\n"
        lat = rio.parse_lattice(doc)
        assert lat.n == 256
        assert lat.names[0] == "{}" and lat.names[-1] == "{a,b,c,d,e,f,g,h}"
        path = tmp_path / "eight.lat"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 0

    def test_9_points_rejected_before_enumeration(self, tmp_path, capsys):
        doc = "lattice t poset-downsets\nelements a b c d e f g h i\n"
        with pytest.raises(MalformedInput, match="capped at 8 points, got 9"):
            rio.parse_lattice(doc)
        path = tmp_path / "nine.lat"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 2
        assert "capped at 8" in capsys.readouterr().err


def random_document(rng, mode):
    """Labels and ``le`` pairs: random, acyclic, or a relabelled lattice's order."""
    kind = rng.randrange(3)
    if kind == 2:
        names, leq = util.random_order(rng, rng.choice(["downsets", "n5-m3"]))
        k = len(names)
        pairs = [(i, j) for i in range(k) for j in range(k) if leq[i][j] and i != j]
        return names, rng.sample(pairs, len(pairs))
    k = rng.randint(0, 9)
    labels = [f"x{i}" for i in range(k)]
    p = rng.random() / 2
    pairs = [
        (i, j) for i in range(k) for j in range(k)
        if (kind == 0 or i < j) and rng.random() < p
    ]
    return labels, pairs


class TestParseAgainstReference:
    @given(st.sampled_from(["lattice", "poset-downsets"]), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_outcome_matches_reference(self, mode, seed):
        labels, pairs = random_document(random.Random(seed), mode)
        lines = [f"lattice t {mode}", "elements " + " ".join(labels)]
        lines += [f"le {labels[a]} {labels[b]}" for a, b in pairs]
        try:
            lat = rio.parse_lattice("\n".join(lines) + "\n")
        except ValidationFailure as exc:
            got = ("invalid", exc.report)
        except MalformedInput:
            got = ("malformed",)
        else:
            order = frozenset(
                (i, j) for i in range(lat.n) for j in range(lat.n) if lat.leq(i, j)
            )
            got = ("ok", lat.names, order)
        assert got == oracles.reference_parse(labels, pairs, mode)


class TestClosureAgainstReference:
    """``_reflexive_transitive_closure`` row for row against a breadth-first search."""

    @staticmethod
    def check(k, pairs):
        rows = rio._reflexive_transitive_closure(k, pairs)
        assert [[row >> j & 1 for j in range(k)] for row in rows] == \
            oracles.reference_closure(k, pairs)

    def test_random_digraphs(self):
        # pairs in any direction, so cycles are common; self-loops and
        # repeated pairs too
        for seed in range(300):
            rng = random.Random(seed)
            k = rng.randint(0, 64)
            p = rng.choice([0.5, 2, 4]) / max(k, 1)
            pairs = [(i, j) for i in range(k) for j in range(k) if rng.random() < p]
            pairs += rng.sample(pairs, min(len(pairs), 3))
            pairs += [(i, i) for i in range(k) if rng.random() < 0.05]
            rng.shuffle(pairs)
            self.check(k, pairs)

    def test_chain_leaf_first_and_root_first(self):
        steps = [(i, i + 1) for i in range(63)]
        self.check(64, steps[::-1])
        self.check(64, steps)

    def test_cycle(self):
        self.check(64, [(i, (i + 1) % 64) for i in range(64)])


class TestRoundTrips:
    @given(st.integers(0, 2000), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_parse_after_serialize_is_identity(self, seed, size):
        lat = rio.generate(seed, size)
        doc = rio.serialize_lattice(lat)
        again = rio.parse_lattice(doc)
        assert again == lat
        assert rio.serialize_lattice(again) == doc

    def test_relation_round_trip(self):
        lat = boolean(2)
        rel = least_strong_inclusion(
            full_basis(lat), Relation(lat, ())
        )
        doc = rio.serialize_relation(rel, name="t")
        again = rio.parse_relation(doc, lat)
        assert again == rel

    def test_relation_host_mismatch(self):
        lat = boolean(2)
        with pytest.raises(MalformedInput, match="host"):
            rio.parse_relation("host other\npair {} {}\n", lat)

    def test_map_round_trip(self, tmp_path):
        src, tgt = boolean(2), boolean(1)
        (tmp_path / "src.lat").write_text(rio.serialize_lattice(src))
        (tmp_path / "tgt.lat").write_text(rio.serialize_lattice(tgt))
        f = util.atom_map(src, tgt, [0, 0])
        doc = rio.serialize_map(f, source_path="src.lat", target_path="tgt.lat")
        again = rio.parse_map(doc, base_dir=tmp_path)
        assert again.assignment == f.assignment
        assert validate_map(again) == []

    def test_map_requires_source_and_target(self):
        with pytest.raises(MalformedInput, match="source"):
            rio.parse_map("map f\nto a b\n")

    @pytest.mark.parametrize("line", ["source l.lat", "target l.lat", "basis {}", "map g"])
    def test_map_duplicate_lines_rejected(self, tmp_path, line):
        (tmp_path / "l.lat").write_text(rio.serialize_lattice(boolean(1)))
        doc = f"map f\nsource l.lat\ntarget l.lat\nbasis {{}} {{a}}\n{line}\n"
        head = line.split()[0]
        with pytest.raises(MalformedInput, match=f"line 5: duplicate '{head}'"):
            rio.parse_map(doc, base_dir=tmp_path)

    def test_map_coverage_enforced(self, tmp_path):
        src = boolean(1)
        (tmp_path / "l.lat").write_text(rio.serialize_lattice(src))
        doc = "map f\nsource l.lat\ntarget l.lat\nto {} {}\n"
        with pytest.raises(MalformedInput, match="cover"):
            rio.parse_map(doc, base_dir=tmp_path)


def writable(token):
    """Whether a reader reads ``token`` back as one token."""
    return token != "" and "#" not in token and token.split() == [token]


def relabelled(lat, labels, name):
    return PcdLattice(labels, util.order_of(lat)[1], name=name)


def spoil(drawn):
    tokens, change = drawn
    if change is not None:
        i, token = change
        tokens[i] = token
    return tokens


def tokens(k):
    """k distinct tokens, all writable but perhaps one, which may hold anything."""
    good = st.text(st.sampled_from('ab"\\{}\u00e9'), min_size=1, max_size=3)
    anything = st.text(st.sampled_from('ab#" \t\u00a0\u2028'), max_size=3)
    drawn = st.tuples(st.lists(good, min_size=k, max_size=k, unique=True),
                      st.none() | st.tuples(st.integers(0, k - 1), anything))
    return drawn.map(spoil).filter(lambda ts: len(set(ts)) == k)


class TestWritableDocuments:
    """Each writer emits what its reader reads back equal, or refuses the
    document by naming its first unwritable label, name or path."""

    def check(self, tokens, write):
        """The document ``write()`` reads back, or the first unwritable token is named."""
        bad = [(what, t) for what, t in tokens if not writable(t)]
        if not bad:
            return write()
        what, token = bad[0]
        with pytest.raises(MalformedInput, match=re.escape(f"{what} {token!r} cannot")):
            write()
        return None

    @given(tokens(5))
    @settings(max_examples=150, deadline=None)
    def test_lattice(self, drawn):
        name, labels = drawn[0], drawn[1:]
        lat = relabelled(boolean(2), labels, name)
        named = [("lattice name", name)] + [("element label", x) for x in labels]
        doc = self.check(named, lambda: rio.serialize_lattice(lat))
        if doc is not None:
            assert rio.parse_lattice(doc) == lat

    @given(tokens(5), st.integers(0, 15))
    @settings(max_examples=150, deadline=None)
    def test_relation(self, drawn, bits):
        # the pairs of each element set in ``bits`` with the top: only their
        # labels (and the top's) are written
        name, labels = drawn[0], drawn[1:]
        lat = relabelled(boolean(2), labels, "host")
        rel = Relation(lat, [(a, 3) for a in range(4) if bits >> a & 1])
        used = sorted({x for pair in rel for x in pair})
        named = [("relation name", name)] + [("element label", labels[x]) for x in used]
        doc = self.check(named, lambda: rio.serialize_relation(rel, name=name))
        if doc is not None:
            assert rio.parse_relation(doc, lat) == rel

    @given(tokens(8))
    @settings(max_examples=100, deadline=None)
    def test_map(self, drawn):
        name, path, src_labels, tgt_labels = drawn[0], drawn[1], drawn[2:6], drawn[6:]
        src = relabelled(boolean(2), src_labels, "src")
        tgt = relabelled(boolean(1), tgt_labels, "tgt")
        f = util.atom_map(src, tgt, [0, 0])
        named = [("map name", name), ("path", path), ("path", "tgt.lat")]
        named += [("element label", tgt_labels[b]) for b in range(2)]
        named += [("element label", src_labels[f.assignment[b]]) for b in range(2)]
        doc = self.check(named, lambda: rio.serialize_map(
            f, name=name, source_path=path, target_path="tgt.lat"))
        if doc is not None and all(map(writable, drawn[2:])):  # both lattices written too
            with tempfile.TemporaryDirectory() as d:
                (Path(d) / path).write_text(rio.serialize_lattice(src))
                (Path(d) / "tgt.lat").write_text(rio.serialize_lattice(tgt))
                again = rio.parse_map(doc, base_dir=d)
            assert (again.source, again.target) == (src, tgt)
            assert again.assignment == f.assignment

    @pytest.mark.parametrize("call, message", [
        (lambda: rio.serialize_lattice(boolean(1, name="my lat")), "lattice name 'my lat'"),
        (lambda: rio.serialize_lattice(relabelled(chain(2), ["a", ""], "c")),
         "element label ''"),
        (lambda: rio.serialize_relation(Relation(relabelled(chain(2), ["a b", "c"], "t"),
                                                 [(0, 1)])), "element label 'a b'"),
        (lambda: rio.serialize_relation(Relation(boolean(1), []), name="r#1"),
         "relation name 'r#1'"),
        (lambda: rio.serialize_map(util.atom_map(boolean(1), boolean(1), [0]),
                                   target_path="my dir/t.lat"), "path 'my dir/t.lat'"),
    ], ids=["lattice-name", "empty-label", "pair-label", "relation-name", "path"])
    def test_refusal_names_its_token(self, call, message):
        with pytest.raises(MalformedInput, match=re.escape(message) + " cannot be written"):
            call()

    def test_relation_checks_only_the_labels_it_writes(self):
        lat = relabelled(chain(2), ["a b", "c"], "t")
        assert rio.parse_relation(rio.serialize_relation(Relation(lat, [(1, 1)])), lat) == \
            Relation(lat, [(1, 1)])

    def test_dot_escapes_quotes_and_backslashes(self):
        lat = relabelled(chain(3), ['a"b', "c\\", '\\"'], "q")
        dot = rio.export_dot(lat)
        # every quoted string ends where DOT ends it, and unescapes to its label
        quoted = r'"((?:[^"\\]|\\.)*)"'
        assert '"' not in re.sub(quoted, "", dot)
        unescaped = [re.sub(r"\\(.)", r"\1", x) for x in re.findall(quoted, dot)]
        assert unescaped == [*lat.names, 'a"b', "c\\", "c\\", '\\"']


BOOL1_DOC = rio.serialize_lattice(boolean(1))  # elements {} {a}


@pytest.mark.parametrize("call, message", [
    (lambda d: rio.parse_lattice("lattice t lattice\nelements a a\n"),
     "line 2: element labels must be unique"),
    (lambda d: rio.parse_lattice("lattice t lattice\nelements a b\nle a\n"),
     "line 3: expected 'le <a> <b>'"),
    (lambda d: rio.parse_lattice("lattice t lattice\n"), "missing 'elements' line"),
    (lambda d: rio.parse_lattice("lattice t\nelements a\n"),
     "line 1: expected 'lattice <name> <mode>'"),
    (lambda d: rio.parse_lattice("lattice t lattice\nelements a\nlattice u lattice\n"),
     "line 3: duplicate 'lattice' line"),
    (lambda d: rio.parse_lattice("lattice t lattice\nelements a\nelements a\n"),
     "line 3: duplicate 'elements' line"),
    (lambda d: rio.parse_relation("relation r\npair {}\n", boolean(1)),
     "line 2: expected 'pair <a> <b>'"),
    (lambda d: rio.parse_relation("pair {} {z}\n", boolean(1)), "unknown element label '{z}'"),
    (lambda d: rio.parse_relation("let x\n", boolean(1)), "line 1: unknown directive 'let'"),
    (lambda d: rio.parse_relation("host\n", boolean(1)), "line 1: expected 'host <name>'"),
    (lambda d: rio.parse_relation("host bool1 x\n", boolean(1)),
     "line 1: expected 'host <name>'"),
    (lambda d: rio.parse_relation("relation\n", boolean(1)),
     "line 1: expected 'relation <name>'"),
    (lambda d: rio.parse_relation("relation a b\n", boolean(1)),
     "line 1: expected 'relation <name>'"),
    (lambda d: rio.parse_map("map f\nto {}\n", base_dir=d),
     "line 2: expected 'to <b> <x>'"),
    (lambda d: rio.parse_map("source a.lat b.lat\n", base_dir=d),
     "line 1: expected 'source <path>'"),
    (lambda d: rio.parse_map("map f\n", base_dir=3),
     "base directory must be a path, not int"),
    (lambda d: rio.parse_map("target missing.lat\n", base_dir=d),
     "line 1: cannot read .*missing.lat"),
    (lambda d: rio.parse_map("map f\nlet x\n", base_dir=d),
     "line 2: unknown directive 'let'"),
    (lambda d: rio.parse_map("source b.lat\ntarget b.lat\nto {} {}\nto {} {a}\n", base_dir=d),
     "line 4: duplicate assignment for '{}'"),
    (lambda d: rio.parse_relation("relation r\nhost bool1\nrelation s\n", boolean(1)),
     "line 3: duplicate 'relation' line"),
    (lambda d: rio.parse_relation("host bool1\npair {} {}\nhost bool1\n", boolean(1)),
     "line 3: duplicate 'host' line"),
    (lambda d: rio.parse_map("map f\nmap g extra tokens\nsource b.lat\ntarget b.lat\n"
                             "to {} {}\nto {a} {a}\n", base_dir=d),
     "line 2: duplicate 'map' line"),
    (lambda d: rio.parse_map("source b.lat\nmap f extra\ntarget b.lat\n"
                             "to {} {}\nto {a} {a}\n", base_dir=d),
     "line 2: expected 'map <name>'"),
    (lambda d: rio.parse_map("map\n", base_dir=d), "line 1: expected 'map <name>'"),
    (lambda d: rio.parse_map("source b.lat\ntarget b.lat\nto {} {}\nto {a} {z}\n",
                             base_dir=d), "^line 4: unknown element label '{z}'$"),
    (lambda d: rio.parse_map("source b.lat\ntarget b.lat\nto {} {}\nto {z} {a}\n",
                             base_dir=d), "^line 4: unknown element label '{z}'$"),
    (lambda d: rio.parse_map("source b.lat\ntarget b.lat\nbasis {} {z}\n", base_dir=d),
     "^line 3: unknown element label '{z}'$"),
], ids=["duplicate-labels", "short-le", "no-elements", "short-lattice", "duplicate-lattice",
        "duplicate-elements", "short-pair", "unknown-label",
        "unknown-relation-directive", "bare-host", "long-host", "bare-relation",
        "long-relation", "short-to", "long-source",
        "base-dir-not-a-path", "unreadable-target", "unknown-map-directive",
        "duplicate-assignment", "duplicate-relation", "duplicate-host",
        "duplicate-map", "long-map", "bare-map", "unknown-to-source", "unknown-to-target",
        "unknown-basis"])
def test_input_checks(tmp_path, call, message):
    (tmp_path / "b.lat").write_text(BOOL1_DOC)
    with pytest.raises(MalformedInput, match=message) as info:
        call(tmp_path)
    assert type(info.value) is MalformedInput


# one valid document per format: its reader, body usage and header usages
FORMATS = {
    "lattice": (lambda text, d: rio.parse_lattice(text), "le <a> <b>",
                "lattice t lattice\nelements a b\nle a b\n",
                ["lattice <name> <mode>", "elements"]),
    "relation": (lambda text, d: rio.parse_relation(text, boolean(1)), "pair <a> <b>",
                 "relation r\nhost bool1\npair {} {a}\n",
                 ["relation <name>", "host <name>"]),
    "map": (lambda text, d: rio.parse_map(text, base_dir=d), "to <b> <x>",
            "map f\nsource b.lat\ntarget b.lat\nbasis {} {a}\nto {} {}\nto {a} {a}\n",
            ["map <name>", "source <path>", "target <path>", "basis"]),
}


def reader_cases():
    """(format, document, message): each structural fault of the one grammar,
    planted in a valid document and named by its line."""
    for kind, (_, body, doc, headers) in FORMATS.items():
        lines = doc.splitlines()
        verb = body.split()[0]

        def planted(i, line, drop=False):
            return "\n".join(lines[:i] + [line] + lines[i + drop:]) + "\n"

        yield kind, planted(1, "let x"), "line 2: unknown directive 'let'"
        yield kind, planted(1, f"{verb} a"), f"line 2: expected '{body}'"
        yield kind, planted(1, f"{verb} a b c"), f"line 2: expected '{body}'"
        for i, usage in enumerate(headers):
            head, *arguments = usage.split()
            yield kind, doc + lines[i] + "\n", f"line {len(lines) + 1}: duplicate '{head}' line"
            if arguments:
                for wrong in (lines[i] + " extra", " ".join(lines[i].split()[:-1])):
                    yield kind, planted(i, wrong, drop=True), f"line {i + 1}: expected '{usage}'"


class TestOneReader:
    """The lattice, relation and map documents share one grammar."""

    @pytest.mark.parametrize("kind", FORMATS)
    def test_valid_documents_read(self, tmp_path, kind):
        (tmp_path / "b.lat").write_text(BOOL1_DOC)
        read, _, doc, _ = FORMATS[kind]
        read(doc, tmp_path)

    @pytest.mark.parametrize("kind, doc, message", list(reader_cases()))
    def test_structural_fault_names_its_line(self, tmp_path, kind, doc, message):
        (tmp_path / "b.lat").write_text(BOOL1_DOC)
        with pytest.raises(MalformedInput) as info:
            FORMATS[kind][0](doc, tmp_path)
        assert type(info.value) is MalformedInput
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda d: rio.parse_lattice("lattice t weird\nelements a\nfoo a\n"),
         "line 3: unknown directive 'foo'"),
        (lambda d: rio.parse_lattice("lattice t lattice\nelements a a\nle a zz\nle a\n"),
         "line 4: expected 'le <a> <b>'"),
        (lambda d: rio.parse_relation("host other\npair {} {z}\nhost other\n", boolean(1)),
         "line 3: duplicate 'host' line"),
        (lambda d: rio.parse_map("source missing.lat\nto {z} {}\ntarget b.lat extra\n",
                                 base_dir=d),
         "line 3: expected 'target <path>'"),
    ], ids=["lattice", "lattice-body", "relation", "map"])
    def test_structural_faults_come_first(self, tmp_path, call, message):
        (tmp_path / "b.lat").write_text(BOOL1_DOC)
        with pytest.raises(MalformedInput) as info:
            call(tmp_path)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc, line", [
        ("source missing.lat\n", 1),
        ("map f\nsource b.lat\ntarget missing.lat\nto {} {}\n", 3),
    ])
    def test_unreadable_path_named_before_a_missing_header(self, tmp_path, doc, line):
        (tmp_path / "b.lat").write_text(BOOL1_DOC)
        with pytest.raises(MalformedInput, match=f"^line {line}: cannot read .*missing.lat"):
            rio.parse_map(doc, base_dir=tmp_path)


class TestGenerate:
    def test_size_zero_is_degenerate(self):
        assert rio.generate(0, 0).n == 1

    def test_size_one_is_two_chain(self):
        lat = rio.generate(5, 1)
        assert lat.n == 2

    def test_deterministic(self):
        a = rio.serialize_lattice(rio.generate(42, 5))
        b = rio.serialize_lattice(rio.generate(42, 5))
        assert a == b

    def test_seeds_differ(self):
        docs = {rio.serialize_lattice(rio.generate(s, 5)) for s in range(8)}
        assert len(docs) > 1

    def test_size_cap(self):
        with pytest.raises(MalformedInput):
            rio.generate(0, 9)


class TestDot:
    def test_two_chain_shape(self):
        dot = rio.export_dot(rio.generate(0, 1))
        assert dot.count("->") == 1
        assert dot.count(";") >= 3

    def test_boolean_square_diamond(self):
        dot = rio.export_dot(boolean(2))
        assert dot.count("->") == 4

    def test_deterministic(self):
        assert rio.export_dot(boolean(3)) == rio.export_dot(boolean(3))

    @pytest.mark.parametrize("name, graph", [
        ("2c", "_2c"), ("c2", "c2"), ("0", "_0"), ("-1", "_1"), ("٣a", "٣a"),
    ])
    def test_graph_id_does_not_start_with_a_digit(self, name, graph):
        assert rio.export_dot(chain(2, name=name)).startswith(f"digraph {graph} {{\n")

    def test_frame_highlights_basic_ideals(self):
        from roundideal.compactify import compactify_extending

        lat = boolean(2)
        comp, _ = compactify_extending(lat, full_basis(lat), [])
        dot = rio.export_dot(comp.frame)
        assert "filled" in dot
