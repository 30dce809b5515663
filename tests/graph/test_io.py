"""Tests for repro.graph.io."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.io import (
    read_edge_list,
    read_event_file,
    write_edge_list,
    write_event_file,
)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, two_triangles_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(two_triangles_graph, str(path))
        loaded, labels = read_edge_list(str(path))
        assert loaded.num_nodes == two_triangles_graph.num_nodes
        assert loaded.num_edges == two_triangles_graph.num_edges

    def test_labels_preserved(self, tmp_path):
        path = tmp_path / "named.txt"
        path.write_text("alice bob\nbob carol\n")
        graph, labels = read_edge_list(str(path))
        assert graph.num_nodes == 3
        assert set(labels) == {"alice", "bob", "carol"}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# header\n\n0 1\n")
        graph, _ = read_edge_list(str(path))
        assert graph.num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("justonenode\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(str(path))

    def test_missing_file_raises(self):
        with pytest.raises(GraphFormatError):
            read_edge_list("/nonexistent/file.txt")


def _builder_reference(path, comment="#"):
    """The per-edge loader: one GraphBuilder.add_edge call per line, then
    Graph.to_csr().  The vectorised loader must reproduce it exactly."""
    builder = GraphBuilder()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{line_number}: expected 'u v', got {line!r}"
                )
            builder.add_edge(parts[0], parts[1])
    return builder.build(), [str(label) for label in builder.labels()]


def _assert_parity(path, comment="#"):
    graph, labels = read_edge_list(str(path), comment=comment)
    expected_graph, expected_labels = _builder_reference(str(path), comment=comment)
    csr, expected = graph.to_csr(), expected_graph.to_csr()
    assert labels == expected_labels
    assert np.array_equal(csr.indptr, expected.indptr)
    assert np.array_equal(csr.indices, expected.indices)
    return graph, expected_graph


class TestVectorisedLoaderParity:
    CASES = {
        "comments_and_blanks": "# header line\n\n0 1\n   \n# another\n1 2\n\n",
        "leading_whitespace": "   0 1\n\t\t1\t2\n  \t 2   0  \n",
        "extra_columns": "0 1 0.5 weight\n1 2 7\n2 3 x y z\n",
        "self_loops": "0 0\n1 2\n3 3\n2 1\n",
        "duplicates_both_orientations": "a b\nb a\na b\nc a\na c\nb c\n",
        "string_labels": "alice bob\nbob carol\ncarol dave\ndave alice\n",
        "indented_comment": "  # indented comment\nx y\n\t#tab comment 1 2\ny z\n",
        "crlf_and_form_feed": "0 1\r\n1\x0c2\r\n\x0b\r\n2 3\r3 4",
        "unicode": "m\u00fcller \u00e9mile\n\u00e9mile\u00a0z\u00fcrich\n",
        "no_trailing_newline": "0 1\n1 2",
        "empty": "",
        "only_comments": "# a\n#b c d\n",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_per_edge_builder(self, tmp_path, name):
        path = tmp_path / "graph.txt"
        path.write_bytes(self.CASES[name].encode("utf-8"))
        _assert_parity(path)

    def test_custom_comment_prefix(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("// header\n0 1\n/ 2\n#1 2\n//\n")
        _assert_parity(path, comment="//")

    def test_short_line_keeps_its_line_number(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header\n\n0 1\n  lonely  \n1 2\nalone\n")
        with pytest.raises(GraphFormatError) as excinfo:
            read_edge_list(str(path))
        with pytest.raises(GraphFormatError) as expected:
            _builder_reference(str(path))
        assert str(excinfo.value) == str(expected.value)
        assert str(excinfo.value) == f"{path}:4: expected 'u v', got 'lonely'"

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(st.integers(0, 12), st.integers(0, 12),
                          st.sampled_from(["", " 1.5", " x y"]),
                          st.sampled_from(["", " ", "\t", "  "])),
                st.sampled_from(["", "# comment", "   ", " # x 1"]),
            ),
            max_size=40,
        ),
    )
    def test_random_edge_lists(self, tmp_path_factory, lines):
        rendered = []
        for line in lines:
            if isinstance(line, str):
                rendered.append(line)
            else:
                u, v, extra, indent = line
                rendered.append(f"{indent}n{u}{indent or ' '}n{v}{extra}")
        path = tmp_path_factory.mktemp("edges") / "graph.txt"
        path.write_text("\n".join(rendered) + "\n")
        graph, expected = _assert_parity(path)
        assert list(graph.edges()) == list(expected.edges())

    def test_neighbours_are_python_ints_in_builder_order(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 9\n0 17\n0 1\n9 17\n1 25\n0 25\n")
        graph, expected = _assert_parity(path)
        for node in graph.nodes():
            neighbours = graph.neighbors(node)
            assert all(type(v) is int for v in neighbours)
            assert list(neighbours) == list(expected.neighbors(node))
        assert list(graph.edges()) == list(expected.edges())

    def test_to_csr_is_the_parsed_csr_until_a_mutation(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        graph, _ = read_edge_list(str(path))
        parsed = graph.to_csr()
        assert graph.to_csr() is parsed
        assert graph.degree(1) == 2  # a read builds the sets, keeps the CSR
        assert graph.to_csr() is parsed
        assert graph.add_edge(0, 3)
        mutated = graph.to_csr()
        assert mutated is not parsed
        assert mutated.num_edges == 4
        assert list(mutated.neighbors(0)) == [1, 3]
        assert list(mutated.neighbors(3)) == [0, 2]
        assert graph.remove_edge(1, 2)
        assert list(graph.to_csr().neighbors(1)) == [0]


class TestEventFileIO:
    def test_round_trip_with_ids(self, tmp_path):
        path = tmp_path / "events.txt"
        events = {"wireless": [1, 2, 3], "sensor": [2, 4]}
        write_event_file(events, str(path))
        loaded = read_event_file(str(path))
        assert loaded == {"wireless": [1, 2, 3], "sensor": [2, 4]}

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("wireless\talice\nwireless\tbob\n")
        loaded = read_event_file(str(path), label_to_id={"alice": 0, "bob": 1})
        assert loaded == {"wireless": [0, 1]}

    def test_unknown_label_raises(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("wireless\tghost\n")
        with pytest.raises(GraphFormatError):
            read_event_file(str(path), label_to_id={"alice": 0})

    def test_non_integer_without_mapping_raises(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("wireless\talice\n")
        with pytest.raises(GraphFormatError):
            read_event_file(str(path))

    def test_missing_file_raises(self):
        with pytest.raises(GraphFormatError):
            read_event_file("/nonexistent/events.txt")

    def test_write_with_labels(self, tmp_path):
        path = tmp_path / "events.txt"
        write_event_file({"kw": [0, 1]}, str(path), labels=["alice", "bob"])
        content = path.read_text()
        assert "alice" in content and "bob" in content
