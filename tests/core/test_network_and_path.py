"""Tests for datapath construction, validation, paths, and path programs."""

from __future__ import annotations

import pytest

from repro.core import ConfigurationError, Datapath, Path, PathProgram, UOp
from tests.core.test_functional_unit import AdderFU, SinkFU, SourceFU


def toy_datapath():
    dp = Datapath("toy")
    dp.add_fus([SourceFU("src"), AdderFU("add"), SinkFU("sink")])
    dp.connect("src", "out", "add", "in")
    dp.connect("add", "out", "sink", "in")
    return dp


class TestDatapath:
    def test_duplicate_fu_rejected(self):
        dp = Datapath("d")
        dp.add_fu(SourceFU("src"))
        with pytest.raises(ConfigurationError):
            dp.add_fu(SourceFU("src"))

    def test_unknown_fu_lookup(self):
        dp = Datapath("d")
        with pytest.raises(ConfigurationError):
            dp.fu("nope")

    def test_connect_by_name_and_object(self):
        dp = Datapath("d")
        src, sink = SourceFU("src"), SinkFU("sink")
        dp.add_fus([src, sink])
        channel = dp.connect(src, "out", "sink", "in")
        assert channel.source.owner is src
        assert channel.sink.owner is sink

    def test_connect_wrong_direction_rejected(self):
        dp = Datapath("d")
        dp.add_fus([SourceFU("src"), SinkFU("sink")])
        with pytest.raises(ConfigurationError):
            dp.connect("sink", "in", "src", "out")

    def test_duplicate_channel_name_rejected(self):
        dp = Datapath("d")
        dp.add_fus([SourceFU("a"), SinkFU("b"), SourceFU("c"), SinkFU("e")])
        dp.connect("a", "out", "b", "in", name="link")
        with pytest.raises(ConfigurationError):
            dp.connect("c", "out", "e", "in", name="link")

    def test_fus_of_type(self):
        dp = toy_datapath()
        assert [fu.name for fu in dp.fus_of_type("SRC")] == ["src"]
        assert dp.fus_of_type("MME") == []

    def test_unconnected_ports_reported(self):
        dp = Datapath("d")
        dp.add_fu(SourceFU("src"))
        assert [p.qualified_name for p in dp.unconnected_ports()] == ["src.out"]
        with pytest.raises(ConfigurationError):
            dp.validate(allow_unconnected=False)

    def test_adjacency_graph(self):
        dp = toy_datapath()
        assert dp.adjacency() == {"src": ["add"], "add": ["sink"], "sink": []}

    def test_describe_lists_edges(self):
        dp = toy_datapath()
        info = dp.describe()
        assert len(info["fus"]) == 3
        assert len(info["edges"]) == 2

    def test_reset_stats_clears_counters(self):
        dp = toy_datapath()
        program = PathProgram("p").add(
            Path("run")
            .assign("src", [UOp("SRC", {"count": 1})])
            .assign("add", [UOp("ADD", {"count": 1})])
            .assign("sink", [UOp("SINK", {"count": 1})])
        )
        program.load_into(dp)
        dp.build_simulator().run()
        assert dp.total_stream_bytes() > 0
        dp.reset_stats()
        assert dp.total_stream_bytes() == 0
        assert dp.fu("add").stats.kernels_executed == 0


class TestPath:
    def test_assign_and_query(self):
        path = Path("p1")
        path.assign("fu1", [UOp("A"), UOp("A")])
        path.assign("fu2", [UOp("B")])
        assert path.total_uops == 3
        assert path.fu_names() == ["fu1", "fu2"]
        assert len(path.uops_for("fu1")) == 2
        assert path.uops_for("missing") == []

    def test_assign_append_vs_replace(self):
        path = Path("p")
        path.assign("fu", [UOp("A")])
        path.assign("fu", [UOp("A")], append=True)
        assert path.total_uops == 2
        path.assign("fu", [UOp("A")], append=False)
        assert path.total_uops == 1

    def test_conflicts_detected(self):
        p1 = Path("p1", {"fu1": [UOp("A")], "fu2": [UOp("B")]})
        p2 = Path("p2", {"fu2": [UOp("B")], "fu3": [UOp("C")]})
        assert p1.conflicts_with(p2) == {"fu2"}

    def test_merged_concatenates_uops(self):
        p1 = Path("p1", {"fu1": [UOp("A", {"n": 1})]})
        p2 = Path("p2", {"fu1": [UOp("A", {"n": 2})], "fu2": [UOp("B")]})
        merged = p1.merged(p2)
        assert merged.total_uops == 3
        assert [u["n"] for u in merged.uops_for("fu1")] == [1, 2]

    def test_uop_bytes_accounting(self):
        path = Path("p", {"fu": [UOp("A", nbytes=3), UOp("A", nbytes=5)]})
        assert path.uop_bytes() == 8


class TestPathProgram:
    def test_parallel_paths_must_be_disjoint(self):
        program = PathProgram()
        p1 = Path("p1", {"fu1": [UOp("A")]})
        p2 = Path("p2", {"fu1": [UOp("A")]})
        with pytest.raises(ConfigurationError):
            program.add_parallel([p1, p2])

    def test_parallel_disjoint_paths_accepted(self):
        program = PathProgram()
        p1 = Path("p1", {"fu1": [UOp("A")]})
        p2 = Path("p2", {"fu2": [UOp("B")]})
        program.add_parallel([p1, p2])
        assert program.total_uops == 2

    def test_sequential_paths_reuse_fus(self):
        program = PathProgram()
        program.add(Path("first", {"fu1": [UOp("A", {"step": 1})]}))
        program.add(Path("second", {"fu1": [UOp("A", {"step": 2})]}))
        flat = program.per_fu_uops()
        assert [u["step"] for u in flat["fu1"]] == [1, 2]

    def test_load_into_appends_exit_and_terminates_unused_fus(self):
        dp = toy_datapath()
        program = PathProgram("p").add(
            Path("only-src-sink")
            .assign("src", [UOp("SRC", {"count": 0})])
            .assign("sink", [UOp("SINK", {"count": 0})])
        )
        program.load_into(dp)
        # The 'add' FU is not on the path but still receives an exit uOP.
        assert dp.fu("add").program_length == 1
        dp.build_simulator().run()  # terminates cleanly

    def test_end_to_end_two_independent_paths(self):
        """Two FU-disjoint paths execute concurrently (spatial parallelism)."""
        dp = Datapath("two-paths")
        dp.add_fus([SourceFU("src1"), SinkFU("sink1"), SourceFU("src2"), SinkFU("sink2")])
        dp.connect("src1", "out", "sink1", "in")
        dp.connect("src2", "out", "sink2", "in")
        path1 = Path("path1", {"src1": [UOp("SRC", {"count": 4})],
                               "sink1": [UOp("SINK", {"count": 4})]})
        path2 = Path("path2", {"src2": [UOp("SRC", {"count": 4})],
                               "sink2": [UOp("SINK", {"count": 4})]})
        program = PathProgram().add_parallel([path1, path2])
        program.load_into(dp)
        dp.build_simulator().run()
        assert len(dp.fu("sink1").received) == 4
        assert len(dp.fu("sink2").received) == 4

    def test_uop_byte_totals(self):
        program = PathProgram()
        program.add(Path("p", {"fu": [UOp("A", nbytes=4), UOp("A", nbytes=4)]}))
        assert program.uop_bytes() == 8
