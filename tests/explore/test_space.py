"""Tests for design-space declaration, enumeration, and materialisation."""

from __future__ import annotations

import pytest

from repro.explore import Axis, Constraint, DesignSpace, get_space, space_names
from repro.explore.space import scale_seq_len


def _toy_space(**kwargs) -> DesignSpace:
    defaults = dict(
        name="toy",
        kind="dse_encoder",
        base_params={"model": "bert_large", "batch": 1},
        axes=(
            Axis("seq_len", (64, 128)),
            Axis("tile_m", (256, 768)),
        ),
    )
    defaults.update(kwargs)
    return DesignSpace(**defaults)


class TestAxis:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("x", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Axis("x", (1, 2, 1))

    def test_non_jsonable_values_rejected(self):
        with pytest.raises(TypeError):
            Axis("x", (object(),))


class TestDesignSpaceDeclaration:
    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="no axes"):
            DesignSpace(name="empty", axes=(), kind="dse_encoder")

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis names"):
            DesignSpace(name="dup", kind="dse_encoder",
                        axes=(Axis("x", (1,)), Axis("x", (2,))))

    def test_axis_shadowing_base_params_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            _toy_space(base_params={"seq_len": 64})


class TestEnumeration:
    def test_cardinality_and_points(self):
        space = _toy_space()
        assert space.cardinality == 4
        points = space.points()
        assert len(points) == 4
        # Deterministic axis-major order.
        assert points[0] == {"seq_len": 64, "tile_m": 256}
        assert points[-1] == {"seq_len": 128, "tile_m": 768}
        assert points == space.points()

    def test_constraints_prune_enumeration(self):
        space = _toy_space(constraints=(
            Constraint("big_tiles_only", lambda a: a["tile_m"] >= 768),
        ))
        points = space.points()
        assert len(points) == 2
        assert all(p["tile_m"] == 768 for p in points)


class TestDeclaredAxes:
    def test_unknown_declared_axis_rejected_naming_constraint_and_axis(self):
        with pytest.raises(ValueError, match="'wide'.*'bogus'"):
            _toy_space(constraints=(
                Constraint("wide", lambda a: True, axes=("tile_m", "bogus")),
            ))

    def test_reading_an_undeclared_axis_raises_naming_constraint(self):
        space = _toy_space(constraints=(
            Constraint("sneaky", lambda a: a["seq_len"] >= 64, axes=("tile_m",)),
        ))
        with pytest.raises(KeyError, match="sneaky"):
            space.points()
        with pytest.raises(KeyError, match="sneaky"):
            space.materialize({"seq_len": 64, "tile_m": 256})

    def test_get_of_an_undeclared_axis_raises_too(self):
        space = _toy_space(constraints=(
            Constraint("sneaky", lambda a: a.get("seq_len", 0) >= 0,
                       axes=("tile_m",)),
        ))
        with pytest.raises(KeyError, match="sneaky"):
            space.feasible_count()

    def test_predicate_runs_once_per_projected_key(self):
        seen = []

        def wide_tiles(projection):
            seen.append(dict(projection))
            return projection["tile_m"] >= 768

        space = _toy_space(constraints=(
            Constraint("wide", wide_tiles, axes=("tile_m",)),
        ))
        assert space.feasible_count() == 2
        assert len(space.points()) == 2
        space.point_params({"seq_len": 128, "tile_m": 768})
        assert seen == [{"tile_m": 256}, {"tile_m": 768}]

    def test_omitted_axes_mean_every_axis(self):
        seen = []

        def record(assignment):
            seen.append(dict(assignment))
            return True

        space = _toy_space(constraints=(Constraint("all", record),))
        assert len(space.points()) == 4
        assert seen == space.points()

    def test_unhashable_axis_values_are_keyed_canonically(self):
        calls = []

        def small(projection):
            calls.append(projection["shape"])
            return sum(projection["shape"]) < 10

        space = _toy_space(
            axes=(Axis("shape", ([1, 2], [8, 8])), Axis("tile_m", (256, 768))),
            constraints=(Constraint("small", small, axes=("shape",)),),
        )
        assert space.points() == [
            {"shape": [1, 2], "tile_m": 256},
            {"shape": [1, 2], "tile_m": 768},
        ]
        assert calls == [[1, 2], [8, 8]]


class TestMaterialise:
    def test_scenario_params_merge_base_and_assignment(self):
        space = _toy_space()
        point = space.materialize({"seq_len": 64, "tile_m": 256})
        assert point.scenario.kind == "dse_encoder"
        assert point.scenario.params == {"model": "bert_large", "batch": 1,
                                         "seq_len": 64, "tile_m": 256}
        assert point.scenario.tags == ("dse", "toy")

    def test_point_id_is_stable_and_distinct(self):
        space = _toy_space()
        a = {"seq_len": 64, "tile_m": 256}
        b = {"seq_len": 64, "tile_m": 768}
        assert space.point_id(a) == space.point_id(a)
        assert space.point_id(a) != space.point_id(b)
        assert space.materialize(a).scenario.name == \
            f"dse/toy/{space.point_id(a)}"

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            _toy_space().materialize({"seq_len": 64, "bogus": 1})

    def test_infeasible_assignment_rejected_by_name(self):
        space = _toy_space(constraints=(
            Constraint("big_tiles_only", lambda a: a["tile_m"] >= 768),
        ))
        with pytest.raises(ValueError, match="big_tiles_only"):
            space.materialize({"seq_len": 64, "tile_m": 256})

    def test_fidelity_scales_point_params(self):
        space = _toy_space()
        assignment = {"seq_len": 128, "tile_m": 256}
        params = space.point_params(assignment, fidelity=0.5)
        assert params == {"model": "bert_large", "batch": 1,
                          "seq_len": 64, "tile_m": 256}
        # materialised points are always full fidelity.
        assert space.materialize(assignment).scenario.params["seq_len"] == 128

    def test_fidelity_out_of_range_rejected(self):
        space = _toy_space()
        for fidelity in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="fidelity"):
                space.point_params({"seq_len": 64, "tile_m": 256},
                                   fidelity=fidelity)


class TestScaleSeqLen:
    def test_scales_to_multiple_of_16(self):
        assert scale_seq_len({"seq_len": 384}, 0.5)["seq_len"] == 192

    def test_floor_is_32(self):
        assert scale_seq_len({"seq_len": 64}, 0.01)["seq_len"] == 32

    def test_never_exceeds_original(self):
        assert scale_seq_len({"seq_len": 32}, 0.9)["seq_len"] == 32

    def test_no_seq_len_is_a_no_op(self):
        assert scale_seq_len({"m": 1024}, 0.5) == {"m": 1024}


class TestCatalogue:
    def test_space_names(self):
        assert "encoder" in space_names()
        assert "encoder-smoke" in space_names()

    def test_unknown_space_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="encoder-smoke"):
            get_space("nope")

    def test_encoder_space_constraints_prune(self):
        space = get_space("encoder")
        assert len(space.points()) < space.cardinality

    def test_encoder_smoke_space_is_16_points(self):
        space = get_space("encoder-smoke")
        assert len(space.points()) == 16

    def test_catalogue_factories_return_fresh_instances(self):
        assert get_space("encoder") is not get_space("encoder")

    def test_describe_mentions_axes_and_constraints(self):
        text = get_space("encoder").describe()
        assert "axis num_mme" in text
        assert "constraint rhs_tile_fits_memb" in text
